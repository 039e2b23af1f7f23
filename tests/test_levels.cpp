// LTS level assignment and structure tests: CFL binning (Eq. 7/16), the
// speedup model (Eq. 9), node levels, and the evaluation/update row sets the
// production solver depends on, stored as runs of consecutive rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "conformance_utils.hpp"
#include "core/lts_levels.hpp"
#include "mesh/generators.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::core {
namespace {

TEST(AssignLevels, UniformMeshIsSingleLevel) {
  const auto m = mesh::make_uniform_box(4, 4, 4);
  const auto lv = assign_levels(m, 0.3);
  EXPECT_EQ(lv.num_levels, 1);
  EXPECT_EQ(lv.level_counts[0], m.num_elems());
  EXPECT_NEAR(theoretical_speedup(lv), 1.0, 1e-12);
}

TEST(AssignLevels, EveryElementStableAtItsLevel) {
  const auto m = mesh::make_trench_mesh({.n = 12, .nz = 8, .squeeze = 8.0,
                                         .trench_halfwidth = 0.06, .depth_power = 2.0, .mat = {}});
  const real_t courant = 0.3;
  const auto lv = assign_levels(m, courant);
  EXPECT_GE(lv.num_levels, 3);
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const level_t k = lv.elem_level[static_cast<std::size_t>(e)];
    const real_t step = lv.dt / static_cast<real_t>(level_rate(k));
    EXPECT_LE(step, m.cfl_dt(e, courant) * (1 + 1e-9)) << "element " << e;
  }
}

TEST(AssignLevels, CoarsestLevelHoldsLargestElements) {
  const auto m = mesh::make_strip_mesh(16, 0.25, 4.0);
  const auto lv = assign_levels(m, 0.3);
  EXPECT_EQ(lv.num_levels, 3); // size ratio 4 -> levels {1,3}
  // Largest elements land in level 1 with dt equal to their stable step.
  real_t dtmax = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) dtmax = std::max(dtmax, m.cfl_dt(e, 0.3));
  EXPECT_NEAR(lv.dt, dtmax, 1e-12);
  EXPECT_GT(lv.level_counts[0], 0);
}

TEST(AssignLevels, MaxLevelsCapLowersGlobalDt) {
  const auto m = mesh::make_strip_mesh(32, 0.25, 16.0); // would need 5 levels
  const auto full = assign_levels(m, 0.3, 12);
  EXPECT_EQ(full.num_levels, 5);
  const auto capped = assign_levels(m, 0.3, 3);
  EXPECT_LE(capped.num_levels, 3);
  EXPECT_LT(capped.dt, full.dt);
  // Stability still holds under the cap.
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const level_t k = capped.elem_level[static_cast<std::size_t>(e)];
    EXPECT_LE(capped.dt / static_cast<real_t>(level_rate(k)), m.cfl_dt(e, 0.3) * (1 + 1e-9));
  }
}

TEST(AssignLevels, SingleLevelUsesGlobalMinimum) {
  const auto m = mesh::make_strip_mesh(8, 0.5, 4.0);
  const auto lv = assign_single_level(m, 0.3);
  real_t dtmin = 1e30;
  for (index_t e = 0; e < m.num_elems(); ++e) dtmin = std::min(dtmin, m.cfl_dt(e, 0.3));
  EXPECT_EQ(lv.num_levels, 1);
  EXPECT_NEAR(lv.dt, dtmin, 1e-12);
}

TEST(SpeedupModel, MatchesPaperFormula) {
  // Eq. 9 (two-level): p*E / (p*E_fine + E_coarse).
  LevelAssignment lv;
  lv.num_levels = 2;
  lv.level_counts = {900, 100};
  lv.elem_level.assign(900, 1);
  lv.elem_level.insert(lv.elem_level.end(), 100, 2);
  const double expected = 2.0 * 1000 / (2.0 * 100 + 900);
  EXPECT_NEAR(theoretical_speedup(lv), expected, 1e-12);
}

TEST(SpeedupModel, ApproachesPmaxForFewFineElements) {
  LevelAssignment lv;
  lv.num_levels = 3;
  lv.level_counts = {100000, 0, 1};
  EXPECT_GT(theoretical_speedup(lv), 3.9);
  EXPECT_LE(theoretical_speedup(lv), 4.0);
}

/// The rows of `runs`, ascending.
std::vector<gindex_t> expand(const RowRuns& runs) {
  std::vector<gindex_t> rows;
  for_each_row(runs, [&](std::size_t j, gindex_t g) {
    EXPECT_EQ(j, rows.size());
    rows.push_back(g);
  });
  return rows;
}

/// Runs are sorted, non-empty, inside [0, nn) and maximal: each run ends
/// strictly before the next begins, so no two runs could merge.
void expect_well_formed(const RowRuns& runs, gindex_t nn, const std::string& what) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_GE(runs[i].begin, 0) << what;
    EXPECT_LT(runs[i].begin, runs[i].end) << what << ": empty run " << i;
    EXPECT_LE(runs[i].end, nn) << what;
    if (i > 0) {
      EXPECT_GT(runs[i].begin, runs[i - 1].end) << what << ": run " << i << " not maximal";
    }
  }
}

/// Checks every row set of the structure against its set definition, by
/// brute force over elements and nodes.
void expect_structure_invariants(const sem::SemSpace& space, const LevelAssignment& lv,
                                 const std::string& what) {
  const auto st = build_lts_structure(space, lv);
  const gindex_t nn = space.num_global_nodes();
  const level_t nl = lv.num_levels;
  std::vector<int> s_count(static_cast<std::size_t>(nn), 0);
  for (level_t k = 1; k <= nl; ++k) {
    const auto L = static_cast<std::size_t>(k - 1);
    const std::string at = what + ", level " + std::to_string(k);
    expect_well_formed(st.eval_rows[L], nn, at + " eval_rows");
    expect_well_formed(st.update_rows[L], nn, at + " update_rows");
    expect_well_formed(st.recon_rows[L], nn, at + " recon_rows");

    // eval_rows(k): the nodes of E(k)'s elements.
    std::vector<bool> in_eval(static_cast<std::size_t>(nn), false);
    for (const index_t e : st.eval_elems[L])
      for (int q = 0; q < space.nodes_per_elem(); ++q)
        in_eval[static_cast<std::size_t>(space.elem_nodes(e)[q])] = true;
    std::vector<gindex_t> eval, s_k, r_k1, eval_in_r;
    for (gindex_t g = 0; g < nn; ++g) {
      const level_t rho = st.node_rho[static_cast<std::size_t>(g)];
      const bool e = in_eval[static_cast<std::size_t>(g)];
      if (e) eval.push_back(g);
      if (rho == k) s_k.push_back(g);
      if (rho >= k + 1) r_k1.push_back(g);
      if (e && rho >= k + 1) eval_in_r.push_back(g);
    }
    EXPECT_EQ(expand(st.eval_rows[L]), eval) << at;
    EXPECT_EQ(expand(st.update_rows[L]), s_k) << at << ": S(k) = {rho == k}";
    EXPECT_EQ(expand(st.recon_rows[L]), r_k1) << at << ": R(k+1) = {rho >= k+1}";
    for (const gindex_t g : s_k) ++s_count[static_cast<std::size_t>(g)];

    // eval_rows(k) = S(k) ⊔ (eval_rows(k) ∩ R(k+1)): S(k) lies inside
    // eval_rows(k), and eval_rows(k) holds no row of a coarser S(j).
    std::vector<gindex_t> split;
    std::merge(s_k.begin(), s_k.end(), eval_in_r.begin(), eval_in_r.end(),
               std::back_inserter(split));
    EXPECT_EQ(split, eval) << at;
  }
  for (gindex_t g = 0; g < nn; ++g)
    EXPECT_EQ(s_count[static_cast<std::size_t>(g)], 1) << what << ": S(k) must partition node " << g;
  EXPECT_EQ(st.eval_rows[static_cast<std::size_t>(nl - 1)],
            st.update_rows[static_cast<std::size_t>(nl - 1)])
      << what << ": eval_rows(N) == S(N)";
  EXPECT_TRUE(st.recon_rows[static_cast<std::size_t>(nl - 1)].empty()) << what;
}

TEST(RowRuns, AppendMergesConsecutiveRows) {
  RowRuns runs;
  for (const gindex_t g : {2, 3, 4, 7, 9, 10}) append_row(runs, g);
  EXPECT_EQ(runs, (RowRuns{{2, 5}, {7, 8}, {9, 11}}));
  EXPECT_EQ(row_count(runs), 6u);
  EXPECT_EQ(row_position(runs, 2), 0);
  EXPECT_EQ(row_position(runs, 4), 2);
  EXPECT_EQ(row_position(runs, 7), 3);
  EXPECT_EQ(row_position(runs, 10), 5);
  for (const gindex_t absent : {0, 1, 5, 6, 8, 11}) EXPECT_EQ(row_position(runs, absent), -1);
}

TEST(RowRuns, GradedStripStructureInvariants) {
  const auto m = conformance::graded_strip();
  for (const int order : {2, 3}) {
    sem::SemSpace space(m, order);
    const auto lv = assign_levels(m, 0.08);
    ASSERT_EQ(lv.num_levels, 3);
    expect_structure_invariants(space, lv, "graded_strip order " + std::to_string(order));
  }
}

TEST(RowRuns, EveryScenarioStructureInvariants) {
  for (const auto& name : scenarios::names()) {
    auto spec = scenarios::get(name);
    spec.with_mesh_resolution(4);
    const auto m = spec.build_mesh();
    sem::SemSpace space(m, 2);
    const auto lv = assign_levels(m, spec.courant, spec.max_levels);
    expect_structure_invariants(space, lv, name);
  }
}

class StructureTest : public testing::TestWithParam<int> {};

TEST_P(StructureTest, RowSetsPartitionAndNest) {
  const int order = GetParam();
  const auto m = mesh::make_strip_mesh(16, 0.3, 4.0);
  sem::SemSpace space(m, order);
  const auto lv = assign_levels(m, 0.3);
  const auto st = build_lts_structure(space, lv);

  // S(k) partitions all global nodes.
  std::vector<int> owner(static_cast<std::size_t>(space.num_global_nodes()), 0);
  for (level_t k = 1; k <= lv.num_levels; ++k)
    for (gindex_t g : expand(st.update_rows[static_cast<std::size_t>(k - 1)])) {
      EXPECT_EQ(owner[static_cast<std::size_t>(g)], 0);
      owner[static_cast<std::size_t>(g)] = k;
    }
  for (int o : owner) EXPECT_GT(o, 0);

  // rho >= node level everywhere; recon rows of level k = {rho >= k+1}.
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g)
    EXPECT_GE(st.node_rho[static_cast<std::size_t>(g)], st.node_level[static_cast<std::size_t>(g)]);
  for (level_t k = 1; k < lv.num_levels; ++k) {
    const auto recon_rows = expand(st.recon_rows[static_cast<std::size_t>(k - 1)]);
    std::set<gindex_t> recon(recon_rows.begin(), recon_rows.end());
    for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
      const bool expected = st.node_rho[static_cast<std::size_t>(g)] >= k + 1;
      EXPECT_EQ(recon.count(g) == 1, expected);
    }
  }
}

TEST_P(StructureTest, EvalElemsCoverEveryElementLevelPair) {
  const auto m = mesh::make_strip_mesh(12, 0.4, 4.0);
  sem::SemSpace space(m, GetParam());
  const auto lv = assign_levels(m, 0.3);
  const auto st = build_lts_structure(space, lv);

  // e must appear in E(k) exactly when it owns a node of level k.
  const int npts = space.nodes_per_elem();
  for (level_t k = 1; k <= lv.num_levels; ++k) {
    std::set<index_t> in_ek(st.eval_elems[static_cast<std::size_t>(k - 1)].begin(),
                            st.eval_elems[static_cast<std::size_t>(k - 1)].end());
    for (index_t e = 0; e < space.num_elems(); ++e) {
      bool has_level_k = false;
      for (int q = 0; q < npts; ++q)
        has_level_k |= (st.node_level[static_cast<std::size_t>(space.elem_nodes(e)[q])] == k);
      EXPECT_EQ(in_ek.count(e) == 1, has_level_k) << "level " << k << " elem " << e;
    }
  }

  // Applies per cycle >= the no-halo model count.
  EXPECT_GE(st.applies_per_cycle(), model_applies_per_cycle(lv));
}

INSTANTIATE_TEST_SUITE_P(Orders, StructureTest, testing::Values(2, 4));

TEST(NodeLevels, FinestAdjacentElementWins) {
  const auto m = mesh::make_strip_mesh(4, 0.5, 2.0); // elements: 2 fine, 2 coarse
  sem::SemSpace space(m, 2);
  const auto lv = assign_levels(m, 0.3);
  ASSERT_EQ(lv.num_levels, 2);
  const auto nl = compute_node_levels(space, lv.elem_level);
  // Nodes interior to coarse elements are level 1; nodes on the fine/coarse
  // interface are level 2.
  int n1 = 0, n2 = 0;
  for (level_t l : nl) (l == 1 ? n1 : n2)++;
  EXPECT_GT(n1, 0);
  EXPECT_GT(n2, 0);
}

} // namespace
} // namespace ltswave::core

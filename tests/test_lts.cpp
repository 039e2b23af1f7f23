// LTS-Newmark tests — the heart of the reproduction, run on the production
// engine (runtime::ThreadedLtsSolver) on one rank, i.e. the serial-lts
// backend's solver:
//  * single level == global Newmark exactly,
//  * production engine == reference transcription of Algorithm 1 (to 1e-10)
//    across level counts, physics, and orders,
//  * convergence of LTS to the fine-dt Newmark solution,
//  * long-run energy conservation,
//  * work counters matching sum_k p_k |E(k)| and the Eq. 9 model.

#include <gtest/gtest.h>

#include <cmath>

#include "core/energy.hpp"
#include "mesh/generators.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::core {
namespace {

struct Rig {
  mesh::HexMesh mesh;
  std::unique_ptr<sem::SemSpace> space;
  std::unique_ptr<sem::WaveOperator> op;
  LevelAssignment levels;
  LtsStructure structure;
  partition::Partition one_rank; ///< every element on rank 0
  std::size_t ndof = 0;

  Rig(mesh::HexMesh m, int order, bool elastic, real_t courant = 0.08)
      : mesh(std::move(m)) {
    space = std::make_unique<sem::SemSpace>(mesh, order);
    if (elastic)
      op = std::make_unique<sem::ElasticOperator>(*space);
    else
      op = std::make_unique<sem::AcousticOperator>(*space);
    levels = assign_levels(mesh, courant);
    structure = build_lts_structure(*space, levels);
    ndof = static_cast<std::size_t>(space->num_global_nodes()) * static_cast<std::size_t>(op->ncomp());
    one_rank.num_parts = 1;
    one_rank.part.assign(static_cast<std::size_t>(space->num_elems()), 0);
  }

  /// The production engine on one rank, over `lv` (default: the rig's own).
  [[nodiscard]] std::unique_ptr<runtime::ThreadedLtsSolver> lts(
      const LevelAssignment* lv = nullptr) const {
    return std::make_unique<runtime::ThreadedLtsSolver>(*op, lv ? *lv : levels, structure,
                                                        one_rank);
  }

  [[nodiscard]] std::vector<real_t> smooth_initial() const {
    std::vector<real_t> u0(ndof);
    const int nc = op->ncomp();
    for (gindex_t g = 0; g < space->num_global_nodes(); ++g) {
      const auto x = space->node_coord(g);
      const real_t base = std::cos(M_PI * x[0]) * std::cos(M_PI * x[1]) * std::cos(M_PI * x[2]);
      for (int c = 0; c < nc; ++c)
        u0[static_cast<std::size_t>(g) * static_cast<std::size_t>(nc) + static_cast<std::size_t>(c)] =
            base * (1.0 + 0.3 * c);
    }
    return u0;
  }
};

real_t max_abs_diff(std::span<const real_t> a, std::span<const real_t> b) {
  real_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]));
  return d;
}

real_t max_abs(std::span<const real_t> a) {
  real_t d = 0;
  for (real_t v : a) d = std::max(d, std::abs(v));
  return d;
}

TEST(Lts, SingleLevelMatchesNewmarkExactly) {
  Rig s(mesh::make_uniform_box(3, 3, 3), 4, /*elastic=*/false);
  ASSERT_EQ(s.levels.num_levels, 1);

  const auto lts = s.lts();
  NewmarkSolver newmark(*s.op, s.levels.dt);
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);
  lts->set_state(u0, v0);
  newmark.set_state(u0, v0);
  for (int step = 0; step < 20; ++step) {
    lts->run_cycles(1);
    newmark.step();
  }
  EXPECT_LT(max_abs_diff(lts->u(), newmark.u()), 1e-13);
}

struct EquivCase {
  const char* name;
  int strip_n;
  real_t fine_frac;
  real_t squeeze;
  int order;
  bool elastic;
};

class LtsEquivalence : public testing::TestWithParam<EquivCase> {};

TEST_P(LtsEquivalence, ProductionMatchesReference) {
  const auto& c = GetParam();
  Rig s(mesh::make_strip_mesh(c.strip_n, c.fine_frac, c.squeeze), c.order, c.elastic);
  ASSERT_GE(s.levels.num_levels, 2) << "case must exercise multiple levels";

  const auto prod = s.lts();
  LtsNewmarkReference ref(*s.op, s.levels, s.structure);
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);
  prod->set_state(u0, v0);
  ref.set_state(u0, v0);

  for (int step = 0; step < 10; ++step) {
    prod->run_cycles(1);
    ref.step();
    const real_t scale = std::max(max_abs(ref.u()), real_t(1.0));
    ASSERT_LT(max_abs_diff(prod->u(), ref.u()), 1e-10 * scale) << "step " << step;
    ASSERT_LT(max_abs_diff(prod->v_half(), ref.v_half()), 1e-9 * scale) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LtsEquivalence,
    testing::Values(EquivCase{"TwoLevelAcoustic", 12, 0.5, 2.0, 3, false},
                    EquivCase{"ThreeLevelAcoustic", 16, 0.3, 4.0, 3, false},
                    EquivCase{"FourLevelAcoustic", 24, 0.25, 8.0, 2, false},
                    EquivCase{"TwoLevelElastic", 10, 0.5, 2.0, 3, true},
                    EquivCase{"ThreeLevelElastic", 12, 0.3, 4.0, 2, true}),
    [](const testing::TestParamInfo<EquivCase>& info) { return info.param.name; });

TEST(Lts, ThreeDimensionalMultiLevelMatchesReference) {
  // A genuinely 3D layout with an embedded fine region (not just a strip).
  Rig s(mesh::make_embedding_mesh({.n = 6, .squeeze = 4.0, .radius = 0.45,
                                     .center = {0.5, 0.5, 0.5}, .mat = {}}),
          3, /*elastic=*/false);
  ASSERT_GE(s.levels.num_levels, 2);

  const auto prod = s.lts();
  LtsNewmarkReference ref(*s.op, s.levels, s.structure);
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);
  prod->set_state(u0, v0);
  ref.set_state(u0, v0);
  prod->run_cycles(5);
  for (int step = 0; step < 5; ++step) ref.step();
  const real_t scale = std::max(max_abs(ref.u()), real_t(1.0));
  EXPECT_LT(max_abs_diff(prod->u(), ref.u()), 1e-9 * scale);
}

TEST(Lts, ConvergesToFineNewmarkSolution) {
  // LTS at Delta-t vs Newmark at the fine step: both approximate the same
  // semi-discrete system; the difference must shrink at second order as the
  // mesh-wide step is refined.
  const auto base = mesh::make_strip_mesh(16, 0.3, 4.0);
  Rig s(mesh::HexMesh(base), 3, /*elastic=*/false);
  ASSERT_GE(s.levels.num_levels, 2);
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);

  auto run = [&](real_t dt_scale) {
    LevelAssignment lv = s.levels;
    lv.dt *= dt_scale;
    const auto lts = s.lts(&lv);
    lts->set_state(u0, v0);
    // March to a fixed physical time.
    const real_t t_end = s.levels.dt * 8;
    while (lts->time() < t_end - 1e-12) lts->run_cycles(1);
    // Fine-step Newmark reference at a much smaller step.
    NewmarkSolver fine(*s.op, lv.dt / 64);
    fine.set_state(u0, v0);
    while (fine.time() < t_end - 1e-12) fine.step();
    return max_abs_diff(lts->u(), fine.u());
  };

  const real_t e1 = run(1.0);
  const real_t e2 = run(0.5);
  EXPECT_LT(e2, e1 * 0.35) << "expected ~4x error reduction, e1=" << e1 << " e2=" << e2;
}

TEST(Lts, EnergyConservedOverLongRun) {
  Rig s(mesh::make_strip_mesh(16, 0.3, 4.0), 3, /*elastic=*/false);
  ASSERT_GE(s.levels.num_levels, 2);
  const auto lts = s.lts();
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);
  lts->set_state(u0, v0);

  // LTS-Newmark conserves a modified discrete energy (paper Sec. II-B citing
  // [5]/[15]); the plain staggered energy therefore *fluctuates* within an
  // O(dt^2) band but must not drift over long runs.
  std::vector<real_t> energies;
  std::vector<real_t> u_prev;
  for (int step = 0; step < 400; ++step) {
    u_prev.assign(lts->u().begin(), lts->u().end());
    lts->run_cycles(1);
    energies.push_back(staggered_energy(*s.op, u_prev, lts->u(), lts->v_half()));
    ASSERT_GT(energies.back(), 0);
  }
  const real_t e0 = energies.front();
  for (std::size_t i = 0; i < energies.size(); ++i)
    ASSERT_NEAR(energies[i], e0, 0.02 * e0) << "bounded fluctuation violated at step " << i;
  // No systematic drift: early-vs-late window means agree tightly.
  auto mean = [&](std::size_t lo, std::size_t hi) {
    real_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += energies[i];
    return acc / static_cast<real_t>(hi - lo);
  };
  EXPECT_NEAR(mean(energies.size() - 20, energies.size()), mean(0, 20), 2e-3 * e0);
}

TEST(Lts, WorkCountersMatchStructure) {
  Rig s(mesh::make_strip_mesh(24, 0.25, 8.0), 2, /*elastic=*/false);
  ASSERT_GE(s.levels.num_levels, 3);
  const auto lts = s.lts();
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);
  lts->set_state(u0, v0);
  EXPECT_EQ(lts->element_applies(), 0); // set_state's initial apply is not cycle work
  const int cycles = 7;
  for (int i = 0; i < cycles; ++i) lts->run_cycles(1);
  const std::int64_t per_cycle = lts->element_applies() / cycles;
  EXPECT_EQ(per_cycle, s.structure.applies_per_cycle());
  // Halo overhead is bounded: actual <= 2x the ideal model for this mesh.
  EXPECT_GE(per_cycle, model_applies_per_cycle(s.levels));
  EXPECT_LE(per_cycle, 2 * model_applies_per_cycle(s.levels));

  // Per-level work: level k evaluated p_k times per cycle, each over the
  // plan group holding all of E(k).
  const auto report = lts->run_report();
  for (level_t k = 1; k <= s.levels.num_levels; ++k) {
    const auto* eval = report.find_phase("eval.L" + std::to_string(k));
    ASSERT_NE(eval, nullptr) << "level " << k;
    EXPECT_EQ(eval->count, static_cast<std::int64_t>(cycles) * level_rate(k)) << "level " << k;
    std::int64_t elems = 0;
    const auto range = lts->rank_level_blocks(0, k);
    for (index_t b = range.first; b < range.last; ++b) elems += lts->plan().block_fill(b);
    EXPECT_EQ(elems, static_cast<std::int64_t>(
                         s.structure.eval_elems[static_cast<std::size_t>(k - 1)].size()))
        << "level " << k;
  }
}

TEST(Lts, SourceRunMatchesFineNewmark) {
  // With a Ricker point source in the fine region, LTS must track the
  // fine-step Newmark solution closely.
  const auto m = mesh::make_strip_mesh(12, 0.4, 4.0);
  Rig s(mesh::HexMesh(m), 3, /*elastic=*/false);
  ASSERT_GE(s.levels.num_levels, 2);

  const auto bb = s.mesh.bounding_box();
  const auto src = sem::PointSource::at(*s.space, {bb[0] + 0.02 * (bb[3] - bb[0]),
                                                   (bb[1] + bb[4]) / 2, (bb[2] + bb[5]) / 2},
                                        /*f0=*/0.5 / s.levels.dt / 40, {1, 0, 0}, 10.0);

  const std::vector<real_t> zero(s.ndof, 0.0);
  const real_t t_end = s.levels.dt * 30;

  NewmarkSolver fine(*s.op, s.levels.dt / 64);
  fine.add_source(src);
  fine.set_state(zero, zero);
  while (fine.time() < t_end - 1e-12) fine.step();
  const real_t scale = max_abs(fine.u());
  ASSERT_GT(scale, 0);

  auto lts_error = [&](real_t dt_scale) {
    LevelAssignment lv = s.levels;
    lv.dt *= dt_scale;
    const auto lts = s.lts(&lv);
    lts->add_source(src);
    lts->set_state(zero, zero);
    while (lts->time() < t_end - 1e-12) lts->run_cycles(1);
    return max_abs_diff(lts->u(), fine.u());
  };

  const real_t e1 = lts_error(1.0);
  const real_t e2 = lts_error(0.5);
  EXPECT_LT(e1, 0.15 * scale);
  // Error towards the fine solution shrinks strongly with the cycle length.
  EXPECT_LT(e2, 0.45 * e1) << "e1=" << e1 << " e2=" << e2;
}

TEST(Lts, StableOverManyCycles) {
  // Stability at the assigned levels: no blow-up over a long run on a
  // 4-level mesh.
  Rig s(mesh::make_strip_mesh(32, 0.25, 8.0), 2, /*elastic=*/false);
  ASSERT_GE(s.levels.num_levels, 3);
  const auto lts = s.lts();
  const auto u0 = s.smooth_initial();
  const std::vector<real_t> v0(s.ndof, 0.0);
  lts->set_state(u0, v0);
  const real_t initial = max_abs(u0);
  lts->run_cycles(1000);
  EXPECT_LT(max_abs(lts->u()), 10 * initial);
}

} // namespace
} // namespace ltswave::core

// Kernel-engine cross-validation: the compile-time order-specialized kernels
// (KernelMode::Auto) must reproduce the runtime-n1 generic fallback
// (KernelMode::Generic) to near machine precision for every supported order,
// physics, and masking path — including the branch-free LevelMask gather
// against the per-node-branch legacy gather — and the element-block batched
// path (BatchPlan + block kernels, the production default) must reproduce the
// single-element path to the same 1e-12 bound for every order and physics,
// masked and unmasked, with ragged tail blocks and both the full-plane and
// compact-affine metric forms exercised. Plus an energy-conservation smoke
// test driving the one-rank LTS engine through the new production paths.
//
// SIMD backend coverage: the block kernels run on the simd::Vec lane layer
// while the single-element kernels stay scalar, so every batched-vs-single
// comparison here is a vector-vs-scalar cross-check at <= 1e-12. The suite is
// built and re-run per backend (native AVX-512/AVX2, the baseline-ISA CI
// build, and the simd-scalar CI job's forced-scalar build), which sweeps
// every width the dispatch in common/simd.hpp can select.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "common/rng.hpp"
#include "core/energy.hpp"
#include "core/lts_levels.hpp"
#include "mesh/generators.hpp"
#include "runtime/threaded_lts.hpp"
#include "sem/batch_plan.hpp"
#include "sem/wave_operator.hpp"

namespace ltswave::sem {
namespace {

std::vector<index_t> all_elems(const SemSpace& s) {
  std::vector<index_t> v(static_cast<std::size_t>(s.num_elems()));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<index_t>(i);
  return v;
}

std::vector<real_t> random_field(std::size_t n, Rng& rng) {
  std::vector<real_t> u(n);
  for (auto& x : u) x = rng.uniform_real(-1, 1);
  return u;
}

real_t max_rel_diff(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  real_t scale = 0;
  for (real_t v : a) scale = std::max(scale, std::abs(v));
  scale = std::max(scale, real_t{1e-30});
  real_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]) / scale);
  return d;
}

/// Warped two-material test mesh: exercises non-diagonal Jacobians and
/// per-element moduli.
mesh::HexMesh make_test_mesh() {
  mesh::Material mat;
  mat.vp = 1.9;
  mat.vs = 1.0;
  mat.rho = 1.2;
  auto m = mesh::make_uniform_box(2, 2, 2, {1.0, 0.9, 1.1}, mat);
  warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
    x += 0.05 * std::sin(2 * y + z);
    y += 0.04 * std::cos(3 * x);
    z += 0.03 * std::sin(x + 2 * y);
  });
  return m;
}

/// Synthetic two-level split (elements left of the median are level 2) used
/// for the masked-apply validation.
core::LtsStructure two_level_structure(const mesh::HexMesh& m, const SemSpace& space) {
  std::vector<level_t> elem_level(static_cast<std::size_t>(m.num_elems()), 1);
  for (index_t e = 0; e < m.num_elems(); ++e)
    if (m.centroid(e)[0] < 0.5) elem_level[static_cast<std::size_t>(e)] = 2;
  core::LevelAssignment levels;
  levels.num_levels = 2;
  levels.dt = 1e-3;
  levels.elem_level = elem_level;
  levels.level_counts.assign(2, 0);
  for (level_t l : elem_level) ++levels.level_counts[static_cast<std::size_t>(l - 1)];
  return core::build_lts_structure(space, levels);
}

template <class Op>
void cross_validate_order(int order, bool elastic) {
  const auto m = make_test_mesh();
  SemSpace space(m, order);
  Op specialized(space, KernelMode::Auto);
  Op generic(space, KernelMode::Generic);
  const int nc = specialized.ncomp();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(nc);
  const auto elems = all_elems(space);
  auto ws_s = specialized.make_workspace();
  auto ws_g = generic.make_workspace();

  Rng rng(1000 + order + (elastic ? 100 : 0));
  const auto u = random_field(ndof, rng);

  // Unmasked apply.
  std::vector<real_t> out_s(ndof, 0.0), out_g(ndof, 0.0);
  specialized.apply_add(elems, u.data(), out_s.data(), ws_s);
  generic.apply_add(elems, u.data(), out_g.data(), ws_g);
  EXPECT_LT(max_rel_diff(out_s, out_g), 1e-12) << "unmasked, order " << order;

  // Masked applies: legacy node-level path and branch-free LevelMask path,
  // both against the generic node-level path, per level.
  const auto st = two_level_structure(m, space);
  for (level_t k = 1; k <= 2; ++k) {
    const auto& ek = st.eval_elems[static_cast<std::size_t>(k - 1)];
    std::vector<real_t> m_legacy(ndof, 0.0), m_plan(ndof, 0.0), m_gen(ndof, 0.0);
    specialized.apply_add_level(ek, st.node_level.data(), k, u.data(), m_legacy.data(), ws_s);
    specialized.apply_add_level(ek, st.mask, k, u.data(), m_plan.data(), ws_s);
    generic.apply_add_level(ek, st.node_level.data(), k, u.data(), m_gen.data(), ws_g);
    EXPECT_LT(max_rel_diff(m_legacy, m_gen), 1e-12) << "masked legacy, order " << order;
    EXPECT_LT(max_rel_diff(m_plan, m_gen), 1e-12) << "masked plan, order " << order;
  }
}

TEST(Kernels, AcousticSpecializedMatchesGenericOrders1To8) {
  for (int order = 1; order <= 8; ++order) cross_validate_order<AcousticOperator>(order, false);
}

TEST(Kernels, ElasticSpecializedMatchesGenericOrders1To8) {
  for (int order = 1; order <= 8; ++order) cross_validate_order<ElasticOperator>(order, true);
}

/// Batched-vs-single-element sweep on one mesh: full apply through the
/// operator's full-mesh plan and level-restricted applies through a
/// solver-style level plan, all compared against the single-element kernels
/// at 1e-12. The mesh has 36 elements, so every block width (8/16/32) gets a
/// ragged tail block; `expect_affine` asserts which metric form the plan
/// chose (compact separable constants on parallelepiped meshes, full planes
/// on warped ones), guaranteeing both kernel variants are exercised.
template <class Op>
void batched_matches_single(const mesh::HexMesh& m, int order, bool expect_affine) {
  SemSpace space(m, order);
  Op op(space, KernelMode::Auto);
  const int nc = op.ncomp();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(nc);
  const auto elems = all_elems(space);
  auto ws = op.make_workspace();

  Rng rng(5000 + order + 10 * nc + (expect_affine ? 1 : 0));
  const auto u = random_field(ndof, rng);

  // Full apply: operator plan blocks vs single-element.
  const BatchPlan& fp = op.full_plan();
  bool ragged = false, affine = false, full_metric = false;
  for (index_t b = 0; b < fp.num_blocks(); ++b) {
    ragged = ragged || fp.block_fill(b) < fp.width();
    (fp.block_affine(b) ? affine : full_metric) = true;
  }
  EXPECT_TRUE(ragged) << "sweep must cover a ragged tail block";
  EXPECT_EQ(affine, expect_affine) << "order " << order;
  EXPECT_EQ(full_metric, !expect_affine) << "order " << order;

  std::vector<real_t> out_blk(ndof, 0.0), out_single(ndof, 0.0);
  op.apply_add_blocks(fp, 0, fp.num_blocks(), u.data(), out_blk.data(), ws);
  op.apply_add(elems, u.data(), out_single.data(), ws);
  EXPECT_LT(max_rel_diff(out_blk, out_single), 1e-12) << "full, order " << order;

  // Level-restricted applies: a solver-style level plan (homogeneous-first
  // groups, per-block masks) vs the single-element node-level gather.
  const auto st = two_level_structure(m, space);
  std::vector<BatchPlan::Group> groups;
  for (level_t k = 1; k <= 2; ++k) {
    BatchPlan::Group g;
    g.elems = order_homogeneous_first(space, st.eval_elems[static_cast<std::size_t>(k - 1)], k,
                                      st.node_level);
    g.level = k;
    g.node_level = st.node_level;
    groups.push_back(std::move(g));
  }
  const BatchPlan lp(space, nc, std::move(groups));
  for (level_t k = 1; k <= 2; ++k) {
    const auto range = lp.group_blocks(static_cast<std::size_t>(k - 1));
    std::vector<real_t> m_blk(ndof, 0.0), m_single(ndof, 0.0);
    op.apply_add_blocks(lp, range.first, range.last, u.data(), m_blk.data(), ws);
    op.apply_add_level(st.eval_elems[static_cast<std::size_t>(k - 1)], st.node_level.data(), k,
                       u.data(), m_single.data(), ws);
    EXPECT_LT(max_rel_diff(m_blk, m_single), 1e-12)
        << "masked level " << k << ", order " << order;
  }
}

/// 36-element warped two-material mesh (non-affine geometry: full metric
/// planes) — a full block plus a ragged tail at every block width.
mesh::HexMesh make_sweep_mesh(bool warped) {
  mesh::Material mat;
  mat.vp = 1.9;
  mat.vs = 1.0;
  mat.rho = 1.2;
  auto m = mesh::make_uniform_box(4, 3, 3, {1.2, 0.9, 1.1}, mat);
  if (warped)
    warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
      x += 0.04 * std::sin(2 * y + z);
      y += 0.03 * std::cos(3 * x);
      z += 0.03 * std::sin(x + 2 * y);
    });
  return m;
}

TEST(Kernels, BatchedMatchesSingleElementOrders1To8) {
  for (int order = 1; order <= 8; ++order) {
    batched_matches_single<AcousticOperator>(make_sweep_mesh(true), order, false);
    batched_matches_single<ElasticOperator>(make_sweep_mesh(true), order, false);
  }
}

TEST(Kernels, BatchedAffineFastPathMatchesSingleElement) {
  // Parallelepiped mesh: every block takes the compact separable metric.
  for (int order : {1, 2, 4, 6}) {
    batched_matches_single<AcousticOperator>(make_sweep_mesh(false), order, true);
    batched_matches_single<ElasticOperator>(make_sweep_mesh(false), order, true);
  }
}

TEST(Kernels, BatchedGenericModeMatchesSpecialized) {
  // KernelMode::Generic routes the batched path through the runtime-(n1, bw)
  // block kernels; order 9 additionally has no specialization at all.
  for (int order : {3, 9}) {
    const auto m = make_sweep_mesh(true);
    SemSpace space(m, order);
    AcousticOperator a(space, KernelMode::Auto);
    AcousticOperator g(space, KernelMode::Generic);
    const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
    Rng rng(77 + order);
    const auto u = random_field(n, rng);
    std::vector<real_t> oa(n, 0.0), og(n, 0.0);
    auto wa = a.make_workspace();
    auto wg = g.make_workspace();
    a.apply_add_blocks(a.full_plan(), 0, a.full_plan().num_blocks(), u.data(), oa.data(), wa);
    g.apply_add_blocks(g.full_plan(), 0, g.full_plan().num_blocks(), u.data(), og.data(), wg);
    EXPECT_LT(max_rel_diff(oa, og), 1e-12) << "order " << order;
  }
}

TEST(Kernels, ConflictFreeBlocksShareNoMeshRow) {
  // The invariant the vectorized scatter relies on: within one conflict-free
  // block, the real lanes touch pairwise-disjoint global node sets, so the
  // per-row scatter_add never lands two lanes on the same mesh row.
  for (const bool warped : {false, true}) {
    const auto m = make_sweep_mesh(warped);
    SemSpace space(m, 3);
    BatchPlan::Group g;
    g.elems = all_elems(space);
    const BatchPlan plan(space, 1, {g});
    const int npts = space.nodes_per_elem();
    index_t conflict_free = 0;
    for (index_t b = 0; b < plan.num_blocks(); ++b) {
      if (!plan.block_conflict_free(b)) continue;
      ++conflict_free;
      std::set<gindex_t> seen;
      const index_t* be = plan.block_elems(b);
      for (int l = 0; l < plan.block_fill(b); ++l)
        for (int q = 0; q < npts; ++q) {
          const gindex_t node = space.elem_nodes(be[l])[q];
          EXPECT_TRUE(seen.insert(node).second)
              << "block " << b << " lane " << l << " shares node " << node;
        }
    }
    // A shared-node mesh cannot be binned without splits, so the default
    // coloring must actually have produced conflict-free blocks.
    EXPECT_EQ(conflict_free, plan.num_blocks());
    EXPECT_GT(conflict_free, 0);
  }
}

TEST(Kernels, ConflictFreeBinningPermutesButCoversTheGroup) {
  // Binning may reorder and split, but never drops or duplicates an element,
  // and it is deterministic: two constructions give the identical layout.
  const auto m = make_sweep_mesh(true);
  SemSpace space(m, 4);
  const auto st = two_level_structure(m, space);
  auto make_groups = [&] {
    std::vector<BatchPlan::Group> groups;
    for (level_t k = 1; k <= 2; ++k) {
      BatchPlan::Group g;
      g.elems = order_homogeneous_first(space, st.eval_elems[static_cast<std::size_t>(k - 1)],
                                        k, st.node_level);
      g.level = k;
      g.node_level = st.node_level;
      groups.push_back(std::move(g));
    }
    return groups;
  };
  const BatchPlan colored(space, 1, make_groups(), BatchPlan::Fill::Now,
                          BatchPlan::Coloring::ConflictFree);
  const BatchPlan strided(space, 1, make_groups(), BatchPlan::Fill::Now,
                          BatchPlan::Coloring::None);
  const BatchPlan again(space, 1, make_groups(), BatchPlan::Fill::Now,
                        BatchPlan::Coloring::ConflictFree);

  ASSERT_EQ(colored.num_groups(), strided.num_groups());
  for (std::size_t gi = 0; gi < colored.num_groups(); ++gi) {
    auto elems_of = [gi](const BatchPlan& p) {
      std::vector<index_t> v;
      const auto range = p.group_blocks(gi);
      for (index_t b = range.first; b < range.last; ++b) {
        const index_t* be = p.block_elems(b);
        v.insert(v.end(), be, be + p.block_fill(b));
      }
      return v;
    };
    std::vector<index_t> a = elems_of(colored), b = elems_of(strided);
    EXPECT_EQ(a, elems_of(again)) << "group " << gi << ": binning not deterministic";
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << "group " << gi << ": binning changed the covered element set";
  }
  // Coloring::None keeps the legacy dense layout and reports no guarantee.
  for (index_t b = 0; b < strided.num_blocks(); ++b)
    EXPECT_FALSE(strided.block_conflict_free(b));
}

TEST(Kernels, ExoticOrderFallsBackToGeneric) {
  // Order 9 (n1 = 10) has no specialization: Auto must resolve to the same
  // generic kernel, so the two modes agree bit-for-bit.
  const auto m = mesh::make_uniform_box(1, 1, 1);
  SemSpace space(m, 9);
  AcousticOperator a(space, KernelMode::Auto);
  AcousticOperator g(space, KernelMode::Generic);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  Rng rng(7);
  const auto u = random_field(n, rng);
  std::vector<real_t> oa(n, 0.0), og(n, 0.0);
  auto wa = a.make_workspace();
  auto wg = g.make_workspace();
  a.apply_add(all_elems(space), u.data(), oa.data(), wa);
  g.apply_add(all_elems(space), u.data(), og.data(), wg);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(oa[i], og[i]);
}

TEST(Kernels, LevelMaskClassifiesElements) {
  const auto m = make_test_mesh();
  SemSpace space(m, 3);
  const auto st = two_level_structure(m, space);
  ASSERT_FALSE(st.mask.empty());
  const int npts = space.nodes_per_elem();
  int homogeneous = 0, mixed = 0;
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const level_t h = st.mask.homogeneous(e);
    if (h != 0) {
      ++homogeneous;
      for (int q = 0; q < npts; ++q)
        EXPECT_EQ(st.node_level[static_cast<std::size_t>(space.elem_nodes(e)[q])], h);
    } else {
      ++mixed;
      for (level_t k = 1; k <= 2; ++k) {
        const real_t* mk = st.mask.mask(e, k);
        if (mk == nullptr) continue;
        for (int q = 0; q < npts; ++q) {
          const bool is_k =
              st.node_level[static_cast<std::size_t>(space.elem_nodes(e)[q])] == k;
          EXPECT_EQ(mk[q], is_k ? 1.0 : 0.0);
        }
      }
    }
  }
  // The synthetic split has both bulk (level-2 left half interiors would be
  // mixed only at the interface) and interface elements.
  EXPECT_GT(homogeneous, 0);
  EXPECT_GT(mixed, 0);
}

TEST(Kernels, EnergyConservedThroughSolverOnSpecializedPaths) {
  // LTS-Newmark smoke test on the production kernel paths (specialized
  // dispatch + LevelMask gather): the staggered energy must stay in a tight
  // band over a few hundred cycles — any kernel/mask inconsistency between
  // levels destroys this immediately.
  const auto m = mesh::make_strip_mesh(16, 0.3, 4.0);
  SemSpace space(m, 4);
  AcousticOperator op(space);
  const auto levels = core::assign_levels(m, 0.05);
  ASSERT_GE(levels.num_levels, 2);
  const auto st = core::build_lts_structure(space, levels);
  ASSERT_FALSE(st.mask.empty());
  const partition::Partition one_rank{
      1, std::vector<rank_t>(static_cast<std::size_t>(m.num_elems()), 0)};
  runtime::ThreadedLtsSolver solver(op, levels, st, one_rank); // the serial-lts engine

  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u0(n);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    u0[static_cast<std::size_t>(g)] =
        std::cos(M_PI * x[0]) * std::cos(M_PI * x[1]) * std::cos(M_PI * x[2]);
  }
  solver.set_state(u0, std::vector<real_t>(n, 0.0));

  std::vector<real_t> energies;
  std::vector<real_t> u_prev;
  for (int step = 0; step < 200; ++step) {
    u_prev.assign(solver.u().begin(), solver.u().end());
    solver.run_cycles(1);
    energies.push_back(core::staggered_energy(op, u_prev, solver.u(), solver.v_half()));
    ASSERT_GT(energies.back(), 0);
  }
  // Bounded O(dt^2) fluctuation, and no systematic drift between the early
  // and late windows.
  const real_t e0 = energies.front();
  for (std::size_t i = 0; i < energies.size(); ++i)
    ASSERT_NEAR(energies[i], e0, 0.05 * e0) << "energy band violated at step " << i;
  auto mean = [&](std::size_t lo, std::size_t hi) {
    real_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += energies[i];
    return acc / static_cast<real_t>(hi - lo);
  };
  EXPECT_NEAR(mean(energies.size() - 20, energies.size()), mean(0, 20), 2e-3 * e0);
}

} // namespace
} // namespace ltswave::sem

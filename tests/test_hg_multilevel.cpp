// Multilevel hypergraph partitioner tests — the one engine behind every
// strategy. On the LTS hypergraph: connectivity cut (Eq. 20) quality, balance
// with the final_imbal knob, and agreement between the hypergraph cut size and
// the independently computed per-cycle communication volume, and lambda-1 ==
// edge cut on a dual graph converted to 2-pin nets. The graph strategies'
// cases (2-pin grids) are in test_multilevel.cpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "graph/builders.hpp"
#include "mesh/generators.hpp"
#include "partition/hg_multilevel.hpp"
#include "partition/partition.hpp"

namespace ltswave::partition {
namespace {

/// Level assignment straight from the CFL ratios (avoids the SEM stack).
std::pair<std::vector<level_t>, level_t> cfl_levels(const mesh::HexMesh& m) {
  real_t dtmax = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) dtmax = std::max(dtmax, m.cfl_dt(e, 0.3));
  std::vector<level_t> lv(static_cast<std::size_t>(m.num_elems()));
  level_t nl = 1;
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const real_t ratio = dtmax / m.cfl_dt(e, 0.3);
    const level_t k =
        ratio <= 1 + 1e-12 ? 1 : 1 + static_cast<level_t>(std::ceil(std::log2(ratio) - 1e-12));
    lv[static_cast<std::size_t>(e)] = k;
    nl = std::max(nl, k);
  }
  return {lv, nl};
}

TEST(HgBisect, BalancedOnUniformMesh) {
  const auto m = mesh::make_uniform_box(8, 8, 4);
  std::vector<level_t> lv(static_cast<std::size_t>(m.num_elems()), 1);
  const auto h = graph::build_lts_hypergraph(m, lv, 1);
  MultilevelConfig cfg;
  const auto side = hg_multilevel_bisect(h, 0.5, cfg);
  index_t n0 = 0;
  for (auto s : side) n0 += (s == 0);
  EXPECT_NEAR(n0, 128, 128 * cfg.eps + 2);
}

TEST(HgBisect, DeterministicBySeed) {
  const auto m = mesh::make_uniform_box(6, 6, 3);
  std::vector<level_t> lv(static_cast<std::size_t>(m.num_elems()), 1);
  const auto h = graph::build_lts_hypergraph(m, lv, 1);
  MultilevelConfig cfg;
  cfg.seed = 4242;
  EXPECT_EQ(hg_multilevel_bisect(h, 0.5, cfg), hg_multilevel_bisect(h, 0.5, cfg));
}

TEST(HgBisect, RejectsTargetFractionOutsideOpenInterval) {
  const auto m = mesh::make_uniform_box(2, 2, 2);
  std::vector<level_t> lv(static_cast<std::size_t>(m.num_elems()), 1);
  const auto h = graph::build_lts_hypergraph(m, lv, 1);
  MultilevelConfig cfg;
  for (const double frac0 : {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()})
    EXPECT_THROW(hg_multilevel_bisect(h, frac0, cfg), CheckFailure) << "frac0=" << frac0;
}

TEST(HgKway, TwoPinCutIsEdgeCut) {
  // On 2-pin nets lambda-1 is exactly the edge cut: the converted p-weighted
  // dual graph's connectivity cut equals the metrics' weighted edge cut for
  // arbitrary K-way assignments.
  const auto m = mesh::make_trench_mesh({.n = 8, .nz = 5, .squeeze = 4.0,
                                         .trench_halfwidth = 0.08, .depth_power = 2.0, .mat = {}});
  const auto [lv, nl] = cfl_levels(m);
  ASSERT_GE(nl, 2);
  const auto h = graph::two_pin_hypergraph(graph::build_dual_graph(m, lv));
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    const auto k = static_cast<rank_t>(2 + rng.uniform(7));
    Partition p{k, std::vector<rank_t>(static_cast<std::size_t>(m.num_elems()))};
    for (rank_t& r : p.part) r = static_cast<rank_t>(rng.uniform(static_cast<std::uint64_t>(k)));
    EXPECT_EQ(graph::hypergraph_cutsize(h, p.part), compute_metrics(m, lv, nl, p).edge_cut)
        << "seed " << seed;
  }
}

class HgKway : public testing::TestWithParam<rank_t> {};

TEST_P(HgKway, ValidBalancedAndCutMatchesCommVolume) {
  const rank_t k = GetParam();
  const auto m = mesh::make_trench_mesh({.n = 10, .nz = 6, .squeeze = 4.0,
                                         .trench_halfwidth = 0.08, .depth_power = 2.0, .mat = {}});
  const auto [lv, nl] = cfl_levels(m);

  const auto h = graph::build_lts_hypergraph(m, lv, nl);
  MultilevelConfig cfg;
  cfg.eps = 0.05;
  const auto p = hg_recursive_bisection(h, k, cfg);
  p.validate();

  // Hypergraph cut (Eq. 20 with merged costs) == independently counted
  // per-cycle MPI volume.
  const auto cut = graph::hypergraph_cutsize(h, p.part);
  const auto vol = comm_volume_per_cycle(m, lv, p);
  EXPECT_EQ(cut, vol);
}

INSTANTIATE_TEST_SUITE_P(Parts, HgKway, testing::Values(2, 4, 8));

TEST(HgKway, TighterImbalanceDoesNotWorsenBalance) {
  const auto m = mesh::make_trench_mesh({.n = 12, .nz = 8, .squeeze = 8.0,
                                         .trench_halfwidth = 0.06, .depth_power = 2.0, .mat = {}});
  const auto [lv, nl] = cfl_levels(m);
  const auto h = graph::build_lts_hypergraph(m, lv, nl);

  auto imbalance_of = [&, &lv = lv, &nl = nl](double eps) {
    MultilevelConfig cfg;
    cfg.eps = eps;
    Partition p = hg_recursive_bisection(h, 8, cfg);
    PartitionMetrics mtr = compute_metrics(m, lv, nl, p);
    return mtr.total_imbalance_pct;
  };
  const double loose = imbalance_of(0.10);
  const double tight = imbalance_of(0.01);
  EXPECT_LE(tight, loose + 3.0);
  EXPECT_LE(tight, 20.0);
}

TEST(HgKway, CutGrowsSublinearlyWithParts) {
  const auto m = mesh::make_uniform_box(8, 8, 8);
  std::vector<level_t> lv(static_cast<std::size_t>(m.num_elems()), 1);
  const auto h = graph::build_lts_hypergraph(m, lv, 1);
  MultilevelConfig cfg;
  const auto p2 = hg_recursive_bisection(h, 2, cfg);
  const auto p8 = hg_recursive_bisection(h, 8, cfg);
  const auto c2 = graph::hypergraph_cutsize(h, p2.part);
  const auto c8 = graph::hypergraph_cutsize(h, p8.part);
  EXPECT_GT(c8, c2);
  EXPECT_LT(c8, 8 * c2);
}

} // namespace
} // namespace ltswave::partition

// Multilevel partitioner tests on graphs: every graph strategy (SCOTCH,
// SCOTCH-P, MeTiS, feedback) runs its dual graph as 2-pin nets through the
// hypergraph engine, so these cases convert structured grids with
// two_pin_hypergraph and check bisection balance and cut quality,
// multi-constraint balance (Eq. 19), recursive K-way validity, per-part
// target shares, and determinism under a fixed seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/hypergraph.hpp"
#include "partition/hg_multilevel.hpp"
#include "partition/partition.hpp"

namespace ltswave::partition {
namespace {

graph::CsrGraph grid_graph(index_t nx, index_t ny) {
  std::vector<std::tuple<index_t, index_t, graph::weight_t>> edges;
  auto id = [nx](index_t i, index_t j) { return j * nx + i; };
  for (index_t j = 0; j < ny; ++j)
    for (index_t i = 0; i < nx; ++i) {
      if (i + 1 < nx) edges.emplace_back(id(i, j), id(i + 1, j), 1);
      if (j + 1 < ny) edges.emplace_back(id(i, j), id(i, j + 1), 1);
    }
  return graph::graph_from_edges(nx * ny, edges);
}

/// Edge cut of a two-sided assignment, as the 2-pin connectivity cut.
graph::weight_t side_cut(const graph::Hypergraph& h, const std::vector<std::uint8_t>& side) {
  const std::vector<rank_t> part(side.begin(), side.end());
  return graph::hypergraph_cutsize(h, part);
}

TEST(TwoPinBisect, GridIsBalancedWithSmallCut) {
  const auto h = graph::two_pin_hypergraph(grid_graph(16, 16));
  MultilevelConfig cfg;
  const auto side = hg_multilevel_bisect(h, 0.5, cfg);
  index_t n0 = 0;
  for (auto s : side) n0 += (s == 0);
  EXPECT_NEAR(n0, 128, 128 * cfg.eps + 1);
  // A straight cut of a 16x16 grid costs 16; allow some slack.
  EXPECT_LE(side_cut(h, side), 28);
}

TEST(TwoPinBisect, RespectsTargetFraction) {
  const auto h = graph::two_pin_hypergraph(grid_graph(20, 10));
  MultilevelConfig cfg;
  const auto side = hg_multilevel_bisect(h, 0.25, cfg);
  index_t n0 = 0;
  for (auto s : side) n0 += (s == 0);
  EXPECT_NEAR(n0, 50, 50 * cfg.eps + 2);
}

TEST(TwoPinBisect, DeterministicBySeed) {
  const auto h = graph::two_pin_hypergraph(grid_graph(12, 12));
  MultilevelConfig cfg;
  cfg.seed = 99;
  EXPECT_EQ(hg_multilevel_bisect(h, 0.5, cfg), hg_multilevel_bisect(h, 0.5, cfg));
}

TEST(TwoPinBisect, HonorsVertexWeights) {
  // Heavy vertices on the left column: balanced bisection puts fewer left
  // vertices on side 0.
  auto g = grid_graph(8, 8);
  std::vector<graph::weight_t> w(64, 1);
  for (index_t j = 0; j < 8; ++j) w[static_cast<std::size_t>(j * 8)] = 20;
  g.set_vertex_weights(std::move(w), 1);
  const auto h = graph::two_pin_hypergraph(g);
  MultilevelConfig cfg;
  const auto side = hg_multilevel_bisect(h, 0.5, cfg);
  graph::weight_t w0 = 0, total = 0;
  for (index_t v = 0; v < 64; ++v) {
    total += h.vwgt(v);
    if (side[static_cast<std::size_t>(v)] == 0) w0 += h.vwgt(v);
  }
  EXPECT_NEAR(static_cast<double>(w0), total / 2.0, total * (cfg.eps + 0.03));
}

TEST(TwoPinBisect, MultiConstraintBalancesBothWeights) {
  // Two interleaved classes on a grid; both must split ~50/50.
  auto g = grid_graph(16, 16);
  std::vector<graph::weight_t> w(static_cast<std::size_t>(16 * 16) * 2, 0);
  for (index_t v = 0; v < 256; ++v) w[static_cast<std::size_t>(v) * 2 + static_cast<std::size_t>(v % 2)] = 1;
  g.set_vertex_weights(std::move(w), 2);
  MultilevelConfig cfg;
  const auto side = hg_multilevel_bisect(graph::two_pin_hypergraph(g), 0.5, cfg);
  graph::weight_t c0[2] = {0, 0};
  for (index_t v = 0; v < 256; ++v)
    if (side[static_cast<std::size_t>(v)] == 0) ++c0[v % 2];
  EXPECT_NEAR(c0[0], 64, 64 * 0.15 + 2);
  EXPECT_NEAR(c0[1], 64, 64 * 0.15 + 2);
}

class TwoPinKway : public testing::TestWithParam<rank_t> {};

TEST_P(TwoPinKway, PartitionIsValidAndBalanced) {
  const rank_t k = GetParam();
  MultilevelConfig cfg;
  const auto p = hg_recursive_bisection(graph::two_pin_hypergraph(grid_graph(24, 24)), k, cfg);
  EXPECT_EQ(p.num_parts, k);
  p.validate();
  std::vector<graph::weight_t> loads(static_cast<std::size_t>(k), 0);
  for (rank_t r : p.part) ++loads[static_cast<std::size_t>(r)];
  const double avg = 576.0 / k;
  for (auto l : loads) EXPECT_NEAR(static_cast<double>(l), avg, avg * 0.25 + 2);
}

INSTANTIATE_TEST_SUITE_P(Parts, TwoPinKway, testing::Values(2, 3, 4, 7, 8, 16));

TEST(TwoPinKway, WorksOnDisconnectedGraphs) {
  // Two disjoint grids.
  std::vector<std::tuple<index_t, index_t, graph::weight_t>> edges;
  auto id = [](index_t block, index_t i, index_t j) { return block * 64 + j * 8 + i; };
  for (index_t b = 0; b < 2; ++b)
    for (index_t j = 0; j < 8; ++j)
      for (index_t i = 0; i < 8; ++i) {
        if (i + 1 < 8) edges.emplace_back(id(b, i, j), id(b, i + 1, j), 1);
        if (j + 1 < 8) edges.emplace_back(id(b, i, j), id(b, i, j + 1), 1);
      }
  MultilevelConfig cfg;
  const auto p =
      hg_recursive_bisection(graph::two_pin_hypergraph(graph::graph_from_edges(128, edges)), 4, cfg);
  p.validate();
}

TEST(TwoPinKway, RejectsMorePartsThanVertices) {
  MultilevelConfig cfg;
  EXPECT_THROW(hg_recursive_bisection(graph::two_pin_hypergraph(grid_graph(2, 2)), 8, cfg),
               CheckFailure);
}

TEST(TwoPinKway, PartShareSetsEachPartsTarget) {
  // Part r targets share[r] / sum(share) of the weight: here 1/8, 2/8, 3/8
  // and 2/8 of a 24x24 grid.
  const auto h = graph::two_pin_hypergraph(grid_graph(24, 24));
  MultilevelConfig cfg;
  const std::vector<double> share = {1, 2, 3, 2};
  const auto p = hg_recursive_bisection(h, 4, cfg, share);
  p.validate();
  std::vector<graph::weight_t> loads(4, 0);
  for (rank_t r : p.part) ++loads[static_cast<std::size_t>(r)];
  for (std::size_t r = 0; r < 4; ++r) {
    const double target = 576.0 * share[r] / 8.0;
    EXPECT_NEAR(static_cast<double>(loads[r]), target, target * 0.25 + 2) << "part " << r;
  }
  EXPECT_THROW(hg_recursive_bisection(h, 4, cfg, std::vector<double>{1, 0, 1, 1}), CheckFailure);
  EXPECT_THROW(hg_recursive_bisection(h, 4, cfg, std::vector<double>{1, 1, 1}), CheckFailure);
}

} // namespace
} // namespace ltswave::partition

#pragma once

/// \file hg_multilevel.hpp
/// Multilevel multi-constraint hypergraph bisection and K-way recursive
/// bisection — the one partition engine behind all four strategies (paper
/// Sec. III-B). The objective is the connectivity cut size (Eq. 20): on the
/// LTS hypergraph it equals the per-cycle communication volume (PaToH), and
/// on the dual graph converted to 2-pin nets (graph::two_pin_hypergraph) it
/// equals the p-weighted edge cut (SCOTCH, SCOTCH-P, MeTiS, feedback).
///
/// Pipeline per bisection: heavy-connectivity matching coarsening,
/// greedy-growing initial partitions (best of several seeded attempts), then
/// multi-constraint FM refinement with balance repair during uncoarsening.
///
/// `eps` bounds every constraint at every bisection. PaToH passes its
/// `final_imbal` unchanged, so the end-to-end imbalance compounds across the
/// log2(K) levels (the paper's Fig. 7 behaviour); the graph strategies pass
/// eps/(1 + 0.5 log2 K) so their end-to-end imbalance stays near the
/// requested one (partitioners.cpp).

#include <cstdint>

#include "common/rng.hpp"
#include "graph/hypergraph.hpp"
#include "partition/partition.hpp"

namespace ltswave::partition {

struct MultilevelConfig {
  double eps = 0.05;     ///< allowed imbalance per constraint and bisection
  index_t coarsen_to = 96; ///< stop coarsening below this vertex count
  int init_tries = 8;    ///< greedy-growing attempts for the coarsest graph
  int fm_passes = 6;     ///< max FM passes per uncoarsening level
  std::uint64_t seed = 0x5eed;
};

/// Splits the vertices into side 0 / side 1 with a fraction `frac0` (in
/// (0, 1)) of every constraint's total weight targeted at side 0. Returns
/// the side per vertex.
std::vector<std::uint8_t> hg_multilevel_bisect(const graph::Hypergraph& h, double frac0,
                                               const MultilevelConfig& cfg);

/// K-way partition by recursive bisection (arbitrary K >= 1). Part r's
/// target share of every constraint is part_share[r] / sum(part_share) when
/// `part_share` is given (K positive entries), 1/K otherwise.
Partition hg_recursive_bisection(const graph::Hypergraph& h, rank_t k,
                                 const MultilevelConfig& cfg,
                                 std::span<const double> part_share = {});

} // namespace ltswave::partition

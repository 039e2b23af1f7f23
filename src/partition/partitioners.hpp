#pragma once

/// \file partitioners.hpp
/// The four LTS partitioning strategies compared in the paper (Sec. III-B):
///
///  a) Scotch    — single-constraint graph partition; vertex weight = p-level
///                 rate, so total work per Delta-t is balanced but individual
///                 substep levels are not. The paper's baseline.
///  b) ScotchP   — every p-level partitioned separately into K parts on a
///                 single constraint, then exactly one part per level is
///                 coupled onto each processor (greedy, by boundary affinity).
///  c) Metis     — multi-constraint graph partition: one balance constraint
///                 per level (Eq. 19), edge-cut objective with p-weighted edges.
///  d) Patoh     — multi-constraint hypergraph partition minimizing the
///                 connectivity cut (Eq. 20) == per-cycle MPI volume, with the
///                 `final_imbal` balance knob.
///
/// All four run on one engine (hg_multilevel.hpp): the graph strategies hand
/// it the dual graph as 2-pin nets, whose connectivity cut is the edge cut.

#include <string>
#include <string_view>

#include "common/check.hpp"
#include "partition/hg_multilevel.hpp"

namespace ltswave::partition {

enum class Strategy {
  Scotch,  ///< single-constraint baseline
  ScotchP, ///< per-level partition + greedy coupling
  Metis,   ///< multi-constraint graph
  Patoh,   ///< multi-constraint hypergraph
};

[[nodiscard]] std::string to_string(Strategy s);

/// All strategies, iterable by benches and config parsers.
inline constexpr Strategy kAllStrategies[] = {Strategy::Scotch, Strategy::ScotchP,
                                              Strategy::Metis, Strategy::Patoh};

/// CLI spelling of a strategy ("scotch", "scotch-p", "metis", "patoh") —
/// lower-case so `partitioner=scotch-p` reads naturally in key=value args.
[[nodiscard]] std::string cli_name(Strategy s);

/// Parses a cli_name (the display to_string spellings are accepted too);
/// throws CheckFailure listing the accepted spellings.
[[nodiscard]] Strategy parse_strategy(std::string_view name);

/// How ScotchP couples the per-level parts onto ranks (paper suggests greedy
/// coupling and mentions weighted-matching refinements as future work; the
/// ablation bench compares these).
enum class CouplingMode {
  Affinity, ///< maximize dual-graph boundary weight with already-placed parts
  LoadOnly, ///< ignore adjacency; pair large parts with lightly loaded ranks
};

struct PartitionerConfig {
  Strategy strategy = Strategy::ScotchP;
  rank_t num_parts = 4;
  /// Balance slack; for Patoh this is the paper's final_imbal (0.05 / 0.01).
  double imbalance = 0.05;
  std::uint64_t seed = 0x5eed;
  CouplingMode coupling = CouplingMode::Affinity;
};

/// Partitions the mesh's elements for LTS. `elem_levels` holds the 1-based
/// LTS level of every element; `num_levels` the level count.
Partition partition_mesh(const mesh::HexMesh& m, std::span<const level_t> elem_levels,
                         level_t num_levels, const PartitionerConfig& cfg);

/// Engine settings of the graph strategies (Scotch, ScotchP, Metis and
/// refine_with_feedback) for a k-way split: the per-bisection slack
/// cfg.imbalance / (1 + 0.5 log2 k) keeps the end-to-end imbalance near
/// cfg.imbalance across the log2(k) recursion levels.
[[nodiscard]] MultilevelConfig graph_engine_config(const PartitionerConfig& cfg, rank_t k,
                                                   std::uint64_t seed);

/// ScotchP internals exposed for tests/ablation: partitions each level
/// separately and couples parts onto ranks.
Partition scotch_p_partition(const mesh::HexMesh& m, const graph::CsrGraph& dual,
                             std::span<const level_t> elem_levels, level_t num_levels,
                             const PartitionerConfig& cfg);

} // namespace ltswave::partition

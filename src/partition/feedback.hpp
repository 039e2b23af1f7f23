#pragma once

/// \file feedback.hpp
/// Measured-imbalance feedback for the LTS partitioners: the threaded runtime
/// reports per-rank busy/stall seconds and stolen-chunk counts (see
/// runtime/threaded_lts.hpp), and refine_with_feedback() folds them back into
/// the partitioning model. The paper's partitioners balance *modeled* work
/// (element counts weighted by p-level rates); real machines add per-rank
/// cost skew the model cannot see — NUMA placement, frequency differences,
/// co-tenants, cache pressure from the rank's own halo pattern. The feedback
/// pass measures that skew as busy-seconds-per-modeled-work, shrinks the
/// per-level target share of slow ranks accordingly, and repartitions,
/// closing the loop the ROADMAP calls "steal-aware partitioner feedback".

#include <span>

#include "partition/partitioners.hpp"

namespace ltswave::partition {

/// Per-rank runtime measurements, copied verbatim from the threaded solver's
/// counters (busy_seconds / stall_seconds / steal_counts).
struct FeedbackSignal {
  std::vector<double> busy_seconds;
  std::vector<double> stall_seconds;
  std::vector<std::int64_t> steal_counts;
};

/// Worst-rank stall fraction stall/(busy+stall) — the natural "is
/// repartitioning worth it?" gauge. 0 when nothing was measured.
[[nodiscard]] double max_stall_fraction(const FeedbackSignal& sig);

/// Per-rank measured cost per unit of modeled work, normalized so the
/// work-weighted mean is 1 and clamped to [1/kMaxCostFactor, kMaxCostFactor]
/// to keep one noisy measurement from exploding the weights. Ranks whose
/// busy time exceeds what their modeled load predicts come out > 1: their
/// elements are "heavier" than the model thought.
inline constexpr double kMaxCostFactor = 4.0;
[[nodiscard]] std::vector<double> rank_cost_factors(std::span<const level_t> elem_levels,
                                                    const Partition& current,
                                                    const FeedbackSignal& sig);

/// Repartitions with rank r's target share of every level proportional to
/// 1 / (its measured cost factor): the skew belongs to the rank, so a rank
/// twice as slow per unit of work receives half the elements of each level.
/// The refined partition balances measured cost per level (multi-constraint,
/// Eq. 19 weights, non-uniform part targets) while keeping the p-weighted
/// edge-cut objective. `cfg.num_parts` must equal both `current.num_parts`
/// and the signal's rank count.
[[nodiscard]] Partition refine_with_feedback(const mesh::HexMesh& m,
                                             std::span<const level_t> elem_levels,
                                             level_t num_levels, const Partition& current,
                                             const FeedbackSignal& sig,
                                             const PartitionerConfig& cfg);

} // namespace ltswave::partition

#include "partition/feedback.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "graph/builders.hpp"

namespace ltswave::partition {

double max_stall_fraction(const FeedbackSignal& sig) {
  double worst = 0.0;
  for (std::size_t r = 0; r < sig.stall_seconds.size(); ++r) {
    const double busy = r < sig.busy_seconds.size() ? sig.busy_seconds[r] : 0.0;
    const double total = busy + sig.stall_seconds[r];
    if (total > 0) worst = std::max(worst, sig.stall_seconds[r] / total);
  }
  return worst;
}

std::vector<double> rank_cost_factors(std::span<const level_t> elem_levels,
                                      const Partition& current, const FeedbackSignal& sig) {
  const auto k = static_cast<std::size_t>(current.num_parts);
  LTS_CHECK_MSG(sig.busy_seconds.size() == k,
                "feedback signal covers " << sig.busy_seconds.size() << " ranks, partition has "
                                          << k);
  LTS_CHECK(elem_levels.size() == current.part.size());

  // Modeled work per rank: element applies per LTS cycle.
  std::vector<double> work(k, 0.0);
  double total_work = 0.0;
  for (std::size_t e = 0; e < current.part.size(); ++e) {
    const auto w = static_cast<double>(level_rate(elem_levels[e]));
    work[static_cast<std::size_t>(current.part[e])] += w;
    total_work += w;
  }
  // A rank whose timer misbehaved (negative or non-finite busy time) must not
  // poison the mean or its own factor — treat it as unmeasured (neutral).
  const auto measured = [&](std::size_t r) {
    return std::isfinite(sig.busy_seconds[r]) && sig.busy_seconds[r] >= 0;
  };
  double total_busy = 0.0;
  for (std::size_t r = 0; r < k; ++r)
    if (measured(r)) total_busy += sig.busy_seconds[r];

  std::vector<double> factors(k, 1.0);
  if (total_busy <= 0 || total_work <= 0) return factors; // nothing measured
  const double mean_cost = total_busy / total_work;       // seconds per applied element
  for (std::size_t r = 0; r < k; ++r) {
    if (work[r] <= 0) continue; // empty rank: keep neutral weight
    if (!measured(r)) continue; // broken timer: keep neutral weight
    const double cost = sig.busy_seconds[r] / work[r];
    factors[r] = std::clamp(cost / mean_cost, 1.0 / kMaxCostFactor, kMaxCostFactor);
  }
  return factors;
}

Partition refine_with_feedback(const mesh::HexMesh& m, std::span<const level_t> elem_levels,
                               level_t num_levels, const Partition& current,
                               const FeedbackSignal& sig, const PartitionerConfig& cfg) {
  LTS_CHECK(elem_levels.size() == static_cast<std::size_t>(m.num_elems()));
  LTS_CHECK_MSG(cfg.num_parts == current.num_parts,
                "refine_with_feedback cannot change the rank count ("
                    << cfg.num_parts << " requested, " << current.num_parts << " measured)");
  if (cfg.num_parts <= 1) return current;

  // Each rank's target share of every level (Eq. 19 constraints) is
  // inverse to its measured cost per unit of modeled work.
  std::vector<double> share = rank_cost_factors(elem_levels, current, sig);
  for (double& s : share) s = 1.0 / s;

  auto dual = graph::build_dual_graph(m, elem_levels);
  graph::set_lts_vertex_weights(dual, elem_levels, num_levels, /*multi_constraint=*/true);
  // The seed is decorrelated from the initial partition's.
  Partition refined = hg_recursive_bisection(
      graph::two_pin_hypergraph(dual), cfg.num_parts,
      graph_engine_config(cfg, cfg.num_parts, cfg.seed ^ 0xfeedbacdull), share);
  refined.validate();
  return refined;
}

} // namespace ltswave::partition

// Feedback repartitioning tests: measured per-rank cost skew must move
// modeled work away from slow ranks, the refined partition must stay valid,
// and the mid-run executor hand-off (adopt_state_from, and the facade's
// feedback_warmup_cycles path) must keep the physics identical to an
// uninterrupted serial run.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/simulation.hpp"
#include "mesh/generators.hpp"
#include "partition/feedback.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::partition {
namespace {

struct FeedbackRig {
  mesh::HexMesh mesh;
  core::LevelAssignment levels;
  Partition part;

  explicit FeedbackRig(rank_t k) : mesh(mesh::make_strip_mesh(16, 0.3, 4.0)) {
    levels = core::assign_levels(mesh, 0.08);
    PartitionerConfig cfg;
    cfg.strategy = Strategy::ScotchP;
    cfg.num_parts = k;
    part = partition_mesh(mesh, levels.elem_level, levels.num_levels, cfg);
  }

  /// Synthetic signal: busy proportional to modeled work times `slowdown[r]`.
  [[nodiscard]] FeedbackSignal signal(std::span<const double> slowdown) const {
    FeedbackSignal sig;
    sig.busy_seconds.assign(static_cast<std::size_t>(part.num_parts), 0.0);
    sig.stall_seconds.assign(static_cast<std::size_t>(part.num_parts), 0.0);
    sig.steal_counts.assign(static_cast<std::size_t>(part.num_parts), 0);
    for (std::size_t e = 0; e < part.part.size(); ++e)
      sig.busy_seconds[static_cast<std::size_t>(part.part[e])] +=
          1e-6 * static_cast<double>(level_rate(levels.elem_level[e])) *
          slowdown[static_cast<std::size_t>(part.part[e])];
    return sig;
  }

  [[nodiscard]] std::vector<double> modeled_work(const Partition& p) const {
    std::vector<double> w(static_cast<std::size_t>(p.num_parts), 0.0);
    for (std::size_t e = 0; e < p.part.size(); ++e)
      w[static_cast<std::size_t>(p.part[e])] +=
          static_cast<double>(level_rate(levels.elem_level[e]));
    return w;
  }
};

TEST(Feedback, CostFactorsRecoverSyntheticSlowdown) {
  FeedbackRig rig(4);
  const std::vector<double> slowdown = {2.0, 1.0, 1.0, 1.0};
  const auto f = rank_cost_factors(rig.levels.elem_level, rig.part, rig.signal(slowdown));
  ASSERT_EQ(f.size(), 4u);
  // Rank 0 must come out measurably costlier than the others; factors are
  // normalized by the work-weighted mean, so they need not equal 2/1 exactly.
  EXPECT_GT(f[0], 1.2);
  for (int r = 1; r < 4; ++r) {
    EXPECT_LT(f[static_cast<std::size_t>(r)], 1.0);
    EXPECT_GT(f[0] / f[static_cast<std::size_t>(r)], 1.8);
  }
}

TEST(Feedback, NeutralSignalKeepsFactorsAtOne) {
  FeedbackRig rig(4);
  const std::vector<double> even = {1.0, 1.0, 1.0, 1.0};
  for (double f : rank_cost_factors(rig.levels.elem_level, rig.part, rig.signal(even)))
    EXPECT_NEAR(f, 1.0, 1e-9);
  // No measurements at all -> neutral.
  FeedbackSignal empty;
  empty.busy_seconds.assign(4, 0.0);
  empty.stall_seconds.assign(4, 0.0);
  empty.steal_counts.assign(4, 0);
  for (double f : rank_cost_factors(rig.levels.elem_level, rig.part, empty))
    EXPECT_EQ(f, 1.0);
}

TEST(Feedback, EmptyRankGetsNeutralFactorNotDivideByZero) {
  // Regression: a rank that owns zero elements has zero modeled work; the
  // cost model must skip it (neutral factor) instead of dividing by it.
  FeedbackRig rig(4);
  Partition p = rig.part;
  for (auto& r : p.part)
    if (r == 3) r = 0; // empty out rank 3
  FeedbackSignal sig;
  sig.busy_seconds = {2.0, 1.0, 1.0, 0.0};
  sig.stall_seconds.assign(4, 0.0);
  sig.steal_counts.assign(4, 0);
  const auto f = rank_cost_factors(rig.levels.elem_level, p, sig);
  ASSERT_EQ(f.size(), 4u);
  for (double x : f) EXPECT_TRUE(std::isfinite(x)) << x;
  EXPECT_EQ(f[3], 1.0) << "empty rank must keep the neutral weight";

  // And the full refinement path on that degenerate layout still produces a
  // valid partition on the requested rank count.
  PartitionerConfig cfg;
  cfg.strategy = Strategy::ScotchP;
  cfg.num_parts = 4;
  const auto refined =
      refine_with_feedback(rig.mesh, rig.levels.elem_level, rig.levels.num_levels, p, sig, cfg);
  refined.validate();
  EXPECT_EQ(refined.num_parts, 4);
}

TEST(Feedback, NonFiniteBusySecondsStayNeutral) {
  // Regression: a broken per-rank timer (NaN or Inf busy time) must neither
  // poison the work-weighted mean nor produce a non-finite factor.
  FeedbackRig rig(4);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    auto sig = rig.signal(std::vector<double>{1.0, 1.0, 1.0, 1.0});
    sig.busy_seconds[2] = bad;
    const auto f = rank_cost_factors(rig.levels.elem_level, rig.part, sig);
    ASSERT_EQ(f.size(), 4u);
    for (double x : f) EXPECT_TRUE(std::isfinite(x)) << "bad=" << bad;
    EXPECT_EQ(f[2], 1.0) << "unmeasured rank must keep the neutral weight (bad=" << bad << ")";
  }
}

TEST(Feedback, RefinedPartitionShiftsWorkOffSlowRank) {
  FeedbackRig rig(4);
  const std::vector<double> slowdown = {2.0, 1.0, 1.0, 1.0};
  PartitionerConfig cfg;
  cfg.strategy = Strategy::ScotchP;
  cfg.num_parts = 4;
  const auto refined = refine_with_feedback(rig.mesh, rig.levels.elem_level,
                                            rig.levels.num_levels, rig.part,
                                            rig.signal(slowdown), cfg);
  refined.validate();
  EXPECT_EQ(refined.num_parts, 4);

  // Under the measured-cost model the slow rank should carry materially less
  // modeled work than before (its elements weigh ~2x in the refined graph).
  const auto before = rig.modeled_work(rig.part);
  const auto after = rig.modeled_work(refined);
  EXPECT_LT(after[0], 0.8 * before[0])
      << "slow rank kept " << after[0] << " of " << before[0] << " modeled work";
}

TEST(Feedback, MaxStallFraction) {
  FeedbackSignal sig;
  sig.busy_seconds = {3.0, 1.0};
  sig.stall_seconds = {1.0, 3.0};
  sig.steal_counts = {0, 0};
  EXPECT_NEAR(max_stall_fraction(sig), 0.75, 1e-12);
  EXPECT_EQ(max_stall_fraction(FeedbackSignal{}), 0.0);
}

TEST(Feedback, RankCountMismatchRejected) {
  FeedbackRig rig(4);
  PartitionerConfig cfg;
  cfg.num_parts = 3; // != partition's 4
  FeedbackSignal sig;
  sig.busy_seconds.assign(4, 1.0);
  sig.stall_seconds.assign(4, 0.0);
  sig.steal_counts.assign(4, 0);
  EXPECT_THROW(refine_with_feedback(rig.mesh, rig.levels.elem_level, rig.levels.num_levels,
                                    rig.part, sig, cfg),
               CheckFailure);
}

TEST(Feedback, MidRunRepartitionKeepsParityWithSerial) {
  // The facade's feedback path: warm-up cycles on the initial partition,
  // repartition from live counters, adopt the state into a fresh executor,
  // continue — the final field and the receiver traces must still match an
  // uninterrupted serial run (sources included).
  const auto m = mesh::make_strip_mesh(12, 0.4, 4.0);

  core::SimulationConfig serial_cfg;
  serial_cfg.order = 2;
  core::WaveSimulation serial(m, serial_cfg);
  serial.add_source({0.2, 0.0, 0.0}, 2.5, {1, 0, 0});
  serial.add_receiver({0.8, 0.0, 0.0});
  const std::size_t ndof = static_cast<std::size_t>(serial.space().num_global_nodes());
  const std::vector<real_t> zero(ndof, 0.0);
  serial.set_state(zero, zero);
  serial.run(serial.dt() * 8);

  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    core::SimulationConfig cfg;
    cfg.order = 2;
    cfg.executor = "threaded/" + runtime::to_string(mode);
    cfg.num_ranks = 4;
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    cfg.feedback_warmup_cycles = 3;
    core::WaveSimulation sim(m, cfg);
    sim.add_source({0.2, 0.0, 0.0}, 2.5, {1, 0, 0});
    sim.add_receiver({0.8, 0.0, 0.0});
    sim.set_state(zero, zero);
    const auto part_before = sim.part().part;
    sim.run(sim.dt() * 8);

    real_t diff = 0;
    for (std::size_t i = 0; i < ndof; ++i)
      diff = std::max(diff, std::abs(sim.u()[i] - serial.u()[i]));
    EXPECT_LT(diff, 1e-10) << to_string(mode);

    const auto& tr = sim.receivers()[0];
    ASSERT_EQ(tr.values().size(), serial.receivers()[0].values().size()) << to_string(mode);
    for (std::size_t s = 0; s < tr.values().size(); ++s)
      EXPECT_NEAR(tr.values()[s], serial.receivers()[0].values()[s], 1e-10) << to_string(mode);
    // The run really did repartition (same rank count, usually different
    // assignment; at minimum the partition stayed valid).
    EXPECT_EQ(sim.part().num_parts, 4);
    EXPECT_EQ(sim.part().part.size(), part_before.size());
    sim.part().validate();
  }
}

} // namespace
} // namespace ltswave::partition

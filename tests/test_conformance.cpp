// Cross-backend conformance suite: every execution path must compute the
// same physics. The grid is generated, not hand-written: the executor axis
// enumerates the ExecutorFactory registry (minus the serial-LTS baseline),
// so a newly registered backend — MPI, batched-kernel, GPU — is conformance-
// tested the moment it registers. Axes: {acoustic, elastic} × orders {2, 4}
// × every registered executor × {with, without point source}, each run
// end-to-end through the declarative scenario API ("strip" scenario) and
// compared against the serial-LTS baseline:
//  * exact backends re-execute the *same scheme* — final state and receiver
//    traces must agree to roundoff (1e-10 relative L2);
//  * the non-LTS Newmark reference is a different second-order
//    discretization at Delta-t_min — agreement is physical, to a
//    discretization tolerance.
// This is the suite that would have caught the "sources are serial-only"
// gap: a backend that silently drops the source term fails the with-source
// rows at relative error ~1.

#include <gtest/gtest.h>

#include "conformance_utils.hpp"

namespace ltswave::conformance {
namespace {

/// Roundoff bar for exact-scheme backends vs the serial-LTS baseline (same
/// scheme, different reduction association).
constexpr double kRoundoffTol = 1e-10;
/// Physical bar for Newmark-vs-LTS (different second-order schemes at
/// different steps, plus an end-time mismatch below Newmark's fine dt).
constexpr double kDiscretizationTol = 0.12;

class Conformance
    : public testing::TestWithParam<std::tuple<core::Physics, int, std::string, bool>> {};

TEST_P(Conformance, AgreesWithSerialLtsBaseline) {
  const auto [physics, order, executor, with_source] = GetParam();
  Variant v;
  v.physics = physics;
  v.order = order;
  v.executor = executor;
  v.with_source = with_source;

  const auto& base = baseline(v);
  ASSERT_GE(base.num_levels, 2) << "conformance scenario must exercise real LTS";
  const auto got = run_variant(v);

  ASSERT_EQ(got.trace_values.size(), base.trace_values.size());
  for (const auto& tv : got.trace_values) ASSERT_FALSE(tv.empty());
  for (real_t x : got.u) ASSERT_TRUE(std::isfinite(x));

  if (is_exact(executor)) {
    EXPECT_EQ(got.num_levels, base.num_levels);
    EXPECT_NEAR(got.end_time, base.end_time, 1e-12);
    EXPECT_EQ(got.element_applies, base.element_applies);
    EXPECT_LT(rel_l2(got.u, base.u), kRoundoffTol) << executor;
    for (std::size_t r = 0; r < base.trace_values.size(); ++r) {
      ASSERT_EQ(got.trace_values[r].size(), base.trace_values[r].size());
      EXPECT_LT(rel_l2(got.trace_values[r], base.trace_values[r]), kRoundoffTol)
          << executor << " receiver " << r;
      for (std::size_t i = 0; i < base.trace_times[r].size(); ++i)
        EXPECT_NEAR(got.trace_times[r][i], base.trace_times[r][i], 1e-12);
    }
  } else {
    // Single-rate reference at Delta-t_min: same physics, different
    // discretization.
    EXPECT_EQ(got.num_levels, 1);
    EXPECT_GE(got.end_time, base.end_time - 1e-12);
    EXPECT_LT(rel_l2(got.u, base.u), kDiscretizationTol) << executor;
    // The reference does strictly more element applies than LTS (that is the
    // paper's whole point).
    EXPECT_GT(got.element_applies, base.element_applies);
  }
}

std::string case_name(const testing::TestParamInfo<Conformance::ParamType>& info) {
  const auto [physics, order, executor, with_source] = info.param;
  return std::string(physics == core::Physics::Acoustic ? "Acoustic" : "Elastic") + "O" +
         std::to_string(order) + alnum_case_name(executor) + (with_source ? "Src" : "NoSrc");
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Conformance,
    testing::Combine(testing::Values(core::Physics::Acoustic, core::Physics::Elastic),
                     testing::Values(2, 4), testing::ValuesIn(compared_executors()),
                     testing::Bool()),
    case_name);

TEST(ConformanceSeismic, TrenchScenarioParityAcrossExactExecutors) {
  // The registered "trench" scenario (elastic order-3 trench, Ricker source
  // under the trench, surface receivers) — every exact backend at
  // num_ranks = 4 must match the serial-LTS seismograms to <= 1e-10 relative
  // L2, straight from scenarios::get().
  const auto base_spec = scenarios::get("trench");
  const auto serial = scenarios::run(base_spec);

  real_t smax = 0;
  for (const auto& tv : serial.trace_values)
    for (real_t x : tv) smax = std::max(smax, std::abs(x));
  ASSERT_GT(smax, 0) << "source injected no energy — scenario is vacuous";

  for (const auto& name : compared_executors()) {
    if (!is_exact(name)) continue;
    auto spec = base_spec;
    spec.executor = name;
    spec.num_ranks = 4;
    spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    const auto got = scenarios::run(spec);
    ASSERT_EQ(got.trace_values.size(), serial.trace_values.size()) << name;
    for (std::size_t r = 0; r < serial.trace_values.size(); ++r) {
      ASSERT_EQ(got.trace_values[r].size(), serial.trace_values[r].size())
          << name << " receiver " << r;
      ASSERT_FALSE(got.trace_values[r].empty()) << name << " receiver " << r;
      EXPECT_LT(rel_l2(got.trace_values[r], serial.trace_values[r]), 1e-10)
          << name << " receiver " << r;
    }
  }
}

} // namespace
} // namespace ltswave::conformance

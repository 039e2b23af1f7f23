// ScenarioSpec / registry / config round-trip tests: the declarative
// scenario API (named registry, fluent builder, key=value CLI overrides,
// per-region materials) and the to_string/parse round-trips for
// SchedulerConfig and SimulationConfig — including parse_scheduler_mode
// exhaustiveness over kAllSchedulerModes and clear error messages for bad
// CLI spellings.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/executor.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::scenarios {
namespace {

TEST(ScenarioRegistry, ListsBuiltinScenarios) {
  const auto all = names();
  for (const char* expected : {"strip", "trench", "crust", "embedding", "trench-big", "layered"}) {
    EXPECT_TRUE(contains(expected)) << expected;
    EXPECT_NE(std::find(all.begin(), all.end(), expected), all.end()) << expected;
    EXPECT_FALSE(get(expected).description.empty()) << expected;
    EXPECT_EQ(get(expected).name, expected);
  }
}

TEST(ScenarioRegistry, UnknownNameFailsListingRegistry) {
  try {
    (void)get("does-not-exist");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("does-not-exist"), std::string::npos);
    EXPECT_NE(msg.find("trench"), std::string::npos) << "message should list the registry";
  }
}

TEST(ScenarioRegistry, GetReturnsIndependentCopies) {
  auto a = get("strip");
  a.order = 99;
  a.mesh.n = 1234;
  EXPECT_EQ(get("strip").order, 2);
  EXPECT_NE(get("strip").mesh.n, 1234);
}

TEST(ScenarioSpec, EqualityComparesWholeSpecs) {
  // Exercises the defaulted operator== chain down through MeshSpec,
  // MaterialRegion and mesh::Material (a missing member operator== would
  // silently delete the whole comparison).
  EXPECT_TRUE(get("layered") == get("layered"));
  auto tweaked = get("layered");
  tweaked.regions.at(0).mat.vp *= 2;
  EXPECT_FALSE(tweaked == get("layered"));
}

TEST(ScenarioRegistry, RegisterAndRejectDuplicates) {
  ScenarioSpec s = get("strip");
  s.name = "test-only-custom";
  s.description = "registered by test_scenario";
  register_scenario(s);
  EXPECT_TRUE(contains("test-only-custom"));
  EXPECT_EQ(get("test-only-custom").description, "registered by test_scenario");
  EXPECT_THROW(register_scenario(s), CheckFailure);
  ScenarioSpec unnamed;
  EXPECT_THROW(register_scenario(unnamed), CheckFailure);
}

TEST(ScenarioSpec, FluentBuilderComposes) {
  const auto spec = get("strip")
                        .with_order(4)
                        .with_physics(core::Physics::Elastic)
                        .with_courant(0.05)
                        .with_executor("threaded/barrier-all")
                        .with_ranks(2)
                        .with_cycles(3)
                        .with_mesh_resolution(16)
                        .with_source({.location = {0.1, 0, 0}, .peak_frequency = 2.0})
                        .with_receiver({.location = {0.6, 0, 0}, .component = 1});
  EXPECT_EQ(spec.order, 4);
  EXPECT_EQ(spec.physics, core::Physics::Elastic);
  EXPECT_EQ(spec.courant, 0.05);
  EXPECT_EQ(spec.executor, "threaded/barrier-all");
  EXPECT_EQ(spec.num_ranks, 2);
  EXPECT_EQ(spec.duration_cycles, 3);
  EXPECT_EQ(spec.mesh.n, 16);
  EXPECT_EQ(spec.sources.size(), 1u);
  EXPECT_EQ(spec.receivers.size(), 3u); // strip's two plus the new one
}

TEST(ScenarioSpec, MaterialRegionsPaintHeterogeneousMedia) {
  const auto spec = get("layered");
  const auto m = spec.build_mesh();
  index_t slow = 0, fast = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) {
    if (m.material(e).vp < 1.5)
      ++slow;
    else
      ++fast;
  }
  EXPECT_GT(slow, 0) << "sedimentary layer region painted no elements";
  EXPECT_GT(fast, 0) << "basement material vanished";
  // The slow layer sits on top: every element above z=0.75 is slow.
  for (index_t e = 0; e < m.num_elems(); ++e) {
    if (m.centroid(e)[2] > 0.75) {
      EXPECT_LT(m.material(e).vp, 1.5);
    }
  }
  // Material contrast alone must produce a real multi-level census.
  const auto levels = core::assign_levels(m, spec.courant, spec.max_levels);
  EXPECT_GE(levels.num_levels, 2);
}

TEST(ScenarioSpec, CliOverridesApplyAndFailLoudly) {
  auto spec = get("strip");
  const char* args[] = {"order=3",   "physics=elastic", "ranks=4",
                        "oversubscribe=warn", "courant=0.2", "cycles=4",
                        "n=10",      "executor=threaded/barrier-all"};
  spec.apply_cli(args);
  EXPECT_EQ(spec.order, 3);
  EXPECT_EQ(spec.physics, core::Physics::Elastic);
  EXPECT_EQ(spec.num_ranks, 4);
  EXPECT_EQ(spec.scheduler.oversubscribe, runtime::Oversubscribe::Warn);
  EXPECT_EQ(spec.courant, 0.2);
  EXPECT_EQ(spec.duration_cycles, 4);
  EXPECT_EQ(spec.mesh.n, 10);
  EXPECT_EQ(spec.executor, "threaded/barrier-all");

  EXPECT_THROW(spec.apply_override("ordre", "3"), CheckFailure);
  EXPECT_THROW(spec.apply_override("order", "three"), CheckFailure);
  // The retired selector keys are unknown now: `executor=` is the one
  // backend selector, and the error must teach the accepted keys.
  for (const char* retired : {"lts", "scheduler", "scheduler.mode"}) {
    try {
      spec.apply_override(retired, "on");
      FAIL() << "expected CheckFailure for " << retired;
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("executor"), std::string::npos) << retired;
    }
  }
}

TEST(ScenarioSpec, FromArgsSelectsScenarioThenOverrides) {
  const char* args[] = {"scenario=crust", "order=3"};
  const auto spec = from_args(args, "strip");
  EXPECT_EQ(spec.name, "crust");
  EXPECT_EQ(spec.order, 3);
  const auto fallback = from_args(std::span<const char* const>{}, "strip");
  EXPECT_EQ(fallback.name, "strip");
  const char* bad[] = {"scenario=unknown-place"};
  EXPECT_THROW((void)from_args(bad, "strip"), CheckFailure);
}

// ---------------------------------------------------------------------------
// Config round-trips
// ---------------------------------------------------------------------------

TEST(ConfigRoundTrip, SchedulerModeParseIsExhaustive) {
  for (const runtime::SchedulerMode m : runtime::kAllSchedulerModes) {
    const auto parsed = runtime::parse_scheduler_mode(runtime::to_string(m));
    ASSERT_TRUE(parsed.has_value()) << runtime::to_string(m);
    EXPECT_EQ(*parsed, m);
    EXPECT_EQ(runtime::parse_scheduler_mode_or_throw(runtime::to_string(m)), m);
  }
  EXPECT_FALSE(runtime::parse_scheduler_mode("level-unaware").has_value());
  try {
    (void)runtime::parse_scheduler_mode_or_throw("barrierall");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    // A bad spelling must name every accepted one.
    for (const runtime::SchedulerMode m : runtime::kAllSchedulerModes)
      EXPECT_NE(msg.find(runtime::to_string(m)), std::string::npos) << runtime::to_string(m);
  }
}

TEST(ConfigRoundTrip, SchedulerConfigToStringParsesBack) {
  for (const runtime::SchedulerMode m : runtime::kAllSchedulerModes) {
    for (const runtime::Oversubscribe o :
         {runtime::Oversubscribe::Forbid, runtime::Oversubscribe::Warn}) {
      for (const index_t chunk : {0, 64}) {
        runtime::SchedulerConfig cfg;
        cfg.mode = m;
        cfg.oversubscribe = o;
        cfg.chunk_elems = chunk;
        EXPECT_EQ(runtime::parse_scheduler_config(runtime::to_string(cfg)), cfg)
            << runtime::to_string(cfg);
      }
    }
  }
  EXPECT_THROW((void)runtime::parse_scheduler_config("mode=bogus"), CheckFailure);
  EXPECT_THROW((void)runtime::parse_scheduler_config("tempo=fast"), CheckFailure);
  EXPECT_THROW((void)runtime::parse_scheduler_config("mode"), CheckFailure);
}

TEST(ConfigRoundTrip, SimulationConfigToStringParsesBack) {
  std::vector<core::SimulationConfig> grid;
  grid.emplace_back(); // defaults
  for (const auto& exec : core::ExecutorFactory::instance().names()) {
    core::SimulationConfig cfg;
    cfg.order = 3;
    cfg.physics = core::Physics::Elastic;
    cfg.courant = 0.123456789012345; // must survive max_digits10 formatting
    cfg.max_levels = 7;
    cfg.num_ranks = 8;
    cfg.feedback_warmup_cycles = 5;
    cfg.executor = exec;
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    cfg.scheduler.chunk_elems = 32;
    grid.push_back(cfg);
  }
  for (const partition::Strategy s : partition::kAllStrategies) {
    core::SimulationConfig cfg;
    cfg.partitioner = s;
    grid.push_back(cfg);
  }
  for (const auto& cfg : grid)
    EXPECT_EQ(core::parse_simulation_config(core::to_string(cfg)), cfg) << core::to_string(cfg);

  try {
    (void)core::parse_simulation_config("ordre=4");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("order"), std::string::npos)
        << "message should teach the accepted keys";
  }
  EXPECT_THROW((void)core::parse_simulation_config("physics=quantum"), CheckFailure);
  EXPECT_THROW((void)core::parse_simulation_config("partitioner=zoltan"), CheckFailure);
  // Values that don't fit the destination type must throw, not wrap
  // (ranks=2^32+1 silently becoming 1 would run serially without a word).
  EXPECT_THROW((void)core::parse_simulation_config("ranks=4294967297"), CheckFailure);
  EXPECT_THROW((void)core::parse_simulation_config("max-levels=4294967296"), CheckFailure);
}

} // namespace
} // namespace ltswave::scenarios

// ScenarioSpec / registry / config round-trip tests: the declarative
// scenario API (named registry, fluent builder, key=value CLI overrides,
// per-region materials) and the to_string/parse round-trips for
// SchedulerConfig and SimulationConfig — including parse_scheduler_mode
// exhaustiveness over kAllSchedulerModes and clear error messages for bad
// CLI spellings — plus the stability of every registered scenario at its
// registered settings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "conformance_utils.hpp"
#include "core/executor.hpp"
#include "cycle_energy.hpp"
#include "resilience/error.hpp"
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
    FAIL() << "expected resilience::InvalidConfig";
  } catch (const resilience::InvalidConfig& e) {
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

TEST(ScenarioRegistry, StripPopulatesEveryLevel) {
  // The strip grades its fine-to-coarse jump through one cell per
  // intermediate power-of-two width, so the checkpoint-replay and
  // conformance tests that run it exercise a populated middle level.
  const auto sim = get("strip").make_simulation();
  const auto& lv = sim->levels();
  ASSERT_GE(lv.num_levels, 3);
  for (std::size_t k = 0; k < lv.level_counts.size(); ++k)
    EXPECT_GT(lv.level_counts[k], 0) << "level " << k + 1;
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

TEST(ScenarioRun, EveryScenarioRunsUnderBothPhysics) {
  // Registered receivers, sources and bumps must make sense under either
  // physics: `physics=` is a plain override on every scenario. Vertical
  // receivers resolve to u_z (elastic) or the scalar (acoustic), and a
  // source's direction to the force vector (elastic) or its magnitude
  // (acoustic) — trench's z-pointing force must not vanish under acoustic.
  for (const auto& name : names())
    for (const core::Physics physics : {core::Physics::Acoustic, core::Physics::Elastic}) {
      SCOPED_TRACE(name + " " + core::to_string(physics));
      const auto spec = get(name).with_physics(physics).with_mesh_resolution(4).with_cycles(2);
      const RunResult r = run(spec);
      EXPECT_EQ(r.trace_values.size(), spec.receivers.size());
      EXPECT_GT(r.end_time, 0);
      for (const real_t v : r.u) ASSERT_TRUE(std::isfinite(v));
      real_t tmax = 0;
      for (const auto& tv : r.trace_values)
        for (const real_t x : tv) tmax = std::max(tmax, std::abs(x));
      EXPECT_GT(tmax, 0) << "no receiver recorded a signal";
    }
}

TEST(ScenarioRun, OutOfRangeComponentRaisesInvalidConfig) {
  const auto expect_invalid = [](const ScenarioSpec& spec, const char* component,
                                 const char* physics) {
    try {
      (void)spec.make_simulation();
      FAIL() << "expected resilience::InvalidConfig";
    } catch (const resilience::InvalidConfig& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("component ") + component), std::string::npos) << msg;
      EXPECT_NE(msg.find(physics), std::string::npos) << msg;
    }
  };
  const auto strip = get("strip").with_mesh_resolution(4);
  auto elastic = strip;
  elastic.with_physics(core::Physics::Elastic).with_receiver({.component = 3});
  expect_invalid(elastic, "3", "elastic");
  auto acoustic = strip;
  acoustic.with_receiver({.component = 1});
  expect_invalid(acoustic, "1", "acoustic");
  auto bump = strip;
  bump.with_initial({.component = -2});
  expect_invalid(bump, "-2", "acoustic");
}

// Every registered scenario at its own physics, order and courant (n capped
// at 8), sourceless, with a centred bump where it has no initial state. The
// staggered cycle energy is an exact invariant of the LTS cycle map, so a
// registered courant outside the recursion's stability limit shows up as a
// drift far past roundoff within 200 cycles.
class ScenarioStability : public testing::TestWithParam<std::string> {};

TEST_P(ScenarioStability, HoldsTheCycleEnergyAtRegisteredSettings) {
  auto spec = get(GetParam());
  spec.with_mesh_resolution(std::min<index_t>(spec.mesh.n, 8));
  spec.executor = "serial-lts";
  spec.health_every = -1; // the drift, not the guard, reports a blow-up
  spec.sources.clear();
  spec.receivers.clear();
  if (spec.initial.empty()) spec.initial.push_back({});
  auto sim = spec.make_simulation();
  const auto energy = stability::cycle_energies(*sim, 200);
  // A non-positive start is a vacuous run, or one so unstable that its
  // first cycles already swamp the energy in roundoff.
  ASSERT_GT(energy.front(), 0) << "vacuous, or unstable from the first cycles";
  EXPECT_LE(stability::max_relative_drift(energy), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Registry, ScenarioStability, testing::ValuesIn(names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return conformance::alnum_case_name(info.param);
                         });

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

  EXPECT_THROW(spec.apply_override("ordre", "3"), resilience::InvalidConfig);
  EXPECT_THROW(spec.apply_override("order", "three"), CheckFailure);
  EXPECT_THROW(spec.apply_override("cycles", "-4"), resilience::InvalidConfig);
  // The retired keys are unknown now: `executor=` is the one backend
  // selector, every LTS substep runs the one Newmark rule, and the error
  // must name the bad key and teach the accepted ones.
  const std::pair<const char*, const char*> retired[] = {
      {"lts", "on"}, {"scheduler", "on"}, {"scheduler.mode", "on"},
      {"integrator", "leapfrog-stab"}};
  for (const auto& [key, value] : retired) {
    try {
      spec.apply_override(key, value);
      FAIL() << "expected resilience::InvalidConfig for " << key;
    } catch (const resilience::InvalidConfig& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(std::string("'") + key + "'"), std::string::npos) << msg;
      EXPECT_NE(msg.find("executor"), std::string::npos) << msg;
    }
  }
  // A generator name is checked where the mesh is built.
  spec.apply_override("mesh", "sphere");
  try {
    (void)spec.build_mesh();
    FAIL() << "expected resilience::InvalidConfig for mesh=sphere";
  } catch (const resilience::InvalidConfig& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'sphere'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("trench-big"), std::string::npos) << msg;
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
  EXPECT_THROW((void)from_args(bad, "strip"), resilience::InvalidConfig);
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

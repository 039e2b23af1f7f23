// Executor contract tests, driven by the factory registry: every registered
// backend must honor the full contract — set_state -> advance -> state parity
// with the serial-LTS baseline, exact adopt_state_from hand-off (state,
// clock, work counters, sources, receiver traces), source/receiver behavior,
// counters shape — plus the facade-level guarantees: explicit name selection
// (serial-lts is the one-rank LTS engine), the per-cycle state-gather cache,
// and clear errors for unknown backends. A new backend registered with ExecutorFactory is
// covered by this file with zero edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "conformance_utils.hpp"
#include "core/executor.hpp"
#include "core/simulation.hpp"
#include "mesh/generators.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::core {
namespace {

using conformance::rel_l2;

/// The full discretization stack one executor runs on, built the same way the
/// facade builds it (level layout chosen by the backend's uses_lts_levels).
struct Rig {
  mesh::HexMesh mesh;
  SimulationConfig cfg;
  std::unique_ptr<sem::SemSpace> space;
  std::unique_ptr<sem::WaveOperator> op;
  LevelAssignment levels;
  LtsStructure structure;

  explicit Rig(const std::string& executor_name) : mesh(mesh::make_strip_mesh(12, 0.4, 4.0)) {
    cfg.order = 2;
    cfg.courant = 0.10;
    cfg.num_ranks = 4;
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    cfg.executor = executor_name;
    space = std::make_unique<sem::SemSpace>(mesh, cfg.order);
    op = std::make_unique<sem::AcousticOperator>(*space);
    levels = ExecutorFactory::instance().uses_lts_levels(executor_name)
                 ? assign_levels(mesh, cfg.courant, cfg.max_levels)
                 : assign_single_level(mesh, cfg.courant);
    structure = build_lts_structure(*space, levels);
  }

  [[nodiscard]] ExecutorContext ctx() const {
    return {op.get(), &levels, &structure, &mesh, space.get(), &cfg};
  }

  [[nodiscard]] std::unique_ptr<Executor> create() const {
    return ExecutorFactory::instance().create(cfg.executor, ctx());
  }

  [[nodiscard]] std::vector<real_t> gaussian_state() const {
    std::vector<real_t> u0(static_cast<std::size_t>(space->num_global_nodes()), 0.0);
    for (gindex_t g = 0; g < space->num_global_nodes(); ++g) {
      const auto x = space->node_coord(g);
      u0[static_cast<std::size_t>(g)] = std::exp(-30.0 * (x[0] - 0.2) * (x[0] - 0.2));
    }
    return u0;
  }

  [[nodiscard]] sem::PointSource source() const {
    return sem::PointSource::at(*space, {0.75, 0.0, 0.0}, 2.0, {1, 0, 0}, 2.0);
  }
};

TEST(ExecutorFactory, RegistersAllBuiltinBackends) {
  auto& factory = ExecutorFactory::instance();
  const auto names = factory.names();
  for (const char* expected : {"newmark", "serial-lts", "threaded/barrier-all",
                               "threaded/level-aware", "threaded/level-aware+steal"}) {
    EXPECT_TRUE(factory.contains(expected)) << expected;
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
    EXPECT_FALSE(factory.description(expected).empty()) << expected;
  }
  // Exactly one threaded entry per scheduler mode — the registry is generated
  // from kAllSchedulerModes, so it cannot go stale when a mode is added.
  std::size_t threaded = 0;
  for (const auto& n : names) threaded += n.starts_with("threaded/") ? 1 : 0;
  EXPECT_EQ(threaded, std::size(runtime::kAllSchedulerModes));
  EXPECT_FALSE(factory.uses_lts_levels("newmark"));
  EXPECT_TRUE(factory.uses_lts_levels("serial-lts"));
}

TEST(ExecutorFactory, UnknownBackendFailsListingRegistry) {
  Rig rig("serial-lts");
  try {
    (void)ExecutorFactory::instance().create("mpi/nonexistent", rig.ctx());
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mpi/nonexistent"), std::string::npos);
    EXPECT_NE(msg.find("serial-lts"), std::string::npos) << "message should list the registry";
  }
}

TEST(ExecutorContract, SetStateAdvanceStateParityAgainstBaseline) {
  const Rig base_rig("serial-lts");
  auto base = base_rig.create();
  const auto u0 = base_rig.gaussian_state();
  const std::vector<real_t> v0(u0.size(), 0.0);
  base->set_state(u0, v0);
  base->advance_cycles(4);

  for (const auto& name : ExecutorFactory::instance().names()) {
    if (!ExecutorFactory::instance().uses_lts_levels(name)) continue; // different scheme/dt
    const Rig rig(name);
    auto exec = rig.create();
    EXPECT_EQ(exec->name(), name);
    exec->set_state(u0, v0);
    exec->advance_cycles(4);
    EXPECT_NEAR(exec->time(), base->time(), 1e-12) << name;
    EXPECT_EQ(exec->element_applies(), base->element_applies()) << name;
    EXPECT_LT(rel_l2(exec->state(), base->state()), 1e-10) << name;
  }
}

TEST(ExecutorContract, AdoptStateFromContinuesRunExactly) {
  for (const auto& name : ExecutorFactory::instance().names()) {
    const Rig rig(name);
    const auto u0 = rig.gaussian_state();
    const std::vector<real_t> v0(u0.size(), 0.0);
    const auto src = rig.source();

    // Uninterrupted reference: 8 cycles straight through.
    auto whole = rig.create();
    whole->add_source(src);
    whole->add_receiver(src.node, 0);
    whole->set_state(u0, v0);
    whole->advance_cycles(8);

    // Hand-off: 3 cycles, adopt into a pristine executor, 5 more.
    auto first = rig.create();
    first->add_source(src);
    first->add_receiver(src.node, 0);
    first->set_state(u0, v0);
    first->advance_cycles(3);
    auto second = rig.create();
    second->adopt_state_from(*first);
    EXPECT_EQ(second->sources().size(), 1u) << name;
    EXPECT_EQ(second->receivers().size(), 1u) << name;
    second->advance_cycles(5);

    EXPECT_NEAR(second->time(), whole->time(), 1e-12) << name;
    EXPECT_EQ(second->element_applies(), whole->element_applies()) << name;
    EXPECT_LT(rel_l2(second->state(), whole->state()), 1e-13) << name;

    // Receiver traces concatenate across the hand-off: all 8 samples, equal
    // to the uninterrupted run's.
    std::vector<sem::Receiver> got, want;
    got.emplace_back(*rig.space, std::array<real_t, 3>{0.75, 0.0, 0.0}, 0);
    want.emplace_back(*rig.space, std::array<real_t, 3>{0.75, 0.0, 0.0}, 0);
    second->drain_receivers(got);
    whole->drain_receivers(want);
    ASSERT_EQ(got[0].times().size(), 8u) << name;
    ASSERT_EQ(want[0].times().size(), 8u) << name;
    for (std::size_t s = 0; s < 8; ++s) {
      EXPECT_NEAR(got[0].times()[s], want[0].times()[s], 1e-12) << name;
      EXPECT_NEAR(got[0].values()[s], want[0].values()[s], 1e-13) << name;
    }
  }
}

TEST(ExecutorContract, AdoptAcrossBackendKindsThrows) {
  const Rig lts_rig("serial-lts");
  auto lts = lts_rig.create();
  const auto u0 = lts_rig.gaussian_state();
  lts->set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  lts->advance_cycles(2);

  const Rig nm_rig("newmark");
  auto nm = nm_rig.create();
  EXPECT_THROW(nm->adopt_state_from(*lts), CheckFailure);
}

TEST(ExecutorContract, BlocksAppliedAccumulatesAndSurvivesAdopt) {
  // Every backend runs the batched path, so the block work counter must be
  // populated after an advance, monotone, mirrored into counters(), and
  // carried across adopt_state_from exactly like element_applies.
  for (const auto& name : ExecutorFactory::instance().names()) {
    const Rig rig(name);
    auto exec = rig.create();
    const auto u0 = rig.gaussian_state();
    exec->set_state(u0, std::vector<real_t>(u0.size(), 0.0));
    exec->advance_cycles(2);
    const std::int64_t after2 = exec->blocks_applied();
    EXPECT_GT(after2, 0) << name;
    EXPECT_EQ(exec->counters().blocks_applied, after2) << name;
    exec->advance_cycles(1);
    EXPECT_GT(exec->blocks_applied(), after2) << name;

    auto fresh = rig.create(); // same discretization stack — adoptable
    fresh->adopt_state_from(*exec);
    EXPECT_EQ(fresh->blocks_applied(), exec->blocks_applied()) << name;
  }
}

TEST(ExecutorContract, CountersShapeMatchesBackendKind) {
  for (const auto& name : ExecutorFactory::instance().names()) {
    const Rig rig(name);
    auto exec = rig.create();
    const auto c = exec->counters();
    if (name == "newmark") {
      // The rankless reference scheme: empty per-rank vectors, no partition.
      EXPECT_TRUE(c.empty()) << name;
      EXPECT_EQ(exec->threaded_solver(), nullptr) << name;
      EXPECT_EQ(exec->partition(), nullptr) << name;
      EXPECT_FALSE(exec->supports_feedback()) << name;
      EXPECT_THROW(exec->refine_from_feedback(), CheckFailure) << name;
      continue;
    }
    // The LTS engine: one counter slot per rank — serial-lts is always one
    // rank, whatever the config's rank count (4 here).
    const std::size_t ranks = name == "serial-lts" ? 1 : 4;
    EXPECT_EQ(c.busy_seconds.size(), ranks) << name;
    EXPECT_EQ(c.stall_seconds.size(), ranks) << name;
    EXPECT_EQ(c.steal_counts.size(), ranks) << name;
    EXPECT_NE(exec->threaded_solver(), nullptr) << name;
    ASSERT_NE(exec->partition(), nullptr) << name;
    EXPECT_EQ(exec->partition()->num_parts, static_cast<rank_t>(ranks)) << name;
    EXPECT_EQ(exec->supports_feedback(), ranks > 1) << name;
    if (ranks == 1) {
      EXPECT_THROW(exec->refine_from_feedback(), CheckFailure) << name;
    }
  }
}

TEST(ExecutorContract, SerialLtsIsTheThreadedEngineOnOneRank) {
  // serial-lts and threaded/level-aware at ranks=1 are the same engine on the
  // same one-part layout, run inline: identical exported state, bit for bit.
  Rig serial_rig("serial-lts");
  Rig one_rig("threaded/level-aware");
  one_rig.cfg.num_ranks = 1;
  const auto u0 = serial_rig.gaussian_state();
  const std::vector<real_t> v0(u0.size(), 0.0);
  std::vector<ExecutorState> states;
  for (const Rig* rig : {&serial_rig, &one_rig}) {
    auto exec = rig->create();
    exec->add_source(rig->source());
    exec->set_state(u0, v0);
    exec->advance_cycles(5);
    ASSERT_NE(exec->threaded_solver(), nullptr);
    EXPECT_EQ(exec->threaded_solver()->num_ranks(), 1);
    states.push_back(exec->export_state());
  }
  EXPECT_TRUE(states[0] == states[1]);
}

TEST(ExecutorContract, SerialLtsReportsOneRankWithoutStall) {
  const Rig rig("serial-lts");
  auto exec = rig.create();
  const auto u0 = rig.gaussian_state();
  exec->set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  exec->advance_cycles(3);
  const auto c = exec->counters();
  ASSERT_EQ(c.busy_seconds.size(), 1u);
  EXPECT_GT(c.busy_seconds[0], 0.0);
  EXPECT_EQ(c.stall_seconds, std::vector<double>{0.0});
  EXPECT_EQ(c.steal_counts, std::vector<std::int64_t>{0});
  // Nobody to wait for: no barrier phase at all, and the kernel phases are
  // there.
  const auto report = exec->run_report();
  EXPECT_EQ(report.executor, "serial-lts");
  EXPECT_EQ(report.find_phase("barrier"), nullptr);
  EXPECT_NE(report.find_phase("eval.L1"), nullptr);
  EXPECT_EQ(report.cycles, 3);
}

TEST(ExecutorContract, StateGatherIsCachedPerCycleAndInvalidated) {
  // The satellite fix: u() on any backend gathers once per advance, not once
  // per call — repeated polling between cycles returns the same buffer.
  SimulationConfig cfg;
  cfg.order = 2;
  cfg.executor = "threaded/level-aware";
  cfg.num_ranks = 4;
  cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  WaveSimulation sim(mesh::make_strip_mesh(12, 0.4, 4.0), cfg);
  std::vector<real_t> u0(static_cast<std::size_t>(sim.space().num_global_nodes()), 0.0);
  for (gindex_t g = 0; g < sim.space().num_global_nodes(); ++g)
    u0[static_cast<std::size_t>(g)] =
        std::exp(-30.0 * (sim.space().node_coord(g)[0] - 0.2) *
                 (sim.space().node_coord(g)[0] - 0.2));
  sim.set_state(u0, std::vector<real_t>(u0.size(), 0.0));

  // set_state invalidates: the first gather reflects the new state.
  const auto& s1 = sim.u();
  EXPECT_EQ(s1, u0);
  // Repeated calls return the identical cached buffer (no re-gather).
  EXPECT_EQ(&sim.u(), &s1);
  EXPECT_EQ(&sim.u(), &s1);

  // Advancing invalidates: the next gather sees the evolved field.
  const std::vector<real_t> before = s1;
  sim.run(sim.dt() * 2);
  const auto& s2 = sim.u();
  EXPECT_GT(rel_l2(s2, before), 0.0);
  EXPECT_EQ(&sim.u(), &s2);
}

TEST(Facade, SelectsExecutorByName) {
  const auto m = mesh::make_strip_mesh(12, 0.4, 4.0);
  {
    // The default is the LTS engine on one rank.
    SimulationConfig cfg;
    cfg.order = 2;
    WaveSimulation sim(m, cfg);
    EXPECT_EQ(sim.executor_name(), "serial-lts");
    ASSERT_NE(sim.threaded(), nullptr);
    EXPECT_EQ(sim.threaded()->num_ranks(), 1);
    EXPECT_EQ(sim.part().num_parts, 1);
  }
  {
    SimulationConfig cfg;
    cfg.order = 2;
    cfg.executor = "newmark";
    WaveSimulation sim(m, cfg);
    EXPECT_EQ(sim.executor_name(), "newmark");
    EXPECT_EQ(sim.levels().num_levels, 1);
    EXPECT_EQ(sim.threaded(), nullptr);
    EXPECT_EQ(sim.part().num_parts, 0); // the reference scheme has no partition
  }
  {
    SimulationConfig cfg;
    cfg.order = 2;
    cfg.executor = "threaded/level-aware+steal";
    cfg.num_ranks = 4;
    cfg.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    WaveSimulation sim(m, cfg);
    EXPECT_EQ(sim.executor_name(), "threaded/level-aware+steal");
    ASSERT_NE(sim.threaded(), nullptr);
    EXPECT_EQ(sim.threaded()->mode(), runtime::SchedulerMode::LevelAwareSteal);
    EXPECT_EQ(sim.threaded()->num_ranks(), 4);
  }
  {
    // serial-lts ignores the rank count (the Supervisor's fallback keeps the
    // failed run's config).
    SimulationConfig cfg;
    cfg.order = 2;
    cfg.num_ranks = 4;
    WaveSimulation sim(m, cfg);
    EXPECT_EQ(sim.executor_name(), "serial-lts");
    ASSERT_NE(sim.threaded(), nullptr);
    EXPECT_EQ(sim.threaded()->num_ranks(), 1);
  }
}

} // namespace
} // namespace ltswave::core

// Explicit-Newmark tests, run through the "newmark" executor (the LTS engine
// on a one-level census): second-order convergence in time against an exact
// standing-wave solution, CFL stability threshold behaviour, discrete energy
// conservation, a causal point-source response, and the single-level guard.

#include <gtest/gtest.h>

#include <cmath>

#include "core/energy.hpp"
#include "core/executor.hpp"
#include "core/lts_levels.hpp"
#include "mesh/generators.hpp"

namespace ltswave::core {
namespace {

/// The "newmark" backend stepping the whole mesh at `dt`: a one-level census
/// whose step is the one under test instead of the CFL minimum.
struct NewmarkRun {
  LevelAssignment levels;
  LtsStructure structure;
  std::unique_ptr<Executor> exec;

  NewmarkRun(const mesh::HexMesh& m, const sem::WaveOperator& op, real_t dt)
      : levels(assign_single_level(m, 1.0)) {
    levels.dt = dt;
    structure = build_lts_structure(op.space(), levels);
    exec = ExecutorFactory::instance().create(
        "newmark", {&op, &levels, &structure, &m, &op.space(), nullptr});
  }
  NewmarkRun(const NewmarkRun&) = delete; // exec points into levels/structure
  NewmarkRun& operator=(const NewmarkRun&) = delete;

  [[nodiscard]] Executor* operator->() const { return exec.get(); }
};

/// Acoustic standing wave in the unit cube with natural (free-surface)
/// boundaries: u(x,t) = cos(pi x) cos(pi y) cos(pi z) cos(omega t),
/// omega = vp * pi * sqrt(3).
struct StandingWave {
  real_t vp = 1.0;
  [[nodiscard]] real_t omega() const { return vp * M_PI * std::sqrt(3.0); }
  [[nodiscard]] real_t eval(const std::array<real_t, 3>& x, real_t t) const {
    return std::cos(M_PI * x[0]) * std::cos(M_PI * x[1]) * std::cos(M_PI * x[2]) *
           std::cos(omega() * t);
  }
  [[nodiscard]] real_t eval_dt(const std::array<real_t, 3>& x, real_t t) const {
    return -omega() * std::cos(M_PI * x[0]) * std::cos(M_PI * x[1]) * std::cos(M_PI * x[2]) *
           std::sin(omega() * t);
  }
};

real_t run_and_measure_error(const mesh::HexMesh& m, const sem::SemSpace& space,
                             const sem::AcousticOperator& op, real_t dt, real_t t_end) {
  StandingWave wave;
  const NewmarkRun solver(m, op, dt);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u0(n), v0(n);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    u0[static_cast<std::size_t>(g)] = wave.eval(space.node_coord(g), 0.0);
    v0[static_cast<std::size_t>(g)] = wave.eval_dt(space.node_coord(g), 0.0);
  }
  solver->set_state(u0, v0);
  solver->advance_cycles(static_cast<std::int64_t>(std::round(t_end / dt)));

  // Mass-weighted L2 error at t_end.
  real_t err2 = 0, norm2 = 0;
  const real_t t = solver->time();
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const real_t exact = wave.eval(space.node_coord(g), t);
    const real_t diff = solver->state()[static_cast<std::size_t>(g)] - exact;
    const real_t mg = space.mass()[static_cast<std::size_t>(g)];
    err2 += mg * diff * diff;
    norm2 += mg * exact * exact;
  }
  return std::sqrt(err2 / std::max(norm2, real_t(1e-30)));
}

TEST(Newmark, SecondOrderConvergenceInTime) {
  // High spatial order so the time error dominates.
  const auto m = mesh::make_uniform_box(3, 3, 3);
  sem::SemSpace space(m, 6);
  sem::AcousticOperator op(space);

  const real_t t_end = 0.5;
  const real_t dt0 = 2e-3;
  const real_t e1 = run_and_measure_error(m, space, op, dt0, t_end);
  const real_t e2 = run_and_measure_error(m, space, op, dt0 / 2, t_end);
  const real_t e4 = run_and_measure_error(m, space, op, dt0 / 4, t_end);
  const real_t rate12 = std::log2(e1 / e2);
  const real_t rate24 = std::log2(e2 / e4);
  EXPECT_GT(rate12, 1.7) << "e1=" << e1 << " e2=" << e2;
  EXPECT_GT(rate24, 1.7) << "e2=" << e2 << " e4=" << e4;
  EXPECT_LT(e4, 1e-3);
}

TEST(Newmark, EnergyConservedBelowCfl) {
  const auto m = mesh::make_uniform_box(3, 3, 3);
  sem::SemSpace space(m, 4);
  sem::AcousticOperator op(space);
  StandingWave wave;

  const real_t dt = 2e-3;
  const NewmarkRun solver(m, op, dt);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u0(n), v0(n);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    u0[static_cast<std::size_t>(g)] = wave.eval(space.node_coord(g), 0.0);
    v0[static_cast<std::size_t>(g)] = wave.eval_dt(space.node_coord(g), 0.0);
  }
  solver->set_state(u0, v0);

  real_t e_first = 0;
  std::vector<real_t> u_prev;
  for (int s = 0; s < 500; ++s) {
    u_prev = solver->state();
    solver->advance_cycles(1);
    const real_t e = staggered_energy(op, u_prev, solver->state(), solver->v_half());
    if (s == 0) e_first = e;
    ASSERT_GT(e, 0);
    EXPECT_NEAR(e, e_first, 1e-9 * e_first) << "step " << s;
  }
}

TEST(Newmark, UnstableAboveCfl) {
  const auto m = mesh::make_uniform_box(4, 4, 4);
  sem::SemSpace space(m, 4);
  sem::AcousticOperator op(space);
  StandingWave wave;

  // Far above any plausible CFL limit for this mesh (h=0.25, vp=1).
  const real_t dt = 0.2;
  const NewmarkRun solver(m, op, dt);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u0(n), v0(n, 0.0);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g)
    u0[static_cast<std::size_t>(g)] = wave.eval(space.node_coord(g), 0.0);
  solver->set_state(u0, v0);
  solver->advance_cycles(50);
  real_t umax = 0;
  for (real_t v : solver->state()) umax = std::max(umax, std::abs(v));
  EXPECT_GT(umax, 1e3); // blow-up
}

TEST(Newmark, PointSourceProducesCausalResponse) {
  mesh::Material mat; // vp = 1
  const auto m = mesh::make_uniform_box(6, 6, 6, {1, 1, 1}, mat);
  sem::SemSpace space(m, 3);
  sem::AcousticOperator op(space);
  const NewmarkRun solver(m, op, 5e-4);
  solver->add_source(sem::PointSource::at(space, {0.5, 0.5, 0.5}, /*f0=*/8.0, {1, 0, 0}, 100.0));
  const std::vector<real_t> zero(static_cast<std::size_t>(space.num_global_nodes()), 0.0);
  solver->set_state(zero, zero);

  const gindex_t near = space.nearest_node({0.55, 0.5, 0.5});
  const gindex_t far = space.nearest_node({0.0, 0.0, 0.0});

  // After a short time, the wave has reached the near receiver but not the
  // far corner (distance ~0.87 / vp=1).
  const real_t t_probe = 0.25;
  while (solver->time() < t_probe) solver->advance_cycles(1);
  const auto& u = solver->state();
  EXPECT_GT(std::abs(u[static_cast<std::size_t>(near)]), 1e-8);
  EXPECT_LT(std::abs(u[static_cast<std::size_t>(far)]),
            1e-3 * std::abs(u[static_cast<std::size_t>(near)]));
}

TEST(Newmark, RejectsMultiLevelCensus) {
  // A multi-level census's dt is the coarse step: stepping the whole mesh at
  // it would blow up the fine elements silently, so the backend refuses it.
  const auto m = mesh::make_strip_mesh(12, 0.4, 4.0);
  sem::SemSpace space(m, 2);
  sem::AcousticOperator op(space);
  const LevelAssignment levels = assign_levels(m, 0.1);
  ASSERT_GT(levels.num_levels, 1);
  const LtsStructure structure = build_lts_structure(space, levels);
  EXPECT_THROW((void)ExecutorFactory::instance().create(
                   "newmark", {&op, &levels, &structure, &m, &space, nullptr}),
               CheckFailure);
}

} // namespace
} // namespace ltswave::core

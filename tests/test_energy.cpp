// Energy-diagnostic tests: positivity and symmetry of the discrete energy
// forms, null-space behaviour, and conservation for the elastic solver (the
// acoustic long-run conservation is covered in test_lts).

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/energy.hpp"
#include "mesh/generators.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::core {
namespace {

TEST(Energy, KineticIsPositiveDefinite) {
  const auto m = mesh::make_uniform_box(3, 3, 3);
  sem::SemSpace space(m, 3);
  Rng rng(11);
  std::vector<real_t> v(static_cast<std::size_t>(space.num_global_nodes()));
  for (auto& x : v) x = rng.uniform_real(-1, 1);
  EXPECT_GT(kinetic_energy(space, v, 1), 0);
  std::fill(v.begin(), v.end(), 0.0);
  EXPECT_EQ(kinetic_energy(space, v, 1), 0);
}

TEST(Energy, KineticScalesQuadratically) {
  const auto m = mesh::make_uniform_box(2, 2, 2);
  sem::SemSpace space(m, 2);
  std::vector<real_t> v(static_cast<std::size_t>(space.num_global_nodes()), 0.5);
  const real_t e1 = kinetic_energy(space, v, 1);
  for (auto& x : v) x *= 2;
  EXPECT_NEAR(kinetic_energy(space, v, 1), 4 * e1, 1e-12 * e1);
}

TEST(Energy, CrossPotentialIsSymmetric) {
  const auto m = mesh::make_uniform_box(2, 3, 2);
  sem::SemSpace space(m, 3);
  sem::AcousticOperator op(space);
  Rng rng(5);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> a(n), b(n);
  for (auto& x : a) x = rng.uniform_real(-1, 1);
  for (auto& x : b) x = rng.uniform_real(-1, 1);
  const real_t ab = cross_potential_energy(op, a, b);
  const real_t ba = cross_potential_energy(op, b, a);
  EXPECT_NEAR(ab, ba, 1e-9 * std::max(1.0, std::abs(ab)));
}

TEST(Energy, PotentialVanishesOnNullSpace) {
  // Constants carry no strain energy (acoustic) — K's null space.
  const auto m = mesh::make_uniform_box(2, 2, 2);
  sem::SemSpace space(m, 3);
  sem::AcousticOperator op(space);
  std::vector<real_t> c(static_cast<std::size_t>(space.num_global_nodes()), 3.7);
  EXPECT_NEAR(cross_potential_energy(op, c, c), 0.0, 1e-9);
}

TEST(Energy, ElasticLtsConservesEnergyLongRun) {
  const auto m = mesh::make_strip_mesh(10, 0.4, 2.0);
  sem::SemSpace space(m, 2);
  sem::ElasticOperator op(space);
  const auto lv = assign_levels(m, 0.06);
  ASSERT_GE(lv.num_levels, 2);
  const auto st = build_lts_structure(space, lv);

  const partition::Partition one_rank{
      1, std::vector<rank_t>(static_cast<std::size_t>(m.num_elems()), 0)};
  runtime::ThreadedLtsSolver lts(op, lv, st, one_rank); // the serial-lts engine
  const std::size_t ndof = static_cast<std::size_t>(space.num_global_nodes()) * 3;
  std::vector<real_t> u0(ndof);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    u0[static_cast<std::size_t>(g) * 3 + 0] = std::cos(M_PI * x[0]);
    u0[static_cast<std::size_t>(g) * 3 + 2] = 0.5 * std::cos(M_PI * x[1]);
  }
  lts.set_state(u0, std::vector<real_t>(ndof, 0.0));

  std::vector<real_t> u_prev;
  real_t e0 = 0;
  for (int step = 0; step < 200; ++step) {
    u_prev.assign(lts.u().begin(), lts.u().end());
    lts.run_cycles(1);
    const real_t e = staggered_energy(op, u_prev, lts.u(), lts.v_half());
    if (step == 0) e0 = e;
    ASSERT_GT(e, 0);
    ASSERT_NEAR(e, e0, 0.02 * e0) << "step " << step;
  }
}

} // namespace
} // namespace ltswave::core

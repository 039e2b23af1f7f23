// Time-integration tests of the LTS-Newmark cycle map:
//  * discrete energy conservation: the sourceless "layered" scenario must
//    hold the staggered energy of its cycle map to roundoff;
//  * observed convergence order: the scheme is second order in dt on a
//    dt-refinement sweep of the sourceless "strip" scenario.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/simulation.hpp"
#include "cycle_energy.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::core {
namespace {

// ---------------------------------------------------------------------------
// Discrete energy conservation (sourceless layered medium)
// ---------------------------------------------------------------------------

TEST(IntegratorEnergy, NewmarkConservesTheCycleEnergy) {
  // Sourceless layered medium: two-level census from the material contrast,
  // energy injected once through the initial bump and then — if the scheme is
  // conservative — held forever.
  auto spec = scenarios::get("layered");
  spec.sources.clear();
  spec.receivers.clear();
  auto sim = spec.make_simulation();
  ASSERT_GE(sim->levels().num_levels, 2) << "scenario must exercise real LTS";

  const auto energy = stability::cycle_energies(*sim, 40);
  ASSERT_GT(energy.front(), 0) << "vacuous scenario — no energy in the field";
  // Roundoff bar: the potential term divides an O(eps * ||u||_M^2) cancellation
  // error by dt^2, so "to roundoff" here means ~1e9 ulps, not 1e0 — still ten
  // orders below any physical drift a lossy scheme would show.
  EXPECT_LT(stability::max_relative_drift(energy), 1e-6);
}

// ---------------------------------------------------------------------------
// Observed convergence order on a dt sweep
// ---------------------------------------------------------------------------

/// Final state of the sourceless strip after a fixed physical time, with the
/// step refined by `halvings` courant halvings (same mesh, same dofs).
std::vector<real_t> strip_final_state(int halvings, real_t base_courant, real_t duration) {
  auto spec = scenarios::get("strip");
  spec.receivers.clear();
  spec.courant = base_courant / static_cast<real_t>(1 << halvings);
  auto sim = spec.make_simulation();
  sim->run(duration);
  return sim->u();
}

double rel_l2(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return std::sqrt(num / den);
}

TEST(IntegratorConvergence, NewmarkIsSecondOrderInDt) {
  auto spec = scenarios::get("strip");
  const real_t base_courant = spec.courant;
  // Physical span divisible by every step in the sweep: dt scales linearly
  // with courant on a fixed mesh, so T = 32 * dt(base) is hit exactly by all.
  // 32 coarse cycles accumulate enough phase error to leave the preasymptotic
  // regime (an 8-cycle span shows apparent orders well above 3).
  const auto probe = [&](real_t courant) {
    auto s = spec;
    s.courant = courant;
    return s.coarse_dt(s.build_mesh());
  };
  const real_t dt0 = probe(base_courant);
  ASSERT_NEAR(static_cast<double>(probe(base_courant / 2) / dt0), 0.5, 1e-12)
      << "dt must scale exactly with courant for a clean sweep";
  const real_t duration = 32 * dt0;

  const auto ref = strip_final_state(5, base_courant, duration); // dt/32
  const auto e1 = rel_l2(strip_final_state(1, base_courant, duration), ref);
  const auto e2 = rel_l2(strip_final_state(2, base_courant, duration), ref);
  const double order = std::log2(e1 / e2);
  // Design order 2; the dt/32 reference biases the estimate by ~(1/8)^2.
  EXPECT_GT(order, 1.55) << "e(dt/2)=" << e1 << " e(dt/4)=" << e2;
  EXPECT_LT(order, 2.45) << "e(dt/2)=" << e1 << " e(dt/4)=" << e2;
}

} // namespace
} // namespace ltswave::core

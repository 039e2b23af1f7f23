#pragma once

/// \file cycle_energy.hpp
/// The staggered energy of a simulation's one-cycle map, measured from
/// consecutive cycle-boundary snapshots of u alone — the invariant the
/// energy-conservation and scenario-stability tests watch.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/simulation.hpp"

namespace ltswave::stability {

/// <a, M b> over interleaved components with the diagonal SEM mass.
inline double mass_inner(const sem::SemSpace& space, int ncomp, const std::vector<real_t>& a,
                         const std::vector<real_t>& b) {
  double e = 0;
  const auto& mass = space.mass();
  for (std::size_t g = 0; g < mass.size(); ++g) {
    double s = 0;
    for (int c = 0; c < ncomp; ++c) {
      const std::size_t i = g * static_cast<std::size_t>(ncomp) + static_cast<std::size_t>(c);
      s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    e += static_cast<double>(mass[g]) * s;
  }
  return e;
}

/// Staggered energy of the one-cycle map from three consecutive boundary
/// snapshots — needs only the mass matrix: with the cycle map written as
/// u^{n+1} = 2u^n - u^{n-1} - dt^2 A_eff u^n, the potential term
/// (1/2) <u^{n+1}, K_eff u^n> becomes
/// (1/2) <u^{n+1}, M (2u^n - u^{n-1} - u^{n+1})> / dt^2, and the kinetic term
/// uses v^{n+1/2} = (u^{n+1} - u^n)/dt. Exactly conserved whenever M A_eff is
/// symmetric, so a drift beyond roundoff means the cycle map is growing.
inline double cycle_energy(const sem::SemSpace& space, int ncomp, double dt,
                           const std::vector<real_t>& um1, const std::vector<real_t>& u0,
                           const std::vector<real_t>& up1) {
  std::vector<real_t> v(u0.size()), ku(u0.size());
  for (std::size_t i = 0; i < u0.size(); ++i) {
    v[i] = static_cast<real_t>((static_cast<double>(up1[i]) - static_cast<double>(u0[i])) / dt);
    ku[i] = static_cast<real_t>(2 * static_cast<double>(u0[i]) - static_cast<double>(um1[i]) -
                                static_cast<double>(up1[i]));
  }
  return 0.5 * mass_inner(space, ncomp, v, v) +
         0.5 * mass_inner(space, ncomp, up1, ku) / (dt * dt);
}

/// Runs `cycles` coarse cycles of `sim` and returns the cycle energy of
/// every consecutive snapshot triple (cycles - 1 values).
inline std::vector<double> cycle_energies(core::WaveSimulation& sim, int cycles) {
  const double dt = static_cast<double>(sim.dt());
  std::vector<real_t> um1, u0 = sim.u();
  std::vector<double> energy;
  for (int c = 0; c < cycles; ++c) {
    sim.run(sim.dt());
    std::vector<real_t> up1 = sim.u();
    if (!um1.empty()) energy.push_back(cycle_energy(sim.space(), sim.ncomp(), dt, um1, u0, up1));
    um1 = std::move(u0);
    u0 = std::move(up1);
  }
  return energy;
}

/// max_n |E_n - E_0| / |E_0|; infinity once any energy is non-finite, so a
/// blown-up run cannot hide behind NaN comparisons.
inline double max_relative_drift(const std::vector<double>& energy) {
  double worst = 0;
  for (const double e : energy) {
    const double d = std::abs(e - energy.front()) / std::abs(energy.front());
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

} // namespace ltswave::stability

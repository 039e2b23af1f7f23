#pragma once

/// \file conformance_utils.hpp
/// Cross-backend conformance harness, reduced to its essence: iterate the
/// scenario registry × the executor registry. One grid point is the
/// registered "strip" scenario with physics/order/executor overridden and an
/// optional Ricker source, run end-to-end through the declarative scenario
/// API; test_conformance.cpp asserts agreement against the serial-LTS
/// baseline. A newly registered execution backend appears in the grid with
/// zero test edits — that is the whole point of the Executor seam.

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/executor.hpp"
#include "mesh/generators.hpp"
#include "scenarios/scenario.hpp"

namespace ltswave::conformance {

/// The baseline everything is compared against.
inline constexpr const char* kBaselineExecutor = "serial-lts";

/// Every registered backend except the baseline — the grid's executor axis,
/// generated from the factory registry instead of a hand-written list.
inline std::vector<std::string> compared_executors() {
  auto all = core::ExecutorFactory::instance().names();
  std::erase(all, std::string(kBaselineExecutor));
  return all;
}

/// Backends running the exact LTS scheme agree with the baseline to roundoff;
/// single-rate reference schemes (plain Newmark at Delta-t_min) agree only
/// physically, to a discretization tolerance. The registry's uses_lts_levels
/// bit is exactly that distinction, so a newly registered reference backend
/// lands in the loose-tolerance branch with zero test edits.
inline bool is_exact(std::string_view executor) {
  return core::ExecutorFactory::instance().uses_lts_levels(executor);
}

struct Variant {
  core::Physics physics = core::Physics::Acoustic;
  int order = 2;
  std::string executor = kBaselineExecutor;
  bool with_source = false;
};

/// The grid point as a ScenarioSpec: the registered conformance strip with
/// the variant's axes applied. Threaded backends read num_ranks = 4;
/// oversubscription only warns so the grid runs on small CI machines.
inline scenarios::ScenarioSpec make_spec(const Variant& v) {
  auto spec = scenarios::get("strip");
  spec.physics = v.physics;
  spec.order = v.order;
  spec.executor = v.executor;
  spec.num_ranks = 4;
  spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  if (v.with_source) {
    // Peak frequency ~one cycle per run keeps the cycle-frozen source of the
    // LTS scheme well resolved (Newmark-vs-LTS stays within the
    // discretization tolerance); amplitude 5 makes the source *dominate* the
    // field, so a backend that silently drops it fails at relative error
    // near 1, far above every tolerance in the suite. The coarse dt depends
    // only on mesh geometry and courant — identical across the grid's
    // physics/order/executor axes — so build the strip once for the suite.
    static const real_t duration = [] {
      const auto s = scenarios::get("strip");
      return s.coarse_dt(s.build_mesh()) * s.duration_cycles;
    }();
    spec.sources.push_back({.location = {0.75, 0.0, 0.0},
                            .peak_frequency = 1.0 / duration,
                            .direction = {1, 0, 0},
                            .amplitude = 5.0});
  }
  return spec;
}

inline scenarios::RunResult run_variant(const Variant& v) { return scenarios::run(make_spec(v)); }

/// ||a-b||_2 / ||b||_2 (0 when both empty; ||b|| floored at 1e-300). A size
/// mismatch — e.g. a truncated receiver trace — returns infinity so every
/// tolerance comparison fails loudly instead of silently comparing a prefix.
inline double rel_l2(std::span<const real_t> a, std::span<const real_t> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double num = 0, den = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-300);
}

/// gtest-safe parameterized-case name fragment: alphanumerics only (gtest
/// rejects names with '/', '-', '+').
inline std::string alnum_case_name(std::string_view s) {
  std::string out;
  for (char c : s)
    if (std::isalnum(static_cast<unsigned char>(c))) out += c;
  return out;
}

/// Memoized serial-LTS baseline per (physics, order, with_source).
inline const scenarios::RunResult& baseline(const Variant& like) {
  static std::map<std::tuple<int, int, bool>, scenarios::RunResult> cache;
  const auto key = std::make_tuple(static_cast<int>(like.physics), like.order, like.with_source);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Variant base = like;
    base.executor = kBaselineExecutor;
    it = cache.emplace(key, run_variant(base)).first;
  }
  return it->second;
}

/// A quasi-1D strip whose cell widths halve twice and recover, so levels 1,
/// 2 and 3 all hold several elements on both sides of the fine patch.
/// (make_strip_mesh grades its one jump through a single cell per
/// intermediate level.)
inline mesh::HexMesh graded_strip() {
  std::vector<real_t> xs{0};
  for (const auto& [cells, width] : {std::pair{8, 1.0}, {6, 0.5}, {8, 0.25}, {4, 0.5}, {6, 1.0}})
    for (int i = 0; i < cells; ++i) xs.push_back(xs.back() + width);
  return mesh::make_structured(xs, {0, 1}, {0, 1});
}

} // namespace ltswave::conformance

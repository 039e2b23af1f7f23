// Quickstart: fetch a named scenario from the registry, run it with local
// time stepping, and compare against the global-Newmark reference — both in
// accuracy and in work — then re-run the same scenario on a rank-parallel
// executor selected purely by registry name.
//
//   $ ./quickstart
//
// This touches the whole public API surface in ~80 lines: the scenario
// registry, the declarative ScenarioSpec, the executor registry, the
// WaveSimulation facade, level census, speedup model, and work counters.

#include <cmath>
#include <iostream>

#include "core/executor.hpp"
#include "runtime/threaded_lts.hpp"
#include "scenarios/scenario.hpp"

using namespace ltswave;

int main() {
  // Every execution backend and every workload is a registry entry.
  std::cout << "registered executors:\n";
  for (const auto& name : core::ExecutorFactory::instance().names())
    std::cout << "  " << name << " — " << core::ExecutorFactory::instance().description(name)
              << "\n";
  std::cout << "registered scenarios:\n";
  for (const auto& name : scenarios::names())
    std::cout << "  " << name << " — " << scenarios::get(name).description << "\n";

  // A small embedded refinement: a ball of elements 4x smaller than the bulk.
  const auto spec = scenarios::get("embedding").with_cycles(20);
  auto sim = spec.make_simulation();
  std::cout << "\nmesh: " << sim->mesh().num_elems() << " hex elements\n";
  std::cout << "LTS levels: " << sim->levels().num_levels << ", coarse dt = " << sim->dt()
            << ", theoretical speedup (Eq. 9) = " << sim->theoretical_speedup() << "\n";

  const real_t duration = scenarios::run_duration(spec, *sim);
  sim->run(duration);
  std::cout << "simulated " << sim->time() << " time units in " << sim->element_applies()
            << " element applies (executor '" << sim->executor_name() << "')\n";

  // The same scenario on the non-LTS reference, for the work comparison.
  auto ref = scenarios::ScenarioSpec(spec).with_executor("newmark").make_simulation();
  ref->run(duration);
  std::cout << "non-LTS reference needed " << ref->element_applies() << " element applies ("
            << static_cast<double>(ref->element_applies()) /
                   static_cast<double>(sim->element_applies())
            << "x more work)\n";

  // Solutions agree: compare the fields at the final time.
  real_t diff = 0, norm = 0;
  for (std::size_t i = 0; i < sim->u().size(); ++i) {
    diff = std::max(diff, std::abs(sim->u()[i] - ref->u()[i]));
    norm = std::max(norm, std::abs(ref->u()[i]));
  }
  std::cout << "max |u_LTS - u_ref| / max|u| = " << diff / norm << "\n";
  std::cout << "receiver trace samples: " << sim->receivers()[0].times().size() << "\n";

  // The same scenario on the rank-parallel executor: two ranks, level-aware
  // barriers with work stealing — selected by registry name, nothing else
  // changes. Results match the one-rank run to roundoff; the facade exposes
  // the executor's counters.
  auto pspec = scenarios::ScenarioSpec(spec)
                   .with_executor("threaded/level-aware+steal")
                   .with_ranks(2);
  pspec.scheduler.oversubscribe = runtime::Oversubscribe::Warn; // demo-friendly
  auto par = pspec.make_simulation();
  par->run(duration);
  real_t pdiff = 0;
  for (std::size_t i = 0; i < sim->u().size(); ++i)
    pdiff = std::max(pdiff, std::abs(par->u()[i] - sim->u()[i]));
  const std::vector<double> busy = par->threaded()->busy_seconds(); // one snapshot
  std::cout << "threaded (" << to_string(par->threaded()->mode()) << ", "
            << par->threaded()->num_ranks() << " ranks): max |u_par - u_LTS| = " << pdiff
            << ", busy s = [" << busy[0] << ", " << busy[1] << "]\n";
  return 0;
}

// Generic scenario front-end: run ANY registered scenario on ANY registered
// execution backend from the command line — the declarative API end-to-end.
//
//   $ ./scenario_runner                              # list both registries
//   $ ./scenario_runner scenario=layered
//   $ ./scenario_runner scenario=crust executor=threaded/level-aware+steal ranks=4
//   $ ./scenario_runner scenario=trench executor=threaded/barrier-all ranks=2 n=10
//   $ ./scenario_runner scenario=embedding order=4 cycles=12 report=run.json
//
// Every key=value override is validated with a message naming the accepted
// spellings; an unknown scenario or executor name prints the registry. The
// runner-only key `report=<path>` writes the structured perf::RunReport
// (per-phase timings, counters, roofline) as JSON after the run, and
// `output-dir=<dir>` writes one CSV seismogram per receiver into <dir>
// (created if missing).
//
// Fault tolerance (see docs/robustness.md):
//   * `checkpoint=<path>` saves a checkpoint at the end of the run (and, with
//     `checkpoint-every=<cycles>`, periodically during it — atomically, so a
//     crash mid-save keeps the previous good one).
//   * `restore=<path>` loads a checkpoint before running and continues to the
//     scenario's original end time.
//   * `kill-at-cycle=<k>` SIGKILLs the process after cycle k — the crash half
//     of the kill-and-resume smoke test (tools/kill_resume_smoke.sh).
//   * `recovery.*` scenario keys switch to supervised execution: the run
//     retries from the last good in-memory checkpoint per the policy.
//   * A run whose final u or any receiver trace holds a NaN/Inf prints the
//     non-finite count beside the max and exits 1 — also with the health
//     guard off (`health-every=-1`), which lets such a run finish.

#include <cmath>
#include <csignal>
#include <exception>
#include <filesystem>
#include <functional>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "core/executor.hpp"
#include "perf/run_report.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/supervisor.hpp"
#include "scenarios/scenario.hpp"

using namespace ltswave;

namespace {

/// Max |x| over the finite entries and the count of non-finite ones;
/// std::max alone would drop a NaN and report a blown-up field as calm.
struct FieldSummary {
  real_t max_abs = 0;
  std::size_t non_finite = 0;
};

FieldSummary summarize(std::span<const real_t> xs) {
  FieldSummary s;
  for (const real_t x : xs) {
    if (std::isfinite(x))
      s.max_abs = std::max(s.max_abs, std::abs(x));
    else
      ++s.non_finite;
  }
  return s;
}

std::ostream& operator<<(std::ostream& os, const FieldSummary& s) {
  if (s.non_finite == 0) return os << s.max_abs;
  return os << "nan (" << s.non_finite << " non-finite)";
}

} // namespace

int main(int argc, char** argv) {
  if (argc <= 1) {
    std::cout << "usage: scenario_runner scenario=<name> [key=value ...] [report=<path>]\n\n"
                 "scenarios:\n";
    for (const auto& name : scenarios::names())
      std::cout << "  " << name << " — " << scenarios::get(name).description << "\n";
    std::cout << "\nexecutors (executor=<name>):\n";
    for (const auto& name : core::ExecutorFactory::instance().names())
      std::cout << "  " << name << " — " << core::ExecutorFactory::instance().description(name)
                << "\n";
    std::cout << "\nkeys: " << scenarios::cli_keys_help()
              << " | report | output-dir | checkpoint | checkpoint-every | restore"
                 " | kill-at-cycle\n";
    return 0;
  }

  try {
    // Runner keys (report/checkpoint/restore/kill) are not scenario keys —
    // filter them out before the spec parser sees the argv tail.
    std::string report_path, ckpt_path, restore_path, output_dir;
    std::int64_t ckpt_every = 0, kill_at = -1;
    std::vector<const char*> kept;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg.rfind("report=", 0) == 0)
        report_path = arg.substr(7);
      else if (arg.rfind("output-dir=", 0) == 0)
        output_dir = arg.substr(11);
      else if (arg.rfind("checkpoint=", 0) == 0)
        ckpt_path = arg.substr(11);
      else if (arg.rfind("checkpoint-every=", 0) == 0)
        ckpt_every = std::stoll(std::string(arg.substr(17)));
      else if (arg.rfind("restore=", 0) == 0)
        restore_path = arg.substr(8);
      else if (arg.rfind("kill-at-cycle=", 0) == 0)
        kill_at = std::stoll(std::string(arg.substr(14)));
      else
        kept.push_back(argv[i]);
    }
    const std::span<const char* const> args{kept.data(), kept.size()};
    auto spec = scenarios::from_args(args, "strip");
    // Demo ergonomics: documented commands run ranks=N on laptops/CI boxes
    // with fewer cores, so default the policy to a warning, then re-apply the
    // CLI so an explicit user choice (any accepted spelling) wins.
    spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
    spec.apply_cli(args);

    if (spec.recovery.supervised()) {
      // Supervised execution: the Supervisor owns checkpointing (in-memory)
      // and the retry loop; the crash-restart runner keys don't apply.
      resilience::Supervisor sup(spec);
      const WallTimer wall;
      auto result = sup.run();
      result.report.wall_seconds = wall.seconds();
      std::cout << "scenario '" << spec.name << "' supervised (" << resilience::to_string(
                       spec.recovery.on_blowup) << ", checkpoint every "
                << spec.recovery.checkpoint_every << " cycles): ran to t = " << result.end_time
                << " on executor '" << result.final_executor << "' with "
                << result.retries_used << " retries\n";
      for (const auto& ev : result.report.events)
        std::cout << "  [" << ev.kind << (ev.action.empty() ? "" : ":" + ev.action)
                  << "] cycle " << ev.cycle << (ev.detail.empty() ? "" : " — " + ev.detail)
                  << "\n";
      if (!report_path.empty()) {
        perf::write_json(result.report, report_path);
        std::cout << "wrote run report to " << report_path << "\n";
      }
      return 0;
    }

    auto sim = spec.make_simulation();
    std::cout << "scenario '" << spec.name << "' (" << spec.description << ")\n"
              << "  " << sim->mesh().num_elems() << " elements, order " << spec.order << ", "
              << sim->levels().num_levels << " LTS levels, theoretical speedup "
              << sim->theoretical_speedup() << "x\n"
              << "  executor '" << sim->executor_name() << "', config: "
              << core::to_string(spec.config()) << "\n";

    if (!restore_path.empty()) {
      sim->restore(resilience::load(restore_path));
      std::cout << "restored checkpoint " << restore_path << " (t = " << sim->time()
                << ", cycle " << sim->cycles() << ")\n";
    }

    // Total span is fixed by the scenario; a restored run covers what's left,
    // so crash-resume lands on the same end time as an uninterrupted run.
    const real_t duration = scenarios::run_duration(spec, *sim);
    std::function<void(real_t)> on_step;
    if (ckpt_every > 0 || kill_at >= 0)
      on_step = [&](real_t) {
        const std::int64_t c = sim->cycles();
        if (ckpt_every > 0 && !ckpt_path.empty() && c % ckpt_every == 0)
          resilience::save(sim->checkpoint(), ckpt_path);
        if (kill_at >= 0 && c >= kill_at) {
          std::cout << "kill-at-cycle: raising SIGKILL at cycle " << c << std::endl;
          std::raise(SIGKILL);
        }
      };
    const WallTimer wall;
    const auto steps = sim->run(duration - sim->time(), on_step);
    const double wall_seconds = wall.seconds();
    std::cout << "ran " << steps << " coarse cycles to t = " << sim->time() << " in "
              << sim->element_applies() << " element applies\n";

    const FieldSummary u_summary = summarize(sim->u());
    std::size_t non_finite = u_summary.non_finite;
    std::cout << "max |u| = " << u_summary << "\n";
    for (std::size_t i = 0; i < sim->receivers().size(); ++i) {
      const auto& r = sim->receivers()[i];
      const FieldSummary r_summary = summarize(r.values());
      non_finite += r_summary.non_finite;
      std::cout << "receiver " << i << ": " << r.times().size() << " samples, max |v| = "
                << r_summary << "\n";
    }
    if (!output_dir.empty()) {
      std::filesystem::create_directories(output_dir);
      for (std::size_t i = 0; i < sim->receivers().size(); ++i) {
        const auto path =
            std::filesystem::path(output_dir) / ("seismogram_" + std::to_string(i) + ".csv");
        sim->receivers()[i].write_csv(path.string());
        std::cout << "wrote " << path.string() << "\n";
      }
    }

    if (!ckpt_path.empty()) {
      resilience::save(sim->checkpoint(), ckpt_path);
      std::cout << "wrote checkpoint to " << ckpt_path << "\n";
    }

    perf::RunReport report = sim->run_report();
    report.scenario = spec.name;
    report.wall_seconds = wall_seconds;
    std::cout << "\n";
    perf::print_phase_table(std::cout, report);
    if (!report_path.empty()) {
      perf::write_json(report, report_path);
      std::cout << "wrote run report to " << report_path << "\n";
    }
    if (non_finite > 0) {
      std::cerr << "run blew up: " << non_finite
                << " non-finite values in u and the receiver traces\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}

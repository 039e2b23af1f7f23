#pragma once

/// \file run_report.hpp
/// Structured per-run observability record: the phase-timer / counter registry
/// every core::Executor backend fills per advance, plus the single JSON
/// emission path shared by WaveSimulation, ScenarioSpec::run() and both bench
/// binaries (BENCH_*.json).
///
/// The paper's load-balance argument is an accounting argument — work per
/// level, stalls per rank, bytes moved per substep — so the report carries
/// exactly those axes:
///  * ordered PhaseStat entries (per-level kernel time "eval.L<k>", the
///    reduction fold "reduce", row updates "update", source injection
///    "sources", receiver sampling "receivers", and barrier wait "barrier");
///  * the per-rank busy/stall/steal vectors (lifetime, matching
///    core::ExecutorCounters — one slot per rank);
///  * lifetime work counters (cycles, element applies, blocks applied);
///  * an optional static roofline record (see roofline.hpp) giving the
///    flop/byte balance of the plan the run executed.
///
/// The header is deliberately self-contained (std + common only): core/,
/// runtime/ and sem/ all include it, so it must sit below every other layer.
///
/// Instrumentation contract: phase timing lives at existing solver phase
/// boundaries (one WallTimer read per phase per substep) — never inside
/// sem::*::apply_add_blocks, so the kernel microbench path carries zero
/// instrumentation overhead.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/simd.hpp"
#include "common/types.hpp"

namespace ltswave::perf {

/// One accumulated phase: total seconds across all timed intervals and the
/// number of intervals. Both are monotone over a run (accumulators are only
/// ever added to between reset_counters calls).
struct PhaseStat {
  std::string name;
  double seconds = 0;
  std::int64_t count = 0;

  bool operator==(const PhaseStat&) const = default;
};

/// Static roofline record for one executed BatchPlan (or one static
/// (physics, order) point): flops and main-memory bytes per element under the
/// microbench traffic model, totals over the plan's real elements, and the
/// derived balance ratios. Computed by perf::roofline_for_plan /
/// perf::roofline_static (roofline.hpp).
struct RooflineStat {
  std::string physics;     ///< "acoustic" | "elastic"
  int order = 0;           ///< polynomial order (nodes_1d - 1)
  int block_width = 0;     ///< BatchPlan lane count W (0 for static models)
  std::int64_t elements = 0; ///< real (unpadded) elements accounted
  double flops_per_elem = 0;
  double bytes_per_elem = 0; ///< plan-average (affine blocks stream less)
  double flops_total = 0;
  double bytes_total = 0;
  double bytes_per_flop = 0;
  double arithmetic_intensity = 0; ///< flop/byte — the roofline x-axis

  bool operator==(const RooflineStat&) const = default;
};

/// One resilience event in a run's history: an injected fault firing, a
/// health-guard trip, a checkpoint, a rollback-and-retry. `kind` names what
/// happened ("fault-injected", "blowup-detected", "worker-stall", "checkpoint",
/// "recovery"), `action` what was done about it ("halve_dt", "fallback_executor",
/// "rollback", "" for pure observations), `cycle` where in the run, `detail`
/// free-form context (the error message, the fallback executor name, ...).
struct RunEvent {
  std::string kind;
  std::string action;
  std::int64_t cycle = 0;
  std::string detail;

  bool operator==(const RunEvent&) const = default;
};

/// One run's structured observability snapshot. Executors assemble it in
/// Executor::run_report(); benches fill it directly. Plain value type — safe
/// to copy, compare and serialize.
struct RunReport {
  std::string executor; ///< registry spelling ("threaded/level-aware", ...)
  std::string scenario; ///< registered scenario name, or a bench label
  std::string config;   ///< key=value config string (kv grammar), free-form
  std::int64_t cycles = 0;          ///< coarse LTS cycles advanced
  double time = 0;                  ///< simulated seconds
  double wall_seconds = 0;          ///< end-to-end wall time of the run
  std::int64_t element_applies = 0; ///< per-element stiffness applies
  std::int64_t blocks_applied = 0;  ///< batched kernel block applies
  std::string simd_isa = std::string(simd::isa_name()); ///< compiled SIMD ISA
  int simd_width = simd::kWidth;    ///< compiled real_t lanes per vector
  std::vector<double> rank_busy_seconds;        ///< per rank; empty if serial
  std::vector<double> rank_stall_seconds;       ///< per rank; empty if serial
  std::vector<std::int64_t> rank_steal_counts;  ///< per rank; empty if serial
  std::vector<PhaseStat> phases; ///< insertion-ordered phase accumulators
  std::optional<RooflineStat> roofline;
  std::vector<RunEvent> events; ///< resilience history, in occurrence order

  /// Accumulates (seconds, count) onto the named phase, appending it in
  /// insertion order on first use.
  void add_phase(std::string_view name, double seconds, std::int64_t count = 1);

  /// Total seconds of the named phase; 0 when absent.
  [[nodiscard]] double phase_seconds(std::string_view name) const noexcept;

  /// Pointer into phases, or nullptr when absent.
  [[nodiscard]] const PhaseStat* find_phase(std::string_view name) const noexcept;

  bool operator==(const RunReport&) const = default;
};

/// Serializes one report (or a BENCH-style array of reports) as JSON. Reals
/// are formatted with kv::format_real (shortest exact round-trip), so
/// from_json(to_json(r)) == r holds bit-for-bit.
[[nodiscard]] std::string to_json(const RunReport& report);
[[nodiscard]] std::string to_json(const std::vector<RunReport>& reports);

/// Writes to_json(...) to `path` (truncating); throws CheckFailure when the
/// file cannot be written.
void write_json(const RunReport& report, const std::string& path);
void write_json(const std::vector<RunReport>& reports, const std::string& path);

/// Parses a report previously produced by to_json; unknown keys are ignored
/// (forward compatibility), malformed JSON throws CheckFailure. The array
/// overload accepts both a JSON array and a single object (returned as a
/// one-element vector).
[[nodiscard]] RunReport run_report_from_json(std::string_view json);
[[nodiscard]] std::vector<RunReport> run_reports_from_json(std::string_view json);

/// Fixed-width per-phase summary table (phase, seconds, count, share of total
/// phase time) — what bench-smoke prints into the job log.
void print_phase_table(std::ostream& os, const RunReport& report);

} // namespace ltswave::perf

#pragma once

/// \file simulation.hpp
/// High-level facade tying the whole stack together: mesh -> SEM space ->
/// wave operator -> LTS levels -> execution backend. This is the entry point
/// example applications use; lower layers stay fully accessible for advanced
/// use.
///
/// Execution is fully pluggable: the facade holds exactly one core::Executor
/// created by name through ExecutorFactory (see executor.hpp) and contains no
/// per-backend branching. SimulationConfig::executor is the one selector
/// ("serial-lts" by default, "newmark", "threaded/<mode>", or any externally
/// registered name).

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/lts_newmark.hpp"
#include "partition/partitioners.hpp"
#include "perf/run_report.hpp"
#include "resilience/fault.hpp"
#include "runtime/scheduler.hpp"
#include "sem/sources.hpp"

namespace ltswave::runtime {
class ThreadedLtsSolver;
}
namespace ltswave::resilience {
struct Checkpoint;
class HealthGuard;
}

namespace ltswave::core {

class Executor;

enum class Physics { Acoustic, Elastic };

[[nodiscard]] std::string to_string(Physics p);
[[nodiscard]] Physics parse_physics(std::string_view name);

struct SimulationConfig {
  int order = 4;               ///< SEM polynomial order (paper: 4 -> 125 nodes/elem)
  Physics physics = Physics::Acoustic;
  real_t courant = 0.12;       ///< CFL constant C_cfl of Eq. 7 (relative to min edge)
  level_t max_levels = 12;
  /// Rank count of the "threaded/<mode>" executors; one rank or fewer runs
  /// the LTS engine inline on the calling thread. Other executors ignore it.
  rank_t num_ranks = 0;
  /// Thread-pool settings of the threaded executors. `scheduler.mode` is not
  /// a config setting: each threaded executor takes it from its registry key.
  runtime::SchedulerConfig scheduler{};
  partition::Strategy partitioner = partition::Strategy::ScotchP;
  /// Steal/stall-feedback repartitioning (feedback-capable executors only):
  /// when > 0, the first run() call executes this many warm-up cycles, folds
  /// the measured per-rank busy/stall/steal counters back into the
  /// partitioner (partition::refine_with_feedback), rebuilds the executor on
  /// the refined partition with the state carried over exactly, and
  /// continues. 0 = off.
  int feedback_warmup_cycles = 0;
  /// Execution backend by ExecutorFactory name.
  std::string executor = "serial-lts";
  /// Health-guard cadence: -1 disables it, 0 (default) checks the state once
  /// at the end of every run() call — free relative to a run's kernel work —
  /// and N > 0 splits each run into N-cycle chunks checked individually.
  std::int64_t health_every = 0;
  /// Deterministic fault-injection plan (`fault.*` keys); inert by default.
  resilience::FaultPlan fault;

  bool operator==(const SimulationConfig&) const = default;
};

/// "order=4 physics=acoustic courant=0.12 max-levels=12 ranks=0
///  partitioner=scotch-p feedback=0 executor=serial-lts
///  scheduler.oversubscribe=forbid scheduler.chunk=0" — round-trips through
/// parse_simulation_config exactly, scheduler.mode aside (it is no key).
/// Opt-in keys (the resilience family) print only when set, so default
/// configs keep this exact string.
[[nodiscard]] std::string to_string(const SimulationConfig& cfg);

/// Applies one `key=value` setting to `cfg`. Returns false when `key` is not
/// a SimulationConfig key (bad values for known keys still throw, with a
/// message listing the accepted spellings). Accepts both the dotted keys
/// to_string prints (scheduler.chunk=...) and the short scenario-CLI
/// spellings (oversubscribe=..., chunk=...) — the one dispatch
/// both parse_simulation_config and ScenarioSpec::apply_override share, so
/// the two CLI surfaces cannot drift.
[[nodiscard]] bool try_simulation_config_key(SimulationConfig& cfg, std::string_view key,
                                             std::string_view value);

/// The keys try_simulation_config_key accepts, for error messages and usage
/// lines.
[[nodiscard]] std::string_view simulation_config_keys_help();

/// Parses the to_string format (keys in any order, all optional; defaults
/// apply to omitted keys). Throws CheckFailure naming the accepted keys and
/// spellings on any unknown key or bad value — the CLI entry point.
[[nodiscard]] SimulationConfig parse_simulation_config(std::string_view text);

class WaveSimulation {
public:
  /// Takes the mesh by value: the facade owns its whole stack (the SEM space
  /// keeps pointers into the mesh, so borrowing a caller temporary would
  /// dangle). Pass std::move(mesh) to avoid the copy.
  explicit WaveSimulation(mesh::HexMesh mesh, SimulationConfig cfg = {});
  ~WaveSimulation();

  [[nodiscard]] const sem::SemSpace& space() const noexcept { return *space_; }
  [[nodiscard]] const sem::WaveOperator& op() const noexcept { return *op_; }
  [[nodiscard]] const LevelAssignment& levels() const noexcept { return levels_; }
  [[nodiscard]] const LtsStructure& structure() const noexcept { return structure_; }
  [[nodiscard]] int ncomp() const noexcept { return op_->ncomp(); }
  [[nodiscard]] real_t dt() const noexcept;
  [[nodiscard]] real_t time() const noexcept;

  void add_source(std::array<real_t, 3> location, real_t peak_frequency,
                  std::array<real_t, 3> direction = {0, 0, 1}, real_t amplitude = 1.0);
  void add_receiver(std::array<real_t, 3> location, int component = 0);

  void set_state(std::span<const real_t> u0, std::span<const real_t> v0);

  /// Advances by (at least) `duration` simulated seconds; receivers sample at
  /// every coarse step. Returns the number of coarse steps taken. When the
  /// health guard is on (cfg.health_every >= 0, the default), the state is
  /// scanned for NaN/Inf and energy blow-up and resilience::NumericalBlowup
  /// thrown the moment a check trips.
  std::int64_t run(real_t duration, const std::function<void(real_t)>& on_step = {});

  /// Complete restartable image of the simulation at the current cycle
  /// boundary: backend state snapshot plus receiver trace history. Drains
  /// backend trace buffers first (hence non-const). Persist with
  /// resilience::save / resilience::load.
  [[nodiscard]] resilience::Checkpoint checkpoint();

  /// Rewinds (or fast-forwards) this simulation to a checkpoint — including
  /// one written by a *different* backend: same-backend restores are bitwise,
  /// cross-backend ones recompute the frozen-force accumulators (exact to
  /// roundoff). The facade must be built from the same scenario (same dof
  /// count and receiver set); mismatches throw CheckpointMismatch. Restoring
  /// onto a different dt (e.g. after halve_dt recovery) must be explicit via
  /// `allow_dt_change`.
  void restore(const resilience::Checkpoint& ck, bool allow_dt_change = false);

  /// Coarse cycles completed since construction (or since the last restore's
  /// snapshot count).
  [[nodiscard]] std::int64_t cycles() const;

  /// The displacement vector: the backend's live vector (Executor::state()),
  /// no copy. The reference is valid until the next run, restore or
  /// repartitioning.
  [[nodiscard]] const std::vector<real_t>& u() const;
  [[nodiscard]] const std::vector<sem::Receiver>& receivers() const noexcept { return receivers_; }
  [[nodiscard]] std::vector<sem::Receiver>& receivers() noexcept { return receivers_; }

  /// Element applies consumed so far (work counter; the serial-efficiency
  /// experiment compares this against the non-LTS scheme).
  [[nodiscard]] std::int64_t element_applies() const;

  /// Batched kernel calls consumed so far (every backend runs the
  /// BatchPlan block path; one call advances up to a block width of elements).
  [[nodiscard]] std::int64_t blocks_applied() const;

  /// Theoretical LTS speedup of this mesh/config (Eq. 9).
  [[nodiscard]] double theoretical_speedup() const { return core::theoretical_speedup(levels_); }

  /// Structured performance report for the run so far: the backend's
  /// per-phase timings, counters and roofline (Executor::run_report) with the
  /// facade's config string attached. Serialize with perf::to_json /
  /// perf::write_json.
  [[nodiscard]] perf::RunReport run_report() const;

  /// The execution backend driving this simulation and its registry name.
  [[nodiscard]] const Executor& executor() const noexcept { return *executor_; }
  [[nodiscard]] Executor& executor() noexcept { return *executor_; }
  [[nodiscard]] const std::string& executor_name() const noexcept { return cfg_.executor; }

  /// The LTS engine when the backend runs it (every builtin backend, "newmark"
  /// included), else nullptr.
  /// Exposes scheduler mode, per-rank busy/stall/steal counters, and
  /// per-level participation to benches and examples.
  [[nodiscard]] const runtime::ThreadedLtsSolver* threaded() const noexcept;
  [[nodiscard]] runtime::ThreadedLtsSolver* threaded() noexcept;

  /// The mesh partition driving the backend (one part for "serial-lts" and
  /// "newmark"; empty for a backend without one).
  [[nodiscard]] const partition::Partition& part() const noexcept;

  /// Repartitions from the backend's measured busy/stall/steal counters
  /// (partition::refine_with_feedback) and rebuilds it on the refined
  /// partition; the dynamical state, sources, and receiver traces carry over
  /// exactly, so a run continues mid-simulation. Requires a feedback-capable
  /// backend (threaded). run() triggers this automatically after
  /// `feedback_warmup_cycles` when configured; benches call it directly.
  void refine_partition_from_feedback();

  [[nodiscard]] const mesh::HexMesh& mesh() const noexcept { return mesh_; }

private:
  SimulationConfig cfg_;
  mesh::HexMesh mesh_;
  std::unique_ptr<sem::SemSpace> space_;
  std::unique_ptr<sem::WaveOperator> op_;
  LevelAssignment levels_;
  LtsStructure structure_;
  std::unique_ptr<Executor> executor_;
  std::vector<sem::Receiver> receivers_;
  std::unique_ptr<resilience::HealthGuard> guard_;
  bool feedback_applied_ = false;

  void advance(std::int64_t cycles, const std::function<void(real_t)>& on_step);
};

} // namespace ltswave::core

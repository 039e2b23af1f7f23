#include "core/executor.hpp"

#include <sstream>

#include "core/simulation.hpp"
#include "partition/feedback.hpp"
#include "partition/partitioners.hpp"
#include "resilience/error.hpp"
#include "resilience/fault.hpp"
#include "runtime/threaded_lts.hpp"

namespace ltswave::core {

namespace {

/// The production LTS backend: partitions the mesh into `ranks` parts and
/// drives ThreadedLtsSolver under a fixed scheduler mode — on the persistent
/// pool for several ranks, inline on the calling thread for one ("serial-lts",
/// and threaded/<mode> with ranks <= 1). One registry entry per
/// SchedulerMode, so the conformance grid exercises every synchronization
/// strategy without hand-written lists. "newmark" is the same backend on one
/// rank over a one-level census.
class ThreadedExecutor final : public Executor {
public:
  ThreadedExecutor(std::string name, const ExecutorContext& ctx, runtime::SchedulerMode mode,
                   rank_t ranks)
      : Executor(std::move(name)), ctx_(ctx) {
    if (ctx.cfg) scfg_ = ctx.cfg->scheduler;
    scfg_.mode = mode; // the registry key, not the config field, decides
    if (ranks > 1) {
      LTS_CHECK_MSG(ctx.cfg && ctx.mesh, "executor '" << this->name()
                                                      << "' needs ExecutorContext.cfg and .mesh "
                                                         "(it partitions the mesh)");
      partition::PartitionerConfig pc;
      pc.strategy = ctx.cfg->partitioner;
      pc.num_parts = ranks;
      part_ = partition::partition_mesh(*ctx.mesh, ctx.levels->elem_level,
                                        ctx.levels->num_levels, pc);
    } else {
      part_.num_parts = 1;
      part_.part.assign(static_cast<std::size_t>(ctx.op->space().num_elems()), 0);
    }
    solver_ = std::make_unique<runtime::ThreadedLtsSolver>(*ctx.op, *ctx.levels, *ctx.structure,
                                                           part_, scfg_);
    if (ctx.cfg && ctx.cfg->fault.armed()) solver_->set_fault(ctx.cfg->fault);
  }

  void set_state(std::span<const real_t> u0, std::span<const real_t> v0) override {
    solver_->set_state(u0, v0);
  }
  [[nodiscard]] const std::vector<real_t>& state() const override { return solver_->u(); }
  [[nodiscard]] real_t time() const override { return solver_->time(); }
  [[nodiscard]] std::int64_t element_applies() const override { return solver_->element_applies(); }
  [[nodiscard]] std::int64_t blocks_applied() const override { return solver_->blocks_applied(); }
  [[nodiscard]] std::span<const real_t> v_half() const override { return solver_->v_half(); }
  [[nodiscard]] std::int64_t cycles() const override { return solver_->cycles_done(); }

  [[nodiscard]] ExecutorCounters counters() const override {
    return {solver_->busy_seconds(), solver_->stall_seconds(), solver_->steal_counts(),
            solver_->blocks_applied()};
  }
  /// Repartitioning needs more than one part to move work between.
  [[nodiscard]] bool supports_feedback() const noexcept override {
    return solver_->num_ranks() > 1;
  }
  [[nodiscard]] runtime::ThreadedLtsSolver* threaded_solver() const noexcept override {
    return solver_.get();
  }
  [[nodiscard]] const partition::Partition* partition() const noexcept override { return &part_; }

  /// Appends every accumulated (time, value) sample into the matching sink
  /// and clears the trace.
  void drain_receivers(std::span<sem::Receiver> sinks) override {
    auto& traces = solver_->traces();
    LTS_CHECK(sinks.size() == traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      for (std::size_t s = 0; s < traces[i].times.size(); ++s)
        sinks[i].append(traces[i].times[s], traces[i].values[s]);
      traces[i].times.clear();
      traces[i].values.clear();
    }
  }

  [[nodiscard]] ExecutorState export_state() const override {
    ExecutorState s;
    s.u = solver_->u();
    s.v_half.assign(solver_->v_half().begin(), solver_->v_half().end());
    s.time = solver_->time();
    s.dt = solver_->dt();
    s.cycles = solver_->cycles_done();
    s.element_applies = solver_->element_applies();
    s.blocks_applied = solver_->blocks_applied();
    // The threaded solver derives per-level work from the integer cycle count
    // (level k runs level_rate(k) substeps over E(k) per cycle), so the
    // per-level split is exact without per-level counters.
    const level_t nl = ctx_.levels->num_levels;
    s.applies_per_level.resize(static_cast<std::size_t>(nl), 0);
    for (level_t k = 1; k <= nl; ++k)
      s.applies_per_level[static_cast<std::size_t>(k - 1)] =
          solver_->cycles_done() * static_cast<std::int64_t>(level_rate(k)) *
          static_cast<std::int64_t>(
              ctx_.structure->eval_elems[static_cast<std::size_t>(k - 1)].size());
    s.frozen_forces = solver_->frozen_forces();
    s.cumulative = solver_->cumulative();
    return s;
  }

  void import_state(const ExecutorState& s) override {
    if (s.u.size() != solver_->u().size() || s.v_half.size() != s.u.size())
      LTS_RAISE(resilience::CheckpointMismatch,
                "checkpoint state has " << s.u.size() << " dofs but executor '" << name()
                                        << "' expects " << solver_->u().size());
    solver_->adopt_raw_state(s.u, s.v_half, s.time, s.cycles);
    solver_->import_accumulators(s.frozen_forces, s.cumulative);
    for (auto& t : solver_->traces()) {
      t.times.clear();
      t.values.clear();
    }
  }

  void refine_from_feedback() override {
    if (!supports_feedback()) {
      Executor::refine_from_feedback();
      return;
    }
    partition::FeedbackSignal sig;
    sig.busy_seconds = solver_->busy_seconds();
    sig.stall_seconds = solver_->stall_seconds();
    sig.steal_counts = solver_->steal_counts();

    partition::PartitionerConfig pc;
    pc.strategy = ctx_.cfg->partitioner;
    pc.num_parts = part_.num_parts;
    part_ = partition::refine_with_feedback(*ctx_.mesh, ctx_.levels->elem_level,
                                            ctx_.levels->num_levels, part_, sig, pc);
    auto fresh = std::make_unique<runtime::ThreadedLtsSolver>(*ctx_.op, *ctx_.levels,
                                                              *ctx_.structure, part_, scfg_);
    fresh->adopt_state_from(*solver_);
    solver_ = std::move(fresh);
  }

private:
  void do_advance_cycles(std::int64_t cycles) override {
    // An injected fault may surface as a throw (fault.kind=throw, or the
    // watchdog's WorkerStall on a stalled rank) — record the firing in the
    // event log either way before letting it propagate.
    const bool fired_before = solver_->fault_fired();
    const auto note = [&] {
      if (!fired_before && solver_->fault_fired())
        record_event({"fault-injected", "", solver_->cycles_done(),
                      "fault.kind=" + resilience::to_string(ctx_.cfg->fault.kind)});
    };
    try {
      solver_->run_cycles(cycles);
    } catch (...) {
      note();
      throw;
    }
    note();
  }
  void do_add_source(const sem::PointSource& src) override { solver_->add_source(src); }
  void do_add_receiver(gindex_t node, int component) override {
    solver_->add_receiver(node, component);
  }
  /// Phases, cycle count and roofline all come from the solver's own report
  /// (the per-rank slots it tallies on the pool workers); the adapter keeps
  /// its registry name and the counter vectors the base already copied.
  void fill_report(perf::RunReport& r) const override {
    perf::RunReport s = solver_->run_report();
    r.cycles = s.cycles;
    r.phases = std::move(s.phases);
    r.roofline = s.roofline;
  }

  void do_adopt_state_from(const Executor& prev) override {
    // Cross-mode hand-off between threaded backends is fine (the solver's
    // adopt only requires the same operator/levels/structure; the partition
    // and scheduler may differ — that is the whole point of feedback
    // repartitioning).
    const auto* p = dynamic_cast<const ThreadedExecutor*>(&prev);
    LTS_CHECK_MSG(p, "executor '" << name() << "' cannot adopt state from '" << prev.name()
                                  << "' — backends hand off within their own kind");
    solver_->adopt_state_from(*p->solver_);
  }

  ExecutorContext ctx_;
  runtime::SchedulerConfig scfg_;
  partition::Partition part_;
  std::unique_ptr<runtime::ThreadedLtsSolver> solver_;
};

} // namespace

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

ExecutorFactory& ExecutorFactory::instance() {
  static ExecutorFactory factory;
  return factory;
}

ExecutorFactory::ExecutorFactory() {
  // Global Newmark (paper Eq. 5-6) is the one-level case of the LTS
  // recursion, so "newmark" is the engine on one rank over the facade's
  // single-level census at the CFL minimum step.
  register_backend(
      "newmark",
      "global explicit Newmark at the CFL minimum step (non-LTS reference): the LTS engine "
      "on one level and one rank",
      [](const ExecutorContext& ctx) -> std::unique_ptr<Executor> {
        // A multi-level census means levels->dt is the *coarse* step —
        // stepping the whole mesh at it violates CFL on the fine elements and
        // blows up without a diagnostic. Callers must build the context with
        // assign_single_level (consult ExecutorFactory::uses_lts_levels, as
        // the facade does).
        LTS_CHECK_MSG(ctx.levels->num_levels == 1,
                      "executor 'newmark' needs a single-level census (got "
                          << ctx.levels->num_levels
                          << " levels) — build levels with assign_single_level");
        return std::make_unique<ThreadedExecutor>("newmark", ctx,
                                                  runtime::SchedulerMode::LevelAware, 1);
      },
      /*uses_lts_levels=*/false);
  // Always one rank, whatever the config's rank count: the Supervisor's
  // fallback to "serial-lts" keeps the failed run's config.
  register_backend("serial-lts",
                   "multi-level LTS-Newmark (paper Sec. II-C) on one rank, inline on the "
                   "calling thread — the conformance baseline",
                   [](const ExecutorContext& ctx) -> std::unique_ptr<Executor> {
                     return std::make_unique<ThreadedExecutor>(
                         "serial-lts", ctx, runtime::SchedulerMode::LevelAware, 1);
                   });
  for (const runtime::SchedulerMode mode : runtime::kAllSchedulerModes) {
    const std::string key = "threaded/" + runtime::to_string(mode);
    register_backend(key,
                     "rank-parallel LTS on the persistent thread pool, scheduler '" +
                         runtime::to_string(mode) + "', ranks=N (inline when N <= 1)",
                     [key, mode](const ExecutorContext& ctx) -> std::unique_ptr<Executor> {
                       LTS_CHECK_MSG(ctx.cfg, "executor '" << key
                                                           << "' needs ExecutorContext.cfg "
                                                              "(it reads ranks from it)");
                       return std::make_unique<ThreadedExecutor>(key, ctx, mode,
                                                                 ctx.cfg->num_ranks);
                     });
  }
}

void ExecutorFactory::register_backend(std::string name, std::string description, Builder builder,
                                       bool uses_lts_levels) {
  LTS_CHECK_MSG(!name.empty() && builder, "executor registration needs a name and a builder");
  const auto [it, inserted] = backends_.emplace(
      std::move(name), Entry{std::move(builder), std::move(description), uses_lts_levels});
  LTS_CHECK_MSG(inserted, "executor '" << it->first << "' is already registered");
}

const ExecutorFactory::Entry& ExecutorFactory::entry_or_throw(std::string_view name) const {
  const auto it = backends_.find(name);
  if (it == backends_.end()) {
    std::ostringstream os;
    for (const auto& [key, entry] : backends_) os << "\n  " << key << " — " << entry.description;
    LTS_CHECK_MSG(false, "unknown executor '" << name << "'; registered backends:" << os.str());
  }
  return it->second;
}

std::unique_ptr<Executor> ExecutorFactory::create(std::string_view name,
                                                  const ExecutorContext& ctx) const {
  LTS_CHECK_MSG(ctx.op && ctx.levels && ctx.structure,
                "ExecutorContext needs at least op, levels and structure");
  return entry_or_throw(name).builder(ctx);
}

bool ExecutorFactory::contains(std::string_view name) const {
  return backends_.find(name) != backends_.end();
}

bool ExecutorFactory::uses_lts_levels(std::string_view name) const {
  return entry_or_throw(name).uses_lts_levels;
}

std::string ExecutorFactory::description(std::string_view name) const {
  return entry_or_throw(name).description;
}

std::vector<std::string> ExecutorFactory::names() const {
  std::vector<std::string> out;
  out.reserve(backends_.size());
  for (const auto& [key, entry] : backends_) out.push_back(key);
  return out; // std::map iteration is already sorted
}

} // namespace ltswave::core

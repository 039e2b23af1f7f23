#pragma once

/// \file threaded_lts.hpp
/// The production multi-level LTS-Newmark engine (paper Sec. II-C), executed
/// rank-parallel on shared memory: one persistent pool worker per partition,
/// mirroring the paper's MPI structure (SPECFEM-style partial assembly +
/// interface exchange). A one-part partition runs the same recursion inline
/// on the driving thread — no pool, no barriers — which is the "serial-lts"
/// backend.
///
/// Per level k a rank touches only its share of:
///   - E(k) elements for force evaluations (own + halo elements),
///   - R(k+1) rows for the velocity reconstruction,
///   - S(k) rows for the collapsed leapfrog update (rows whose forces are
///     frozen during finer substeps evolve exactly as a single leapfrog step
///     with that frozen force, so the fine recursion is skipped).
/// Work per cycle is sum_k p_k |E(k)| element applies, matching the speedup
/// model (Eq. 9) up to the halo overhead; core::LtsNewmarkReference is the
/// independent full-vector transcription it is tested against.
///
/// Each rank owns the elements its partition assigns; stiffness applications
/// accumulate into a rank-private buffer, and a reduction phase (the stand-in
/// for MPI point-to-point exchange) sums the contributions of rows several
/// ranks touch, in ascending rank order, into the owner's buffer.
///
/// One ownership rule places all row work. A row's level-k contributions are
/// summed and folded (scaled by Minv into level k's frozen force) by the
/// minimum rank touching it at level k; the row is updated — its leapfrog
/// step at its level rho and its reconstructions at the coarser levels — by
/// the minimum rank touching it at rho. Every row of eval_rows(k) has rho >=
/// k, so it lies either in S(k), where fold owner and updater coincide, or
/// in R(k+1). The fold of S(k) rows is therefore fused into the level-k
/// update after the child levels: they never write cumulative or read level
/// k's contributions on an S(k) row, so deferring the fold leaves every
/// result bitwise unchanged. Only eval_rows(k) ∩ R(k+1), which the children
/// read, is folded before them, and the deepest level (eval_rows(N) ==
/// S(N)) folds nothing ahead of its update. On one level this is the plain
/// leapfrog step v -= dt * (Minv K u); u += dt * v in one pass.
///
/// Every row list — the structure's and each rank's share of it — is stored
/// as sorted runs of consecutive rows (core::RowRuns): zeroing, copying and
/// the row updates walk contiguous rows, and a per-row array shadowing a list
/// is indexed by the running row count over its runs.
///
/// Stiffness evaluation runs on the element-block batched path: the solver
/// builds one sem::BatchPlan whose groups are ordered (rank, level) — rank
/// r's share of E(k), level-homogeneous elements first so most blocks take
/// the mask-free fast gather — and every eval phase iterates whole blocks.
/// The per-rank block slabs (and workspaces, accumulation buffers and chunk
/// buffers) are first-touch initialized by their owning pool thread, so on
/// NUMA machines each rank's hot data lands on its own memory node. The
/// *shared* velocity v gets the same treatment: it is allocated untouched (a
/// raw array, not a value-initialized std::vector) and each pool worker
/// zeroes the rows it updates, so every page is resident on the memory node
/// of the rank that updates it. u is the exception: it is a plain vector,
/// zeroed by the constructing thread, because Executor::state() hands it out
/// by reference instead of copying.
///
/// Synchronization is governed by a SchedulerMode (see runtime/scheduler.hpp):
/// the legacy barrier-all mode makes every rank arrive at every substep
/// barrier, reproducing the load-imbalance behaviour of Fig. 1 with *real*
/// wall-clock; the level-aware modes synchronize each level-k substep only
/// over the ranks participating at level k or finer (the monotone closure —
/// fine substeps nest inside coarse phases, so finer ranks must join coarser
/// barriers but never vice versa). Level-aware+steal additionally splits each
/// rank's per-level block list into chunks — always whole blocks, so stealing
/// moves block-aligned work — that idle participants steal, absorbing
/// residual intra-level imbalance the partitioner leaves behind. Stolen
/// chunks accumulate into per-chunk buffers that the owner reduces in a
/// fixed (rank, chunk) order, so every mode — stealing included — is bitwise
/// reproducible run to run.
///
/// The LTS accumulators are level-compact: a rank keeps level k's substep
/// velocity only on its S(k) and R(k+1) rows, the displacement saved for the
/// level-k reconstruction only on its R(k+1) rows, and level k's frozen force
/// only on the rows it folds at level k — each array indexed by position in
/// the rank's row list (entry j * ncomp + c is component c of the list's j-th
/// row). The full-ndof vectors left are u, the level-1 velocity v, the
/// cumulative frozen force, and the per-rank accumulation buffers.
///
/// Point sources are injected by the rank owning the source node's row,
/// sampled frozen at the cycle start. The velocity reconstruction (Eq. 14)
/// folds the inner evolution through a (dt - tau)-shaped kernel, so only an
/// even-in-tau source term — one frozen over the cycle — preserves the
/// scheme's second-order accuracy (this mirrors the time-reversibility
/// requirement on Eq. 11). A constant source passes through every nested
/// reconstruction exactly, which makes the whole cycle a midpoint rule in the
/// source, exactly like the non-LTS Newmark step at Delta-t. Receivers are
/// sampled at every cycle boundary by their owning rank into per-receiver
/// trace buffers the facade drains.
///
/// Busy/stall/steal counters accumulate across run_cycles calls (the pool and
/// all solver state persist between calls) until reset_counters(). All
/// counters (and the per-phase accumulators behind fill_phases) are
/// std::atomic with relaxed memory order: each slot has a single writer (its
/// owning rank's worker, at phase boundaries — never per element), readers
/// only ever aggregate them, and no other data is published through them, so
/// relaxed is sufficient and reset_counters()/snapshot reads are data-race
/// free even while a run is in flight. A mid-run reset can swallow an
/// in-flight increment — the counters are monitoring data, not physics; the
/// field state and the deterministic (rank, chunk)-ordered steal reduction
/// are untouched by any of this, so bitwise reproducibility is unaffected.

#include <atomic>
#include <barrier>
#include <cstdint>
#include <memory>
#include <span>

#include "core/lts_newmark.hpp"
#include "partition/partition.hpp"
#include "perf/run_report.hpp"
#include "resilience/fault.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/thread_pool.hpp"
#include "sem/sources.hpp"

namespace ltswave::runtime {

class ThreadedLtsSolver {
public:
  /// One receiver's accumulated samples; owned by the rank that owns the
  /// receiver node's row, so sampling is contention-free.
  struct Trace {
    gindex_t node = 0;
    int component = 0;
    std::vector<real_t> times;
    std::vector<real_t> values;
  };

  ThreadedLtsSolver(const sem::WaveOperator& op, const core::LevelAssignment& levels,
                    const core::LtsStructure& structure, const partition::Partition& part,
                    SchedulerConfig cfg = {});

  /// Joins any workers still draining an abandoned (watchdog-timed-out)
  /// generation before the state buffers they touch are destroyed.
  ~ThreadedLtsSolver();

  void set_state(std::span<const real_t> u0, std::span<const real_t> v0);

  /// Checkpoint restore: overwrites u and the staggered v^{n-1/2} verbatim
  /// (no initialization apply — the checkpoint already captured a mid-run
  /// staggered pair) and resumes the integer cycle counter at `cycles_done`
  /// with `time` preserved exactly via an internal offset (so a restore under
  /// a halved dt keeps absolute time consistent). The frozen-force/cumulative
  /// accumulators are zeroed — the first cycle's eval phases rebuild them from
  /// u — unless import_accumulators() restores them afterwards for a bitwise
  /// same-scheme resume. Sources/receivers are untouched.
  void adopt_raw_state(std::span<const real_t> u, std::span<const real_t> v_half, real_t time,
                       std::int64_t cycles_done);

  /// Restores the frozen per-level forces and the cumulative sum captured by
  /// a checkpoint of the *same* LTS level structure: `forces` is the
  /// full-size image frozen_forces() exports, gathered back onto each rank's
  /// fold rows (entries off structure.eval_rows[k-1] are never read). Any
  /// partition of the same structure imports it. Silently keeps the zeroed
  /// accumulators (recompute-from-u semantics) when the shapes do not match
  /// — a cross-scheme restore, where the captured accumulators are
  /// meaningless here.
  void import_accumulators(const std::vector<std::vector<real_t>>& forces,
                           std::span<const real_t> cumulative);

  /// Exports the frozen per-level forces A P_k u, k = 1..N-1, as N-1 full
  /// ndof vectors, exactly zero outside structure.eval_rows[k-1]. The solver
  /// keeps them level-compact on the folding ranks; this scatters them into
  /// a fresh full-size image — the checkpoint layout, independent of the
  /// partition — so call it at checkpoint and hand-off time, not per cycle.
  [[nodiscard]] std::vector<std::vector<real_t>> frozen_forces() const;
  [[nodiscard]] const std::vector<real_t>& cumulative() const noexcept { return cumulative_; }
  [[nodiscard]] real_t dt() const noexcept { return dt_; }

  /// Arms the deterministic fault-injection plan (see resilience/fault.hpp).
  /// One-shot per solver instance: nan/stall fire inside the addressed rank's
  /// cycle-final update phase, throw fires on the driving thread at the cycle
  /// boundary in run_cycles. Call before run_cycles, never mid-run.
  void set_fault(const resilience::FaultPlan& plan) { fault_ = plan; }
  [[nodiscard]] bool fault_fired() const noexcept {
    return fault_fired_.load(std::memory_order_relaxed);
  }

  /// Registers a point source; the rank owning the source node's row injects
  /// it during that node's level-local updates. Must not be called while
  /// run_cycles is executing. Call before set_state so the staggered
  /// initial velocity sees f(0).
  void add_source(const sem::PointSource& src);

  /// Registers a receiver sampled at every cycle boundary by the rank owning
  /// the node's row; returns the trace index. Must not be called mid-run.
  std::size_t add_receiver(gindex_t node, int component);

  /// Accumulated receiver traces (one per add_receiver, in call order). The
  /// facade drains these after run_cycles; clearing is the caller's business.
  [[nodiscard]] std::vector<Trace>& traces() noexcept { return traces_; }
  [[nodiscard]] const std::vector<Trace>& traces() const noexcept { return traces_; }

  /// Copies the dynamical state (u, v, frozen forces, cycle count), the
  /// sources and the receivers — including already-accumulated trace samples —
  /// from another solver over the *same* operator/levels/structure. This is
  /// the state hand-off of feedback repartitioning: build a new solver on the
  /// refined partition, adopt, and continue mid-run with no restart.
  /// Performance counters start at zero (the feedback pass consumed them).
  void adopt_state_from(const ThreadedLtsSolver& prev);

  /// Runs `cycles` LTS cycles on the persistent worker team — inline on the
  /// calling thread for a one-part partition; returns wall seconds. State
  /// (u, v, time, counters) carries over between calls.
  double run_cycles(std::int64_t cycles);

  /// Read-only views of the shared global state, stable for the solver's
  /// lifetime. u is the vector itself (Executor::state() aliases it); v_half
  /// is a span over a first-touch-placed raw allocation (see the file
  /// comment).
  [[nodiscard]] const std::vector<real_t>& u() const noexcept { return u_; }
  [[nodiscard]] std::span<const real_t> v_half() const noexcept { return {v_.get(), ndof_}; }
  /// Completed LTS cycles since construction / the last set_state. Time and
  /// work counters derive from this integer — no floating-point drift.
  [[nodiscard]] std::int64_t cycles_done() const noexcept { return cycles_done_; }
  /// time_offset_ is 0 except after an adopt_raw_state whose restored time is
  /// not cycles * dt (e.g. a dt change across a checkpoint restore).
  [[nodiscard]] real_t time() const noexcept {
    return time_offset_ + static_cast<real_t>(cycles_done_) * dt_;
  }
  /// Element applies consumed so far: cycles_done() * applies_per_cycle.
  [[nodiscard]] std::int64_t element_applies() const noexcept;
  /// Batched kernel calls consumed so far: cycles_done() * blocks per cycle.
  /// Stealing moves whole blocks between ranks but never changes the total,
  /// so this is exact in every scheduler mode.
  [[nodiscard]] std::int64_t blocks_applied() const noexcept {
    return cycles_done_ * blocks_per_cycle_;
  }
  [[nodiscard]] rank_t num_ranks() const noexcept { return nranks_; }
  [[nodiscard]] SchedulerMode mode() const noexcept { return cfg_.mode; }
  /// The (rank, level)-ordered batched execution plan driving the eval phases.
  [[nodiscard]] const sem::BatchPlan& plan() const noexcept { return *plan_; }
  /// Plan block range of rank r's share of E(k).
  [[nodiscard]] sem::BatchPlan::BlockRange rank_level_blocks(rank_t r, level_t k) const {
    return plan_->group_blocks(group_index(r, k));
  }

  /// Per-rank compute seconds, barrier-wait seconds, and stolen chunk counts,
  /// accumulated since construction or the last reset_counters(). Returned by
  /// value as a relaxed-load snapshot of the atomic slots — take ONE snapshot
  /// and iterate that (two calls return two different temporaries, so
  /// `f(x.busy_seconds().begin(), x.busy_seconds().end())` is a dangling-
  /// iterator bug).
  [[nodiscard]] std::vector<double> busy_seconds() const;
  [[nodiscard]] std::vector<double> stall_seconds() const;
  [[nodiscard]] std::vector<std::int64_t> steal_counts() const;
  /// Zeroes every counter and phase accumulator (relaxed stores). Safe to
  /// call concurrently with run_cycles: slots are atomic, so this is
  /// data-race free; increments in flight at the instant of the reset may
  /// land before or after it (monitoring data only — see the file comment).
  void reset_counters();

  /// Appends the per-phase accumulators, summed across ranks, onto `report`:
  /// "eval.L<k>" (per-level block kernel time), "reduce" (the shared-row
  /// sums, the MPI-exchange stand-in, plus the fold of eval_rows(k) ∩ R(k+1)
  /// ahead of the child levels), "update" (row updates with the fused S(k)
  /// fold + reconstructions), "barrier" (level-barrier wait == stall_seconds; absent
  /// on one rank, which never waits), and "sources"/"receivers" when any are
  /// registered. Call between run_cycles
  /// invocations only (the accumulators are written by the pool workers).
  void fill_phases(perf::RunReport& report) const;

  /// Complete structured snapshot of this solver: executor spelling
  /// ("threaded/<mode>"), work counters, per-rank busy/stall/steal vectors,
  /// phases (fill_phases) and the plan's roofline record. The executor
  /// adapter and bench/threaded_scaling both emit through this one path.
  [[nodiscard]] perf::RunReport run_report() const;

  /// Number of ranks taking part in level-k substep barriers under the
  /// current mode (== num_ranks() for barrier-all and for level 1).
  [[nodiscard]] rank_t level_participants(level_t k) const;

private:
  /// A contiguous plan-block range [first_block, last_block) of a rank's
  /// level group — steal chunks always move whole blocks — with the global
  /// rows it touches and a per-chunk accumulation buffer (row_count(rows) *
  /// ncomp). Whichever thread executes the chunk writes `acc`; the row owners
  /// reduce the chunks in a fixed order, which makes the stealing mode's
  /// floating-point association independent of who stole what.
  struct Chunk {
    index_t first_block = 0;
    index_t last_block = 0;
    core::RowRuns rows;
    std::vector<real_t> acc;
  };

  struct RankSource {
    sem::PointSource src;
    std::size_t slot = 0;
  };

  struct RankData {
    // Elements this rank evaluates per level (its share of E(k)).
    std::vector<std::vector<index_t>> eval_elems; // [level]
    // Rows this rank's accumulation buffer touches per level (zeroed before
    // apply); a subset of eval_rows.
    std::vector<core::RowRuns> private_rows; // [level]
    // Rows of eval_rows(k) this rank owns (it is their minimum level-k
    // toucher), split by rho: fold_rows are in R(k+1) and are folded before
    // the child levels; update_rows are S(k), which this rank also updates.
    std::vector<core::RowRuns> fold_rows;   // [level]
    std::vector<core::RowRuns> update_rows; // [level]
    // R(k+1) rows this rank updates (it is their minimum toucher at rho).
    std::vector<core::RowRuns> recon_rows; // [level]
    // Owned rows other ranks touch too, with a CSR list of their touchers in
    // ascending rank order (outside steal mode).
    std::vector<core::RowRuns> shared_rows;           // [level]
    std::vector<std::vector<index_t>> shared_offsets; // [level] CSR into touchers
    std::vector<std::vector<rank_t>> shared_touchers; // [level]
    // Level-compact LTS accumulators (see the file comment), each indexed by
    // position in the row list it shadows: entry j * ncomp + c is component
    // c of that list's j-th row. Every cycle writes the vt arrays and saved_u
    // before it reads them; forces carry over from cycle to cycle.
    std::vector<std::vector<real_t>> vt_update; // [k-2] over update_rows[k-1], k >= 2
    std::vector<std::vector<real_t>> vt_recon;  // [k-2] over recon_rows[k-1], 2 <= k < N
    std::vector<std::vector<real_t>> saved_u;   // [k-1] over recon_rows[k-1], k < N
    std::vector<std::vector<real_t>> forces;    // [k-1] over fold_rows[k-1] then update_rows[k-1], k < N
    // ndof accumulation buffer. After the reduction it holds the summed
    // level-k contribution of every row the rank owns at level k.
    std::vector<real_t> private_buf;
    std::unique_ptr<sem::KernelWorkspace> workspace;
    // Point sources injected by this rank, bucketed by the source node's
    // updater level rho, each with the velocity slot it kicks: the node
    // itself at level 1 (v_), its position in update_rows[rho-1] above.
    std::vector<std::vector<RankSource>> sources; // [level]
    // Indices into traces_ of the receivers this rank samples.
    std::vector<std::size_t> receivers;
    // Work-stealing state (LevelAwareSteal only).
    std::vector<std::vector<Chunk>> chunks;               // [level]
    std::unique_ptr<std::atomic<index_t>[]> chunk_cursor; // [level]
    // Static reduction map over every owned row (fold ∪ update rows): for
    // owned_rows[L]'s j-th row, the chunk-contribution pointers are
    // red_sources[L][red_offsets[L][j] .. red_offsets[L][j+1]], each pointing
    // at a chunk's acc entry for this row (ncomp stride). Ordered by (rank,
    // chunk) ascending — the fixed association order.
    std::vector<core::RowRuns> owned_rows;              // [level]
    std::vector<std::vector<index_t>> red_offsets;      // [level]
    std::vector<std::vector<const real_t*>> red_sources; // [level]
    // Per-phase perf accumulators (run_report): slots 0..nl-1 are the
    // per-level eval kernel time, then reduce/update/sources/receivers/
    // barrier (slot_* helpers). Written only by this rank's worker at phase
    // boundaries, reusing the WallTimer reads already taken for busy_/stall_.
    // Atomic + relaxed so reset_counters() and report snapshots never race
    // the owning worker (single writer per slot; aggregation-only readers).
    std::vector<std::atomic<double>> phase_seconds;
    std::vector<std::atomic<std::int64_t>> phase_count;
  };

  void build_rank_data();
  void build_participation();
  void build_chunks();
  void build_steal_reduction();
  void first_touch_rank_buffers();
  void allocate_accumulators();
  void zero_forces();
  /// Visits the rows rank rd folds at level L+1 — fold rows, then update
  /// rows — as f(j, g): position j in its compact force array, global row g.
  template <class F>
  static void for_each_fold_row(const RankData& rd, std::size_t L, F&& f);
  /// The rank updating row g: the minimum rank touching it at its level rho.
  [[nodiscard]] rank_t updater(gindex_t g) const;
  [[nodiscard]] std::size_t group_index(rank_t r, level_t k) const noexcept {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(levels_->num_levels) +
           static_cast<std::size_t>(k - 1);
  }
  [[nodiscard]] bool participates(rank_t r, level_t k) const {
    return part_mask_[static_cast<std::size_t>(k - 1) * static_cast<std::size_t>(nranks_) +
                      static_cast<std::size_t>(r)] != 0;
  }
  // Phase accumulator slot layout (see RankData::phase_seconds).
  [[nodiscard]] std::size_t slot_eval(level_t k) const noexcept {
    return static_cast<std::size_t>(k - 1);
  }
  [[nodiscard]] std::size_t slot_reduce() const noexcept {
    return static_cast<std::size_t>(levels_->num_levels);
  }
  [[nodiscard]] std::size_t slot_update() const noexcept { return slot_reduce() + 1; }
  [[nodiscard]] std::size_t slot_sources() const noexcept { return slot_reduce() + 2; }
  [[nodiscard]] std::size_t slot_receivers() const noexcept { return slot_reduce() + 3; }
  [[nodiscard]] std::size_t slot_barrier() const noexcept { return slot_reduce() + 4; }
  [[nodiscard]] std::size_t num_phase_slots() const noexcept { return slot_reduce() + 5; }
  static void tally(RankData& rd, std::size_t slot, double seconds) noexcept {
    rd.phase_seconds[slot].fetch_add(seconds, std::memory_order_relaxed);
    rd.phase_count[slot].fetch_add(1, std::memory_order_relaxed);
  }
  /// Bills `seconds` of rank r's compute to busy_, and to phase `slot` all
  /// of it but `tallied`, which the sources/receivers phases already took.
  void charge(rank_t r, std::size_t slot, double seconds, double tallied = 0) noexcept {
    busy_[static_cast<std::size_t>(r)].fetch_add(seconds, std::memory_order_relaxed);
    tally(ranks_[static_cast<std::size_t>(r)], slot, seconds - tallied);
  }
  void thread_main(rank_t r, std::int64_t cycles);
  /// Fires the armed nan/stall fault when (cycle, r) matches the plan; called
  /// from the addressed rank's cycle-final update phase, where every row the
  /// rank owns is final for the cycle and single-writer (race-free).
  void maybe_inject_fault(const RankData& rd, rank_t r, std::int64_t cycle);
  void eval_phase(rank_t r, level_t k);
  void run_chunk(RankData& self, Chunk& chunk);
  void run_level(rank_t r, level_t k, real_t t0);
  void sync(rank_t r, level_t k);
  /// Folds this rank's level-k sources (sampled at t_src) into an update that
  /// already ran without them: vel (the level's compact vt, or v at level 1)
  /// at each source's slot and u are post-corrected by the linear terms a
  /// source adds to the force F, using the substep's own kick/drift
  /// coefficients (the physical level-1 step passes (dt, dt) — the leapfrog
  /// form v -= dt * F). Returns the seconds it tallied to "sources" (0, and
  /// no tally, when the rank has no level-k source).
  double apply_rank_sources(RankData& rd, level_t k, real_t t_src, real_t kick, real_t drift,
                            real_t* vel);
  /// Samples this rank's receivers; returns the seconds tallied to
  /// "receivers" (0, and no tally, when it has none).
  double sample_receivers(RankData& rd, real_t t);

  const sem::WaveOperator* op_;
  const core::LevelAssignment* levels_;
  const core::LtsStructure* structure_;
  const partition::Partition* part_;
  SchedulerConfig cfg_;
  rank_t nranks_;
  int ncomp_;
  real_t dt_;
  std::int64_t cycles_done_ = 0;
  real_t time_offset_ = 0;
  resilience::FaultPlan fault_;
  /// Written by the single addressed rank (nan/stall) or the driver (throw).
  std::atomic<bool> fault_fired_{false};
  std::size_t ndof_ = 0;
  std::int64_t blocks_per_cycle_ = 0;

  /// Batched execution plan, groups ordered (rank, level); slabs are filled
  /// (first-touched) by the owning pool workers, not the constructing thread.
  std::unique_ptr<sem::BatchPlan> plan_;

  std::span<const real_t> inv_mass_; // the space's, per node (components share it)
  // Shared global state (ndof_ each). v is a raw array allocated untouched,
  // so the pool workers' zeroing of the rows they update is the first touch
  // of every page.
  std::vector<real_t> u_;
  std::unique_ptr<real_t[]> v_;
  std::vector<real_t> cumulative_; // sum of the frozen forces (ndof_, or empty on one level)

  std::vector<sem::PointSource> sources_; // master list (adopt/redistribute)
  std::vector<Trace> traces_;

  std::vector<RankData> ranks_;
  // part_mask_[(k-1)*nranks + r]: rank r takes part in level-k barriers.
  std::vector<std::uint8_t> part_mask_;
  // group_[k-1]: ascending rank ids of level-k participants (steal/reduction
  // scan order; fixed so every mode stays bitwise deterministic).
  std::vector<std::vector<rank_t>> group_;
  std::vector<std::unique_ptr<std::barrier<>>> level_barriers_; // [level]
  std::unique_ptr<ThreadPool> pool_; // null for one rank (runs inline)
  // Per-rank wall-clock/steal tallies; single writer per slot (the owning
  // rank's worker), relaxed atomics — see the file comment for the contract.
  std::vector<std::atomic<double>> busy_;
  std::vector<std::atomic<double>> stall_;
  std::vector<std::atomic<std::int64_t>> steals_;
};

} // namespace ltswave::runtime

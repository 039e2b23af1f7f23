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
/// accumulate into rank-private buffers (a rank without peers accumulates
/// straight into the shared scratch vector), and a reduction phase (the
/// stand-in for MPI point-to-point exchange) combines interface
/// contributions. Every global row is updated by exactly one owner rank.
///
/// Stiffness evaluation runs on the element-block batched path: the solver
/// builds one sem::BatchPlan whose groups are ordered (rank, level) — rank
/// r's share of E(k), level-homogeneous elements first so most blocks take
/// the mask-free fast gather — and every eval phase iterates whole blocks.
/// The per-rank block slabs (and workspaces, accumulation buffers and chunk
/// buffers) are first-touch initialized by their owning pool thread, so on
/// NUMA machines each rank's hot data lands on its own memory node. The
/// *shared* global u/v/scratch vectors get the same treatment: they are
/// allocated untouched (raw arrays, not value-initialized std::vector) and
/// each pool worker zeroes the rows it owns (row_owner_), so every page of
/// the shared state is resident on the memory node of the rank that updates
/// — and most often reads — it.
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
/// only on the rows it folds in the level-k reduction — each array indexed by
/// position in the rank's row list (entry j * ncomp + c is component c of the
/// list's j-th row). The full-ndof vectors left are u, the level-1 velocity v,
/// scratch, the cumulative frozen force, and the per-rank accumulation buffers.
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
  /// initial velocity sees f(0), exactly as core::NewmarkSolver does.
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

  /// Read-only views of the shared global state. Spans, not vectors: the
  /// backing arrays are first-touch-placed raw allocations (see the file
  /// comment), stable for the solver's lifetime.
  [[nodiscard]] std::span<const real_t> u() const noexcept { return {u_.get(), ndof_}; }
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
  /// "eval.L<k>" (per-level block kernel time), "reduce" (ownership
  /// reduction, the MPI-exchange stand-in), "update" (row updates +
  /// reconstructions), "barrier" (level-barrier wait == stall_seconds; absent
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
  /// rows it touches and a per-chunk accumulation buffer (rows.size() *
  /// ncomp). Whichever thread executes the chunk writes `acc`; the row owners
  /// reduce the chunks in a fixed order, which makes the stealing mode's
  /// floating-point association independent of who stole what.
  struct Chunk {
    index_t first_block = 0;
    index_t last_block = 0;
    std::vector<gindex_t> rows;
    std::vector<real_t> acc;
  };

  /// A rank's share of one LtsStructure row list, in the structure's order.
  /// A rank that gets every row of the list (always so on one rank) views
  /// the structure's vector instead of keeping a copy.
  class RowList {
  public:
    void push_back(gindex_t g) { own_.push_back(g); }
    /// Seals the list. `whole` is the structure list the rows were drawn
    /// from in order, so an equal size means an equal list.
    void finish(const std::vector<gindex_t>& whole) {
      if (own_.size() != whole.size()) return;
      own_ = std::vector<gindex_t>(); // releases the capacity, unlike clear()
      whole_ = &whole;
    }
    [[nodiscard]] std::span<const gindex_t> rows() const noexcept {
      return whole_ ? std::span<const gindex_t>(*whole_) : std::span<const gindex_t>(own_);
    }
    [[nodiscard]] auto begin() const noexcept { return rows().begin(); }
    [[nodiscard]] auto end() const noexcept { return rows().end(); }
    [[nodiscard]] std::size_t size() const noexcept { return rows().size(); }
    [[nodiscard]] bool empty() const noexcept { return rows().empty(); }

  private:
    std::vector<gindex_t> own_;
    const std::vector<gindex_t>* whole_ = nullptr; ///< LtsStructure's list, when equal
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
    std::vector<RowList> private_rows; // [level]
    // Reduction work per level: rows this rank owns within rows(E(k)).
    // solo rows have exactly one touching rank — this one, so the fold reads
    // the rank's own buffer; shared rows carry a CSR list of touchers.
    std::vector<RowList> solo_rows;                   // [level]
    std::vector<std::vector<gindex_t>> shared_rows;   // [level]
    std::vector<std::vector<index_t>> shared_offsets; // [level] CSR into touchers
    std::vector<std::vector<rank_t>> shared_touchers; // [level]
    // All owned rows per level (solo ∪ shared), ascending — the steal-mode
    // reduction walks these against the static chunk-contribution lists
    // (built in LevelAwareSteal only).
    std::vector<std::vector<gindex_t>> owned_rows; // [level]
    // Row-update sets owned by this rank.
    std::vector<RowList> update_rows; // S(k) ∩ mine
    std::vector<RowList> recon_rows;  // R(k+1) ∩ mine
    // Level-compact LTS accumulators (see the file comment), each indexed by
    // position in the row list it shadows: entry j * ncomp + c is component
    // c of that list's j-th row. Every cycle writes the vt arrays and saved_u
    // before it reads them; forces carry over from cycle to cycle.
    std::vector<std::vector<real_t>> vt_update; // [k-2] over update_rows[k-1], k >= 2
    std::vector<std::vector<real_t>> vt_recon;  // [k-2] over recon_rows[k-1], 2 <= k < N
    std::vector<std::vector<real_t>> saved_u;   // [k-1] over recon_rows[k-1], k < N
    std::vector<std::vector<real_t>> forces;    // [k-1] over the fold rows, k < N
    // ndof accumulation buffer; left empty on a rank without peers outside
    // steal mode, which accumulates into scratch_ directly (acc_buffer).
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
    // Static reduction map: for owned_rows[L][j], the chunk-contribution
    // pointers are red_sources[L][red_offsets[L][j] .. red_offsets[L][j+1]],
    // each pointing at a chunk's acc entry for this row (ncomp stride).
    // Ordered by (rank, chunk) ascending — the fixed association order.
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
  /// Visits the rows rank rd folds in the level-(L+1) reduction, in fold
  /// order — solo then shared rows, or the owned rows in steal mode — as
  /// f(j, g): position j in its compact force array, global row g.
  template <class F>
  void for_each_fold_row(const RankData& rd, std::size_t L, F&& f) const;
  /// Where rank r's eval phase accumulates K P_k u: its private buffer, or
  /// the shared scratch vector when it has no peers to reduce with.
  [[nodiscard]] real_t* acc_buffer(RankData& rd) noexcept {
    return rd.private_buf.empty() ? scratch_.get() : rd.private_buf.data();
  }
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
  /// form v -= dt * F).
  void apply_rank_sources(const RankData& rd, level_t k, real_t t_src, real_t kick, real_t drift,
                          real_t* vel);
  void sample_receivers(const RankData& rd, real_t t);

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

  std::vector<real_t> inv_mass_; // per node (components share it)
  // Shared global state (ndof_ each): raw arrays allocated untouched so the
  // pool workers' per-owned-row zeroing is the first touch of every page.
  std::unique_ptr<real_t[]> u_, v_;
  std::unique_ptr<real_t[]> scratch_;
  std::vector<real_t> cumulative_; // sum of the frozen forces (ndof_, or empty on one level)

  std::vector<sem::PointSource> sources_; // master list (adopt/redistribute)
  std::vector<Trace> traces_;

  std::vector<RankData> ranks_;
  std::vector<rank_t> row_owner_; // per global node: min rank touching it
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

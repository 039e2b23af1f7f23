#include "runtime/threaded_lts.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <thread>

#include "common/timer.hpp"
#include "perf/roofline.hpp"
#include "resilience/error.hpp"

namespace ltswave::runtime {

namespace {

/// a * b rounded on its own. Floating-point contraction may not fuse the
/// product into the add it feeds, so a fused loop rounds it exactly as a
/// separate pass that stored it would.
inline real_t rounded_product(real_t a, real_t b) {
#if defined(__has_builtin)
#if __has_builtin(__builtin_assoc_barrier)
  return __builtin_assoc_barrier(a * b);
#endif
#endif
  return a * b;
}

/// Level k's fold of one row entry: the fresh force im * contrib replaces
/// the frozen force f, and the cumulative sum moves by the change. Returns
/// the new cumulative entry.
inline real_t fold(real_t im, real_t contrib, real_t& f, real_t& cumulative) {
  const real_t fresh = im * contrib;
  cumulative += fresh - f;
  f = fresh;
  return cumulative;
}

/// Zeroes the rows `runs` of an ndof vector with nc components per row.
void zero_rows(real_t* x, const core::RowRuns& runs, std::size_t nc) {
  for (const auto& run : runs)
    std::fill(x + static_cast<std::size_t>(run.begin) * nc, x + static_cast<std::size_t>(run.end) * nc,
              real_t(0));
}

/// Copies the rows `runs` of an ndof vector into the compact array `dst`.
void copy_rows(const real_t* x, const core::RowRuns& runs, std::size_t nc, real_t* dst) {
  for (const auto& run : runs)
    dst = std::copy(x + static_cast<std::size_t>(run.begin) * nc,
                    x + static_cast<std::size_t>(run.end) * nc, dst);
}

} // namespace

ThreadedLtsSolver::ThreadedLtsSolver(const sem::WaveOperator& op,
                                     const core::LevelAssignment& levels,
                                     const core::LtsStructure& structure,
                                     const partition::Partition& part, SchedulerConfig cfg)
    : op_(&op),
      levels_(&levels),
      structure_(&structure),
      part_(&part),
      cfg_(cfg),
      nranks_(part.num_parts),
      ncomp_(op.ncomp()),
      dt_(levels.dt),
      inv_mass_(op.space().inv_mass()) {
  LTS_CHECK(part.part.size() == static_cast<std::size_t>(op.space().num_elems()));
  LTS_CHECK(nranks_ >= 1);
  const auto& space = op.space();
  ndof_ = static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(ncomp_);

  // state() hands u out by reference, so it is a plain vector; v is an
  // untouched allocation that first_touch_rank_buffers() has each pool
  // worker zero on the rows it updates (see the file comment).
  u_.assign(ndof_, 0.0);
  v_ = std::make_unique_for_overwrite<real_t[]>(ndof_);

  build_rank_data();
  build_participation();
  if (cfg_.mode == SchedulerMode::LevelAwareSteal) build_chunks();

  // Atomic slots are not copy-assignable, so size the vectors by (move-)
  // constructing fresh ones; value-initialized atomics start at zero.
  busy_ = std::vector<std::atomic<double>>(static_cast<std::size_t>(nranks_));
  stall_ = std::vector<std::atomic<double>>(static_cast<std::size_t>(nranks_));
  steals_ = std::vector<std::atomic<std::int64_t>>(static_cast<std::size_t>(nranks_));

  // The persistent worker team and its level barriers: spawned once, reused
  // by every run_cycles. A single rank has nobody to wait for and runs on
  // the calling thread instead.
  const level_t nl = levels.num_levels;
  if (nranks_ > 1) {
    level_barriers_.resize(static_cast<std::size_t>(nl));
    for (level_t k = 1; k <= nl; ++k) {
      const auto n = static_cast<std::ptrdiff_t>(group_[static_cast<std::size_t>(k - 1)].size());
      level_barriers_[static_cast<std::size_t>(k - 1)] =
          n > 0 ? std::make_unique<std::barrier<>>(n) : nullptr;
    }
    pool_ = std::make_unique<ThreadPool>(static_cast<int>(nranks_), cfg_.oversubscribe);
  }

  // NUMA-aware placement: every rank's hot buffers — its plan block slabs,
  // accumulation buffer, workspace, and chunk buffers — are allocated/filled
  // by its own pool worker, so first touch pins the pages to the worker's
  // memory node.
  first_touch_rank_buffers();
  if (cfg_.mode == SchedulerMode::LevelAwareSteal) build_steal_reduction();

  // The LTS accumulators come last, after the plan's block slabs and the
  // build temporaries: the peak footprint is then the steady-state one.
  allocate_accumulators();
}

template <class F>
void ThreadedLtsSolver::for_each_fold_row(const RankData& rd, std::size_t L, F&& f) {
  const std::size_t nfold = core::row_count(rd.fold_rows[L]);
  core::for_each_row(rd.fold_rows[L], f);
  core::for_each_row(rd.update_rows[L], [&](std::size_t j, gindex_t g) { f(nfold + j, g); });
}

void ThreadedLtsSolver::allocate_accumulators() {
  const level_t nl = levels_->num_levels;
  const auto nc = static_cast<std::size_t>(ncomp_);
  const auto nacc = static_cast<std::size_t>(std::max(0, nl - 1));
  cumulative_.assign(nl > 1 ? ndof_ : 0, 0.0);
  for (auto& rd : ranks_) {
    rd.vt_update.assign(nacc, {});
    rd.vt_recon.assign(nacc, {});
    rd.saved_u.assign(nacc, {});
    rd.forces.assign(nacc, {});
    for (std::size_t L = 0; L < nacc; ++L) {
      // Level k = L + 2 for vt, k = L + 1 for saved_u and forces.
      rd.vt_update[L].assign(core::row_count(rd.update_rows[L + 1]) * nc, 0.0);
      rd.vt_recon[L].assign(core::row_count(rd.recon_rows[L + 1]) * nc, 0.0);
      rd.saved_u[L].assign(core::row_count(rd.recon_rows[L]) * nc, 0.0);
      rd.forces[L].assign(
          (core::row_count(rd.fold_rows[L]) + core::row_count(rd.update_rows[L])) * nc, 0.0);
    }
  }
}

void ThreadedLtsSolver::first_touch_rank_buffers() {
  const level_t nl = levels_->num_levels;
  const auto touch = [this, nl](int worker) {
    const auto r = static_cast<rank_t>(worker);
    auto& rd = ranks_[static_cast<std::size_t>(r)];
    // This rank's plan groups are contiguous: (r, 1) .. (r, nl).
    const index_t first = plan_->group_blocks(group_index(r, 1)).first;
    const index_t last = plan_->group_blocks(group_index(r, nl)).last;
    plan_->fill(first, last);
    rd.private_buf.assign(ndof_, 0.0);
    rd.workspace = std::make_unique<sem::KernelWorkspace>(op_->make_workspace());
    const auto nc = static_cast<std::size_t>(ncomp_);
    for (auto& level_chunks : rd.chunks)
      for (auto& ch : level_chunks) ch.acc.assign(core::row_count(ch.rows) * nc, 0.0);
    // First touch of the shared v: zero the rows this rank updates. The S(k)
    // partition the nodes, so together the workers initialize every entry,
    // and each page lands on its updater's node.
    for (const auto& rows : rd.update_rows) zero_rows(v_.get(), rows, nc);
  };
  if (pool_)
    pool_->run(touch);
  else
    touch(0);
}

void ThreadedLtsSolver::build_rank_data() {
  const auto& space = op_->space();
  const auto& st = *structure_;
  const level_t nl = levels_->num_levels;
  const int npts = space.nodes_per_elem();
  const auto nnodes = static_cast<std::size_t>(space.num_global_nodes());
  const bool steal = cfg_.mode == SchedulerMode::LevelAwareSteal;

  ranks_.resize(static_cast<std::size_t>(nranks_));
  for (auto& rd : ranks_) {
    rd.eval_elems.assign(static_cast<std::size_t>(nl), {});
    rd.private_rows.assign(static_cast<std::size_t>(nl), {});
    rd.fold_rows.assign(static_cast<std::size_t>(nl), {});
    rd.update_rows.assign(static_cast<std::size_t>(nl), {});
    rd.recon_rows.assign(static_cast<std::size_t>(nl), {});
    rd.shared_rows.assign(static_cast<std::size_t>(nl), {});
    rd.shared_offsets.assign(static_cast<std::size_t>(nl), {});
    rd.shared_touchers.assign(static_cast<std::size_t>(nl), {});
    if (steal) rd.owned_rows.assign(static_cast<std::size_t>(nl), {});
    rd.sources.assign(static_cast<std::size_t>(nl), {});
    rd.phase_seconds = std::vector<std::atomic<double>>(static_cast<std::size_t>(nl) + 5);
    rd.phase_count = std::vector<std::atomic<std::int64_t>>(static_cast<std::size_t>(nl) + 5);
    // private_buf and workspace are allocated in first_touch_rank_buffers()
    // by the owning pool worker (NUMA first touch).
  }

  // Hands row g of eval_rows(k) to the ranks touching it at level k (in
  // ascending order): every toucher zeroes it, and the first — the minimum —
  // owns its reduction, its fold and, on S(k), its update. Rows arrive in
  // ascending order, so every list grows by appending runs.
  const auto place = [&](std::size_t L, gindex_t g, std::span<const rank_t> touchers) {
    for (const rank_t t : touchers)
      core::append_row(ranks_[static_cast<std::size_t>(t)].private_rows[L], g);
    auto& rd = ranks_[static_cast<std::size_t>(touchers.front())];
    const bool in_s = st.node_rho[static_cast<std::size_t>(g)] == static_cast<level_t>(L + 1);
    core::append_row(in_s ? rd.update_rows[L] : rd.fold_rows[L], g);
    if (steal) {
      core::append_row(rd.owned_rows[L], g);
    } else if (touchers.size() > 1) {
      auto& offs = rd.shared_offsets[L];
      auto& tchs = rd.shared_touchers[L];
      if (offs.empty()) offs.push_back(0);
      core::append_row(rd.shared_rows[L], g);
      tchs.insert(tchs.end(), touchers.begin(), touchers.end());
      offs.push_back(static_cast<index_t>(tchs.size()));
    }
  };

  // A lone rank touches and owns every row: it takes the structure's lists
  // without the toucher census below.
  if (nranks_ == 1) {
    const rank_t only = 0;
    for (std::size_t L = 0; L < static_cast<std::size_t>(nl); ++L) {
      ranks_[0].eval_elems[L] = st.eval_elems[L];
      core::for_each_row(st.eval_rows[L], [&](std::size_t, gindex_t g) { place(L, g, {&only, 1}); });
    }
    ranks_[0].recon_rows = st.recon_rows;
  } else {
    // The ranks touching each row of E(k), as a CSR (touch_off, touchers)
    // built without sorting: a counting pass and a fill pass that both visit
    // ranks in ascending order, with a per-row "last rank" stamp so each
    // (row, rank) pair counts once. Every toucher list thereby comes out
    // rank-sorted, its first entry being the minimum touching rank.
    std::vector<rank_t> stamp(nnodes);
    std::vector<index_t> touch_off(nnodes + 1);
    std::vector<rank_t> touchers;
    std::vector<rank_t> updater_of(nnodes); // per node: the rank updating it
    for (level_t k = 1; k <= nl; ++k) {
      const auto L = static_cast<std::size_t>(k - 1);
      // Split E(k) by element owner.
      for (index_t e : st.eval_elems[L])
        ranks_[static_cast<std::size_t>(part_->part[static_cast<std::size_t>(e)])]
            .eval_elems[L]
            .push_back(e);
      const auto visit_touches = [&](auto&& on_touch) {
        std::fill(stamp.begin(), stamp.end(), rank_t{-1});
        for (rank_t r = 0; r < nranks_; ++r)
          for (index_t e : ranks_[static_cast<std::size_t>(r)].eval_elems[L]) {
            const gindex_t* l2g = space.elem_nodes(e);
            for (int q = 0; q < npts; ++q) {
              const auto g = static_cast<std::size_t>(l2g[q]);
              if (stamp[g] == r) continue;
              stamp[g] = r;
              on_touch(g, r);
            }
          }
      };
      std::fill(touch_off.begin(), touch_off.end(), index_t{0});
      visit_touches([&](std::size_t g, rank_t) { ++touch_off[g + 1]; });
      for (std::size_t g = 0; g < nnodes; ++g) touch_off[g + 1] += touch_off[g];
      touchers.resize(static_cast<std::size_t>(touch_off[nnodes]));
      // touch_off[g] doubles as row g's fill cursor, ending at the old
      // touch_off[g + 1]; shifting back by one restores the offsets.
      visit_touches([&](std::size_t g, rank_t r) {
        touchers[static_cast<std::size_t>(touch_off[g]++)] = r;
      });
      std::copy_backward(touch_off.begin(), touch_off.end() - 1, touch_off.end());
      touch_off[0] = 0;

      for (std::size_t g = 0; g < nnodes; ++g) {
        const auto first = static_cast<std::size_t>(touch_off[g]);
        const auto last = static_cast<std::size_t>(touch_off[g + 1]);
        if (first == last) continue;
        place(L, static_cast<gindex_t>(g), std::span(touchers).subspan(first, last - first));
        if (st.node_rho[g] == k) updater_of[g] = touchers[first];
      }
    }
    // Row g's reconstructions at every level below rho run on its updater.
    for (std::size_t g = 0; g < nnodes; ++g)
      for (level_t k = 1; k < st.node_rho[g]; ++k)
        core::append_row(ranks_[static_cast<std::size_t>(updater_of[g])]
                             .recon_rows[static_cast<std::size_t>(k - 1)],
                         static_cast<gindex_t>(g));
  }

  // The batched execution plan: one group per (rank, level) in that order —
  // a rank's blocks are contiguous (first-touch fill range) and a level group
  // never mixes ranks, so steal chunks of whole blocks stay rank-pure. Each
  // group's elements are reordered homogeneous-first so the leading blocks
  // take the mask-free fast gather; eval_elems keeps the same order, which
  // keeps block lanes and element lists aligned for the chunk row sets.
  std::vector<sem::BatchPlan::Group> plan_groups;
  plan_groups.reserve(static_cast<std::size_t>(nranks_) * static_cast<std::size_t>(nl));
  for (rank_t r = 0; r < nranks_; ++r)
    for (level_t k = 1; k <= nl; ++k) {
      auto& elems = ranks_[static_cast<std::size_t>(r)].eval_elems[static_cast<std::size_t>(k - 1)];
      elems = sem::order_homogeneous_first(space, elems, k, st.node_level);
      sem::BatchPlan::Group g;
      g.elems = elems;
      g.level = k;
      g.node_level = st.node_level;
      plan_groups.push_back(std::move(g));
    }
  plan_ = std::make_unique<sem::BatchPlan>(space, ncomp_, std::move(plan_groups),
                                           sem::BatchPlan::Fill::Deferred);
  blocks_per_cycle_ = 0;
  for (rank_t r = 0; r < nranks_; ++r)
    for (level_t k = 1; k <= nl; ++k)
      blocks_per_cycle_ +=
          level_rate(k) * static_cast<std::int64_t>(plan_->group_blocks(group_index(r, k)).count());
}

void ThreadedLtsSolver::build_participation() {
  const level_t nl = levels_->num_levels;
  part_mask_.assign(static_cast<std::size_t>(nl) * static_cast<std::size_t>(nranks_), 0);
  group_.assign(static_cast<std::size_t>(nl), {});

  for (rank_t r = 0; r < nranks_; ++r) {
    const auto& rd = ranks_[static_cast<std::size_t>(r)];
    // A rank takes part in level-k barriers when it evaluates elements at
    // level k or at any finer level (monotone closure: fine substeps are
    // nested inside coarse phases, and the row/force state written at level k
    // is published to coarser readers through the enclosing coarser barrier —
    // so finer ranks must join coarser barriers, never the other way around).
    // Evaluation covers all row work: a rank owns level-k rows only where it
    // touches them at level k, and reconstructs a row at level k only when it
    // updates that row at a finer level. The legacy barrier-all mode keeps
    // everyone in every level.
    bool finer = false;
    for (level_t k = nl; k >= 1; --k) {
      const auto L = static_cast<std::size_t>(k - 1);
      finer = finer || !rd.eval_elems[L].empty();
      const bool take_part = cfg_.mode == SchedulerMode::BarrierAll || finer;
      part_mask_[L * static_cast<std::size_t>(nranks_) + static_cast<std::size_t>(r)] =
          take_part ? 1 : 0;
    }
  }
  for (level_t k = 1; k <= nl; ++k)
    for (rank_t r = 0; r < nranks_; ++r)
      if (participates(r, k)) group_[static_cast<std::size_t>(k - 1)].push_back(r);
}

void ThreadedLtsSolver::build_chunks() {
  const auto& space = op_->space();
  const level_t nl = levels_->num_levels;
  const int npts = space.nodes_per_elem();
  const int W = plan_->width();
  std::vector<gindex_t> rows; // one chunk's rows, sorted and deduplicated

  for (rank_t r = 0; r < nranks_; ++r) {
    auto& rd = ranks_[static_cast<std::size_t>(r)];
    rd.chunks.assign(static_cast<std::size_t>(nl), {});
    rd.chunk_cursor = std::make_unique<std::atomic<index_t>[]>(static_cast<std::size_t>(nl));
    rd.red_offsets.assign(static_cast<std::size_t>(nl), {});
    rd.red_sources.assign(static_cast<std::size_t>(nl), {});
    for (level_t k = 1; k <= nl; ++k) {
      const auto L = static_cast<std::size_t>(k - 1);
      const auto range = plan_->group_blocks(group_index(r, k));
      const index_t nb = range.count();
      if (nb == 0) {
        rd.chunk_cursor[L].store(0, std::memory_order_relaxed);
        continue;
      }
      // Chunks are whole plan blocks, so stealing moves block-aligned work
      // and the batched kernel never splits a block. Several chunks per rank
      // so idle participants find work to steal, but large enough that the
      // per-chunk launch stays negligible; an explicit chunk_elems is rounded
      // up to whole blocks.
      index_t size_blocks;
      if (cfg_.chunk_elems > 0) {
        size_blocks = std::max<index_t>(1, (cfg_.chunk_elems + W - 1) / W);
      } else {
        const auto n = static_cast<index_t>(rd.eval_elems[L].size());
        const index_t size_elems = std::clamp<index_t>(n / 8, index_t{4}, index_t{128});
        size_blocks = std::max<index_t>(1, (size_elems + W - 1) / W);
      }
      for (index_t b = range.first; b < range.last; b += size_blocks) {
        Chunk ch;
        ch.first_block = b;
        ch.last_block = std::min<index_t>(b + size_blocks, range.last);
        rows.clear();
        for (index_t blk = ch.first_block; blk < ch.last_block; ++blk) {
          const index_t* elems = plan_->block_elems(blk);
          const int fill = plan_->block_fill(blk);
          for (int l = 0; l < fill; ++l) {
            const gindex_t* l2g = space.elem_nodes(elems[l]);
            rows.insert(rows.end(), l2g, l2g + npts);
          }
        }
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        for (const gindex_t g : rows) core::append_row(ch.rows, g);
        // ch.acc is allocated by the owning pool worker (first touch).
        rd.chunks[L].push_back(std::move(ch));
      }
      // Cursors start *exhausted*: a queue only opens when its owner resets
      // it at the start of an eval phase. A zero-initialized cursor would let
      // a fast thief drain the queue before the owner's first reset, after
      // which the owner's reset replays every chunk — double contributions.
      rd.chunk_cursor[L].store(static_cast<index_t>(rd.chunks[L].size()),
                               std::memory_order_relaxed);
    }
  }
}

void ThreadedLtsSolver::build_steal_reduction() {
  const auto& space = op_->space();
  const level_t nl = levels_->num_levels;
  const auto nc = static_cast<std::size_t>(ncomp_);

  // Static reduction map: every chunk-row contribution is attached to the
  // row's owning rank in (rank, chunk) ascending order. The association of
  // the floating-point sum is thereby fixed at build time — it cannot depend
  // on which thread ends up executing a chunk, so the stealing scheduler is
  // bitwise reproducible run to run.
  const auto nn = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<rank_t> owner_of(nn);
  std::vector<index_t> pos_of(nn);
  for (level_t k = 1; k <= nl; ++k) {
    const auto L = static_cast<std::size_t>(k - 1);
    // Reset per level: a stale entry from a coarser level would satisfy the
    // ownership check below and silently misroute a contribution.
    std::fill(owner_of.begin(), owner_of.end(), rank_t{-1});
    for (rank_t r = 0; r < nranks_; ++r)
      core::for_each_row(ranks_[static_cast<std::size_t>(r)].owned_rows[L],
                         [&](std::size_t j, gindex_t g) {
                           owner_of[static_cast<std::size_t>(g)] = r;
                           pos_of[static_cast<std::size_t>(g)] = static_cast<index_t>(j);
                         });
    std::vector<std::vector<std::pair<index_t, const real_t*>>> contribs(
        static_cast<std::size_t>(nranks_));
    for (rank_t r = 0; r < nranks_; ++r)
      for (const auto& ch : ranks_[static_cast<std::size_t>(r)].chunks[L])
        core::for_each_row(ch.rows, [&](std::size_t i, gindex_t row) {
          const auto g = static_cast<std::size_t>(row);
          LTS_CHECK(owner_of[g] >= 0);
          contribs[static_cast<std::size_t>(owner_of[g])].emplace_back(pos_of[g],
                                                                       ch.acc.data() + i * nc);
        });
    for (rank_t r = 0; r < nranks_; ++r) {
      auto& rd = ranks_[static_cast<std::size_t>(r)];
      auto& list = contribs[static_cast<std::size_t>(r)];
      // stable: contributions for one row keep their (rank, chunk) order.
      std::stable_sort(list.begin(), list.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      const std::size_t nrows = core::row_count(rd.owned_rows[L]);
      rd.red_offsets[L].assign(nrows + 1, 0);
      rd.red_sources[L].reserve(list.size());
      std::size_t li = 0;
      for (std::size_t j = 0; j < nrows; ++j) {
        rd.red_offsets[L][j] = static_cast<index_t>(rd.red_sources[L].size());
        while (li < list.size() && static_cast<std::size_t>(list[li].first) == j) {
          rd.red_sources[L].push_back(list[li].second);
          ++li;
        }
      }
      rd.red_offsets[L][nrows] = static_cast<index_t>(rd.red_sources[L].size());
      LTS_CHECK(li == list.size());
    }
  }
}

ThreadedLtsSolver::~ThreadedLtsSolver() {
  // Tear the pool down before any member it touches: after a watchdog
  // timeout, run_cycles throws while workers are still draining the abandoned
  // generation, and those workers read/write u_, busy_ and friends — and call
  // pool_->beat(), so the generation must drain while pool_ is still set
  // (unique_ptr::reset() nulls the pointer *before* ~ThreadPool joins).
  if (pool_) pool_->drain();
  pool_.reset();
}

rank_t ThreadedLtsSolver::level_participants(level_t k) const {
  LTS_CHECK(k >= 1 && k <= levels_->num_levels);
  return static_cast<rank_t>(group_[static_cast<std::size_t>(k - 1)].size());
}

std::int64_t ThreadedLtsSolver::element_applies() const noexcept {
  return cycles_done_ * structure_->applies_per_cycle();
}

std::vector<double> ThreadedLtsSolver::busy_seconds() const {
  std::vector<double> out(busy_.size());
  for (std::size_t r = 0; r < busy_.size(); ++r) out[r] = busy_[r].load(std::memory_order_relaxed);
  return out;
}

std::vector<double> ThreadedLtsSolver::stall_seconds() const {
  std::vector<double> out(stall_.size());
  for (std::size_t r = 0; r < stall_.size(); ++r)
    out[r] = stall_[r].load(std::memory_order_relaxed);
  return out;
}

std::vector<std::int64_t> ThreadedLtsSolver::steal_counts() const {
  std::vector<std::int64_t> out(steals_.size());
  for (std::size_t r = 0; r < steals_.size(); ++r)
    out[r] = steals_[r].load(std::memory_order_relaxed);
  return out;
}

void ThreadedLtsSolver::reset_counters() {
  for (auto& b : busy_) b.store(0.0, std::memory_order_relaxed);
  for (auto& s : stall_) s.store(0.0, std::memory_order_relaxed);
  for (auto& s : steals_) s.store(0, std::memory_order_relaxed);
  for (auto& rd : ranks_) {
    for (auto& p : rd.phase_seconds) p.store(0.0, std::memory_order_relaxed);
    for (auto& p : rd.phase_count) p.store(0, std::memory_order_relaxed);
  }
}

void ThreadedLtsSolver::fill_phases(perf::RunReport& report) const {
  const level_t nl = levels_->num_levels;
  const auto sum_slot = [&](std::size_t slot, const std::string& name) {
    double seconds = 0;
    std::int64_t count = 0;
    for (const auto& rd : ranks_) {
      seconds += rd.phase_seconds[slot].load(std::memory_order_relaxed);
      count += rd.phase_count[slot].load(std::memory_order_relaxed);
    }
    report.add_phase(name, seconds, count);
  };
  for (level_t k = 1; k <= nl; ++k) sum_slot(slot_eval(k), "eval.L" + std::to_string(k));
  sum_slot(slot_reduce(), "reduce");
  sum_slot(slot_update(), "update");
  if (!sources_.empty()) sum_slot(slot_sources(), "sources");
  if (!traces_.empty()) sum_slot(slot_receivers(), "receivers");
  if (pool_) sum_slot(slot_barrier(), "barrier");
}

perf::RunReport ThreadedLtsSolver::run_report() const {
  perf::RunReport r;
  r.executor = "threaded/" + to_string(cfg_.mode);
  r.cycles = cycles_done_;
  r.time = static_cast<double>(time());
  r.element_applies = element_applies();
  r.blocks_applied = blocks_applied();
  r.rank_busy_seconds = busy_seconds();
  r.rank_stall_seconds = stall_seconds();
  r.rank_steal_counts = steal_counts();
  fill_phases(r);
  r.roofline = perf::roofline_for_plan(*plan_);
  return r;
}

void ThreadedLtsSolver::add_source(const sem::PointSource& src) {
  LTS_CHECK(src.node >= 0 && src.node < op_->space().num_global_nodes());
  sources_.push_back(src);
  const level_t rho = structure_->node_rho[static_cast<std::size_t>(src.node)];
  auto& rd = ranks_[static_cast<std::size_t>(updater(src.node))];
  // Level 1 kicks v_ at the node; a finer level kicks its compact vt, whose
  // rows are the updater's S(rho) — the source node is one by construction.
  std::size_t slot = static_cast<std::size_t>(src.node);
  if (rho > 1) {
    const std::ptrdiff_t pos =
        core::row_position(rd.update_rows[static_cast<std::size_t>(rho - 1)], src.node);
    LTS_CHECK(pos >= 0);
    slot = static_cast<std::size_t>(pos);
  }
  rd.sources[static_cast<std::size_t>(rho - 1)].push_back({src, slot});
}

rank_t ThreadedLtsSolver::updater(gindex_t g) const {
  const auto L = static_cast<std::size_t>(structure_->node_rho[static_cast<std::size_t>(g)] - 1);
  for (rank_t r = 0; r < nranks_; ++r)
    if (core::row_position(ranks_[static_cast<std::size_t>(r)].update_rows[L], g) >= 0) return r;
  LTS_CHECK_MSG(false, "row " << g << " has no updater"); // the S(k) partition the nodes
  return 0;
}

std::size_t ThreadedLtsSolver::add_receiver(gindex_t node, int component) {
  LTS_CHECK(node >= 0 && node < op_->space().num_global_nodes());
  LTS_CHECK(component >= 0 && component < ncomp_);
  const std::size_t idx = traces_.size();
  traces_.push_back(Trace{node, component, {}, {}});
  ranks_[static_cast<std::size_t>(updater(node))].receivers.push_back(idx);
  return idx;
}

void ThreadedLtsSolver::adopt_state_from(const ThreadedLtsSolver& prev) {
  LTS_CHECK_MSG(op_ == prev.op_ && levels_ == prev.levels_ && structure_ == prev.structure_,
                "adopt_state_from requires the same operator/levels/structure");
  LTS_CHECK(ndof_ == prev.ndof_);
  LTS_CHECK_MSG(sources_.empty() && traces_.empty(),
                "adopt_state_from expects a freshly built solver");
  std::copy(prev.u_.begin(), prev.u_.end(), u_.begin());
  std::copy(prev.v_.get(), prev.v_.get() + ndof_, v_.get());
  // The frozen forces live on prev's fold rows, which its partition chose;
  // the full-size export is the partition-independent hand-off. The substep
  // velocities and saved displacements need no copy: every cycle writes them
  // before it reads them.
  import_accumulators(prev.frozen_forces(), prev.cumulative_);
  cycles_done_ = prev.cycles_done_;
  for (const auto& s : prev.sources_) add_source(s);
  for (const auto& t : prev.traces_) {
    const std::size_t idx = add_receiver(t.node, t.component);
    traces_[idx].times = t.times;
    traces_[idx].values = t.values;
  }
}

void ThreadedLtsSolver::set_state(std::span<const real_t> u0, std::span<const real_t> v0) {
  LTS_CHECK(u0.size() == ndof_ && v0.size() == ndof_);
  std::copy(u0.begin(), u0.end(), u_.begin());
  // K u through the solver's own plan: its (rank, level) groups cover E(k)
  // per level with the level-k column mask, and sum_k P_k = I, so all of
  // them together apply K u. The operator's full_plan() would pin a second
  // full-mesh metric copy for this one apply. The accumulation buffer and
  // workspace are rank 0's; every eval phase zeroes the rows it uses.
  real_t* ku = ranks_[0].private_buf.data();
  std::fill(ku, ku + ndof_, 0.0);
  op_->apply_add_blocks(*plan_, 0, plan_->num_blocks(), u_.data(), ku, *ranks_[0].workspace);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  if (sources_.empty()) {
    for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
      const real_t im = inv_mass_[g];
      for (std::size_t c = 0; c < nc; ++c)
        v_[g * nc + c] = v0[g * nc + c] + 0.5 * dt_ * im * ku[g * nc + c];
    }
  } else {
    // v^{-1/2} = v(0) - dt/2 * Minv (f(0) - K u0).
    std::vector<real_t> f(ndof_, 0.0);
    for (const auto& s : sources_) s.accumulate(0.0, ncomp_, f.data());
    for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
      const real_t im = inv_mass_[g];
      for (std::size_t c = 0; c < nc; ++c)
        v_[g * nc + c] = v0[g * nc + c] - 0.5 * dt_ * im * (f[g * nc + c] - ku[g * nc + c]);
    }
  }
  zero_forces();
  for (auto& t : traces_) {
    t.times.clear();
    t.values.clear();
  }
  cycles_done_ = 0;
  time_offset_ = 0;
  fault_fired_.store(false, std::memory_order_relaxed);
}

void ThreadedLtsSolver::adopt_raw_state(std::span<const real_t> u, std::span<const real_t> v_half,
                                        real_t time, std::int64_t cycles_done) {
  LTS_CHECK(u.size() == ndof_ && v_half.size() == ndof_);
  LTS_CHECK(cycles_done >= 0);
  std::copy(u.begin(), u.end(), u_.begin());
  std::copy(v_half.begin(), v_half.end(), v_.get());
  cycles_done_ = cycles_done;
  // When the adopted clock sits exactly on the cycle grid (same-dt restore),
  // the offset must be exactly 0.0 or resumed sample times drift by an ulp:
  // FP contraction would otherwise fuse this into fma(-cycles, dt, time) and
  // subtract the *exact* product instead of the rounded one.
  const real_t elapsed = static_cast<real_t>(cycles_done) * dt_;
  time_offset_ = (time == elapsed) ? real_t(0) : time - elapsed;
  // The substep velocities and saved displacements are not reset: every
  // cycle writes them before it reads them.
  zero_forces();
}

void ThreadedLtsSolver::zero_forces() {
  if (!cumulative_.empty()) std::fill(cumulative_.begin(), cumulative_.end(), 0.0);
  for (auto& rd : ranks_)
    for (auto& f : rd.forces) std::fill(f.begin(), f.end(), 0.0);
}

void ThreadedLtsSolver::import_accumulators(const std::vector<std::vector<real_t>>& forces,
                                            std::span<const real_t> cumulative) {
  const auto nacc = static_cast<std::size_t>(std::max(0, levels_->num_levels - 1));
  if (forces.size() != nacc || cumulative.size() != cumulative_.size()) return;
  for (const auto& f : forces)
    if (f.size() != ndof_) return;
  const auto nc = static_cast<std::size_t>(ncomp_);
  for (auto& rd : ranks_)
    for (std::size_t L = 0; L < nacc; ++L) {
      const real_t* full = forces[L].data();
      real_t* mine = rd.forces[L].data();
      for_each_fold_row(rd, L, [&](std::size_t j, gindex_t g) {
        std::copy_n(full + static_cast<std::size_t>(g) * nc, nc, mine + j * nc);
      });
    }
  std::copy(cumulative.begin(), cumulative.end(), cumulative_.begin());
}

std::vector<std::vector<real_t>> ThreadedLtsSolver::frozen_forces() const {
  const auto nacc = static_cast<std::size_t>(std::max(0, levels_->num_levels - 1));
  const auto nc = static_cast<std::size_t>(ncomp_);
  std::vector<std::vector<real_t>> out(nacc, std::vector<real_t>(ndof_, 0.0));
  for (const auto& rd : ranks_)
    for (std::size_t L = 0; L < nacc; ++L) {
      const real_t* mine = rd.forces[L].data();
      real_t* full = out[L].data();
      for_each_fold_row(rd, L, [&](std::size_t j, gindex_t g) {
        std::copy_n(mine + j * nc, nc, full + static_cast<std::size_t>(g) * nc);
      });
    }
  return out;
}

void ThreadedLtsSolver::sync(rank_t r, level_t k) {
  if (!pool_ || !participates(r, k)) return; // a lone rank never waits
  const WallTimer t;
  level_barriers_[static_cast<std::size_t>(k - 1)]->arrive_and_wait();
  const double s = t.seconds();
  stall_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
  tally(ranks_[static_cast<std::size_t>(r)], slot_barrier(), s);
}

void ThreadedLtsSolver::run_chunk(RankData& self, Chunk& chunk) {
  // The executing thread accumulates the chunk's block contributions in its
  // own private buffer (zeroed on the chunk's rows), then copies them out to
  // the chunk's acc buffer. The owner reduces acc buffers in a fixed order,
  // so the result is independent of which thread ran the chunk. Chunks are
  // whole plan blocks, so the batched kernel runs unsplit.
  const auto nc = static_cast<std::size_t>(ncomp_);
  real_t* buf = self.private_buf.data();
  zero_rows(buf, chunk.rows, nc);
  op_->apply_add_blocks(*plan_, chunk.first_block, chunk.last_block, u_.data(), buf,
                        *self.workspace);
  copy_rows(buf, chunk.rows, nc, chunk.acc.data());
}

void ThreadedLtsSolver::eval_phase(rank_t r, level_t k) {
  if (!participates(r, k)) return;
  auto& rd = ranks_[static_cast<std::size_t>(r)];
  const auto L = static_cast<std::size_t>(k - 1);
  const bool steal = cfg_.mode == SchedulerMode::LevelAwareSteal;
  const WallTimer timer;

  if (steal) {
    // Chunked evaluation with work stealing among the level's participants;
    // every chunk is a whole-block range of the batched plan.
    auto& my_cursor = rd.chunk_cursor[L];
    my_cursor.store(0, std::memory_order_relaxed);
    auto& mine = rd.chunks[L];
    for (index_t c;
         (c = my_cursor.fetch_add(1, std::memory_order_relaxed)) < static_cast<index_t>(mine.size());)
      run_chunk(rd, mine[static_cast<std::size_t>(c)]);

    const auto& grp = group_[L];
    if (grp.size() > 1) {
      const auto pos = static_cast<std::size_t>(
          std::lower_bound(grp.begin(), grp.end(), r) - grp.begin());
      for (std::size_t off = 1; off < grp.size(); ++off) {
        auto& vd = ranks_[static_cast<std::size_t>(grp[(pos + off) % grp.size()])];
        auto& theirs = vd.chunks[L];
        for (index_t c; (c = vd.chunk_cursor[L].fetch_add(1, std::memory_order_relaxed)) <
                        static_cast<index_t>(theirs.size());) {
          run_chunk(rd, theirs[static_cast<std::size_t>(c)]);
          steals_[static_cast<std::size_t>(r)].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  } else {
    // Private batched accumulation of this rank's share of E(k).
    zero_rows(rd.private_buf.data(), rd.private_rows[L], static_cast<std::size_t>(ncomp_));
    const auto range = plan_->group_blocks(group_index(r, k));
    op_->apply_add_blocks(*plan_, range.first, range.last, u_.data(), rd.private_buf.data(),
                          *rd.workspace);
  }
  charge(r, slot_eval(k), timer.seconds());

  sync(r, k); // all private contributions complete

  // Reduction (the "MPI exchange"): the owner sums each row several buffers
  // contribute to, in the fixed order, into its own buffer — afterwards that
  // buffer holds the level-k contribution of every row the rank owns. Then
  // the rows the child levels read, eval_rows(k) ∩ R(k+1), are folded; the
  // S(k) rows are folded by the level-k update (see the file comment). The
  // caller's next barrier publishes the folds. A lone rank at the deepest
  // level has nothing to do here.
  if (rd.fold_rows[L].empty() && (steal ? rd.owned_rows : rd.shared_rows)[L].empty()) return;
  const WallTimer timer2;
  const auto nc = static_cast<std::size_t>(ncomp_);
  real_t* buf = rd.private_buf.data();
  const auto gather = [&](const core::RowRuns& rows, const std::vector<index_t>& offs,
                          auto&& entry) {
    core::for_each_row(rows, [&](std::size_t j, gindex_t g) {
      const std::size_t base = static_cast<std::size_t>(g) * nc;
      for (std::size_t c = 0; c < nc; ++c) {
        real_t sum = 0;
        for (index_t s = offs[j]; s < offs[j + 1]; ++s) sum += entry(s, base)[c];
        buf[base + c] = sum;
      }
    });
  };
  if (steal) {
    // Owners walk the static chunk-contribution lists built alongside the
    // chunks: each owned row sums its touching chunks' acc entries in the
    // fixed (rank, chunk) order, independent of which thread ran each chunk.
    const auto& srcs = rd.red_sources[L];
    gather(rd.owned_rows[L], rd.red_offsets[L],
           [&](index_t s, std::size_t) { return srcs[static_cast<std::size_t>(s)]; });
  } else {
    const auto& stch = rd.shared_touchers[L];
    gather(rd.shared_rows[L], rd.shared_offsets[L], [&](index_t s, std::size_t base) {
      return ranks_[static_cast<std::size_t>(stch[static_cast<std::size_t>(s)])].private_buf.data() +
             base;
    });
  }
  if (!rd.fold_rows[L].empty()) { // only below the deepest level
    real_t* fk = rd.forces[L].data();
    core::for_each_row(rd.fold_rows[L], [&](std::size_t j, gindex_t g) {
      const real_t im = inv_mass_[static_cast<std::size_t>(g)];
      for (std::size_t c = 0; c < nc; ++c) {
        const std::size_t i = static_cast<std::size_t>(g) * nc + c;
        fold(im, buf[i], fk[j * nc + c], cumulative_[i]);
      }
    });
  }
  charge(r, slot_reduce(), timer2.seconds());
}

double ThreadedLtsSolver::apply_rank_sources(RankData& rd, level_t k, real_t t_src, real_t kick,
                                             real_t drift, real_t* vel) {
  // Post-correction of an update that ran without sources: the updates are
  // linear in F, so adding the source term S afterwards equals folding it
  // into F up to a last-ulp reassociation. S = -Minv f(t), so that
  // v -= kick * F realizes v += kick * Minv f.
  const auto& sources = rd.sources[static_cast<std::size_t>(k - 1)];
  if (sources.empty()) return 0;
  const WallTimer timer;
  const auto nc = static_cast<std::size_t>(ncomp_);
  for (const auto& [s, slot] : sources) {
    const real_t val = s.amplitude * s.wavelet(t_src);
    const real_t im = inv_mass_[static_cast<std::size_t>(s.node)];
    for (std::size_t c = 0; c < nc; ++c) {
      const real_t S = -im * val * s.direction[c];
      const real_t dv = -kick * S;
      vel[slot * nc + c] += dv;
      u_[static_cast<std::size_t>(s.node) * nc + c] += drift * dv;
    }
  }
  const double seconds = timer.seconds();
  tally(rd, slot_sources(), seconds);
  return seconds;
}

double ThreadedLtsSolver::sample_receivers(RankData& rd, real_t t) {
  if (rd.receivers.empty()) return 0;
  const WallTimer timer;
  for (std::size_t idx : rd.receivers) {
    auto& tr = traces_[idx];
    tr.times.push_back(t);
    tr.values.push_back(u_[static_cast<std::size_t>(tr.node) * static_cast<std::size_t>(ncomp_) +
                           static_cast<std::size_t>(tr.component)]);
  }
  const double seconds = timer.seconds();
  tally(rd, slot_receivers(), seconds);
  return seconds;
}

void ThreadedLtsSolver::run_level(rank_t r, level_t k, real_t t0) {
  const level_t nl = levels_->num_levels;
  const real_t delta = dt_ / static_cast<real_t>(level_rate(k));
  auto& rd = ranks_[static_cast<std::size_t>(r)];
  const auto L = static_cast<std::size_t>(k - 1);
  const auto nc = static_cast<std::size_t>(ncomp_);
  // Level k's substep velocity on S(k) and, below the deepest level, on
  // R(k+1), plus the displacement saved for its reconstruction — all
  // compact over the rank's row lists.
  const auto& upd = rd.update_rows[L];
  real_t* vt_upd = rd.vt_update[L - 1].data();
  const real_t* buf = rd.private_buf.data();
  const bool in = participates(r, k);

  for (int m = 0; m < 2; ++m) {
    const bool first = (m == 0);
    if (k == nl) {
      // The deepest level's substep pair: kick delta/2 then delta (the
      // staggered start), drift delta on both. Its rows are S(N), so the
      // update reads the fresh force straight from the summed contribution.
      const real_t kick = first ? real_t(0.5) * delta : delta;
      eval_phase(r, k);
      if (in) {
        const WallTimer timer;
        core::for_each_row(upd, [&](std::size_t j, gindex_t g) {
          const real_t im = inv_mass_[static_cast<std::size_t>(g)];
          for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t i = static_cast<std::size_t>(g) * nc + c;
            real_t& w = vt_upd[j * nc + c];
            const real_t F = cumulative_[i] + rounded_product(im, buf[i]);
            if (first)
              w = -kick * F;
            else
              w -= kick * F;
            u_[i] += delta * w;
          }
        });
        // Sources are sampled frozen at the cycle start (the midpoint rule;
        // see the file comment).
        const double t_src = apply_rank_sources(rd, k, t0, kick, delta, vt_upd);
        charge(r, slot_update(), timer.seconds(), t_src);
      }
      // m == 0: updates visible before the next eval gathers u. m == 1: the
      // caller's post-child barrier publishes instead.
      if (first) sync(r, k);
      continue;
    }

    const auto& rec = rd.recon_rows[L];
    real_t* vt_rec = rd.vt_recon[L - 1].data();
    real_t* save = rd.saved_u[L].data();
    eval_phase(r, k);
    if (in) {
      const WallTimer timer;
      copy_rows(u_.data(), rec, nc, save);
      charge(r, slot_update(), timer.seconds());
    }
    sync(r, k); // folds and saves done before the child reads them or mutates u

    run_level(r, k + 1, t0);
    sync(r, k); // child updates visible before reconstruction reads u

    if (in) {
      const WallTimer timer2;
      core::for_each_row(rec, [&](std::size_t j, gindex_t g) {
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t i = static_cast<std::size_t>(g) * nc + c;
          const real_t saved = save[j * nc + c];
          real_t& w = vt_rec[j * nc + c];
          if (first)
            w = (u_[i] - saved) / delta;
          else
            w += 2.0 * (u_[i] - saved) / delta;
          u_[i] = saved + delta * w;
        }
      });
      // S(k) rows: the level-k fold, then the collapsed leapfrog step.
      real_t* fk = rd.forces[L].data() + core::row_count(rd.fold_rows[L]) * nc;
      core::for_each_row(upd, [&](std::size_t j, gindex_t g) {
        const real_t im = inv_mass_[static_cast<std::size_t>(g)];
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t i = static_cast<std::size_t>(g) * nc + c;
          real_t& w = vt_upd[j * nc + c];
          const real_t F = fold(im, buf[i], fk[j * nc + c], cumulative_[i]);
          if (first)
            w = -0.5 * delta * F;
          else
            w -= delta * F;
          u_[i] += delta * w;
        }
      });
      const double t_src =
          apply_rank_sources(rd, k, t0, first ? real_t(0.5) * delta : delta, delta, vt_upd);
      charge(r, slot_update(), timer2.seconds(), t_src);
    }
    if (first) sync(r, k); // level-k updates visible before the next eval
  }
}

void ThreadedLtsSolver::thread_main(rank_t r, std::int64_t cycles) {
  const level_t nl = levels_->num_levels;
  auto& rd = ranks_[static_cast<std::size_t>(r)];
  const bool in = participates(r, 1);

  // The level-1 reconstruction rows R(2) and their saved displacements; a
  // single level has none, so the loops over rec below never run.
  const auto nc = static_cast<std::size_t>(ncomp_);
  const auto& rec = rd.recon_rows[0];
  const auto& upd = rd.update_rows[0];
  real_t* save = nl > 1 ? rd.saved_u[0].data() : nullptr;
  // Level 1's frozen force on S(1), behind its fold rows (multi-level only).
  real_t* f1 = nl > 1 ? rd.forces[0].data() + core::row_count(rd.fold_rows[0]) * nc : nullptr;
  const real_t* buf = rd.private_buf.data();

  for (std::int64_t cyc = 0; cyc < cycles; ++cyc) {
    // Cycle start time from the integer cycle counter: identical however the
    // caller splits cycles over run_cycles calls. (The offset is nonzero only
    // after a checkpoint restore that changed dt — see adopt_raw_state.)
    const real_t t0 = time_offset_ + static_cast<real_t>(cycles_done_ + cyc) * dt_;
    eval_phase(r, 1);
    if (nl > 1) {
      if (in) {
        const WallTimer timer;
        copy_rows(u_.data(), rec, nc, save);
        charge(r, slot_update(), timer.seconds());
      }
      sync(r, 1); // folds and saves done before the child reads them or mutates u

      run_level(r, 2, t0);
      sync(r, 1); // child updates visible before reconstruction reads u
    }

    if (in) {
      const WallTimer timer2;
      core::for_each_row(rec, [&](std::size_t j, gindex_t g) {
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t i = static_cast<std::size_t>(g) * nc + c;
          const real_t saved = save[j * nc + c];
          v_[i] += 2.0 * (u_[i] - saved) / dt_;
          u_[i] = saved + dt_ * v_[i];
        }
      });
      // The physical leapfrog step of S(1): a single level's force is the
      // fresh Minv K u; on several levels the level-1 fold first refreshes
      // the frozen sum of every level's force.
      const auto leapfrog = [&](auto&& force) {
        core::for_each_row(upd, [&](std::size_t j, gindex_t g) {
          const real_t im = inv_mass_[static_cast<std::size_t>(g)];
          for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t i = static_cast<std::size_t>(g) * nc + c;
            v_[i] -= dt_ * force(im, i, j * nc + c);
            u_[i] += dt_ * v_[i];
          }
        });
      };
      if (f1)
        leapfrog([&](real_t im, std::size_t i, std::size_t p) {
          return fold(im, buf[i], f1[p], cumulative_[i]);
        });
      else
        leapfrog([&](real_t im, std::size_t i, std::size_t) { return im * buf[i]; });
      // Level-1 rows take the cycle-frozen source in the physical leapfrog
      // step of S(1), after the fine recursion.
      const double t_src = apply_rank_sources(rd, 1, t0, dt_, dt_, v_.get());
      // Every row this rank updates is final for the cycle (recon ∪ update
      // covers them all) and only this rank ever writes those rows, so
      // sampling here is race-free.
      const double t_recv =
          sample_receivers(rd, time_offset_ + static_cast<real_t>(cycles_done_ + cyc + 1) * dt_);
      maybe_inject_fault(rd, r, cycles_done_ + cyc);
      charge(r, slot_update(), timer2.seconds(), t_src + t_recv);
    }
    if (pool_) pool_->beat();
    sync(r, 1); // cycle boundary: all updates visible for the next cycle
  }
}

void ThreadedLtsSolver::maybe_inject_fault(const RankData& rd, rank_t r, std::int64_t cycle) {
  using Kind = resilience::FaultPlan::Kind;
  if (fault_.kind != Kind::Nan && fault_.kind != Kind::Stall) return;
  if (!fault_.armed() || cycle != fault_.cycle) return;
  if (fault_fired_.load(std::memory_order_relaxed)) return;
  if (r != static_cast<rank_t>(fault_.rank % static_cast<int>(nranks_))) return;

  if (fault_.kind == Kind::Stall) {
    fault_fired_.store(true, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(fault_.stall_ms));
    return;
  }

  // Nan: poke one row this rank updates. All of rd's update/recon rows are
  // final for the cycle here and only this rank ever writes them, so the
  // corruption is race-free and deterministic (seeded index over the rank's
  // row lists, update rows first).
  std::size_t nrows = 0;
  for (const auto& runs : rd.update_rows) nrows += core::row_count(runs);
  for (const auto& runs : rd.recon_rows) nrows += core::row_count(runs);
  if (nrows == 0) return; // the addressed rank owns nothing to corrupt
  std::size_t pick = resilience::fault_pick(fault_.seed, nrows);
  gindex_t g = -1;
  for (const auto* lists : {&rd.update_rows, &rd.recon_rows})
    for (const auto& runs : *lists)
      for (const auto& run : runs) {
        const auto n = static_cast<std::size_t>(run.end - run.begin);
        if (g < 0 && pick < n) g = run.begin + static_cast<gindex_t>(pick);
        if (g < 0) pick -= n;
      }
  LTS_CHECK(g >= 0);
  fault_fired_.store(true, std::memory_order_relaxed);
  for (int c = 0; c < ncomp_; ++c)
    u_[static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) +
       static_cast<std::size_t>(c)] = std::numeric_limits<real_t>::quiet_NaN();
}

double ThreadedLtsSolver::run_cycles(std::int64_t cycles) {
  LTS_CHECK(cycles >= 0);
  if (cycles == 0) return 0.0;
  const WallTimer total;
  const auto parallel = [&](std::int64_t n) {
    if (pool_)
      pool_->run([this, n](int worker) { thread_main(static_cast<rank_t>(worker), n); },
                 cfg_.watchdog_seconds);
    else
      thread_main(0, n);
    cycles_done_ += n;
  };
  // An armed throw-fault fires here, on the driving thread, at the addressed
  // cycle boundary: a worker that threw mid-cycle would abandon its barriers
  // and deadlock its peers, so the cooperative boundary is the only safe
  // throw point (see resilience/fault.hpp).
  if (fault_.kind == resilience::FaultPlan::Kind::Throw && fault_.armed() &&
      !fault_fired_.load(std::memory_order_relaxed) && fault_.cycle >= cycles_done_ &&
      fault_.cycle < cycles_done_ + cycles) {
    const std::int64_t before = fault_.cycle - cycles_done_;
    if (before > 0) parallel(before);
    fault_fired_.store(true, std::memory_order_relaxed);
    LTS_RAISE(resilience::Error,
              "injected failure (fault.kind=throw) at cycle " << cycles_done_);
  }
  parallel(cycles);
  return total.seconds();
}

} // namespace ltswave::runtime

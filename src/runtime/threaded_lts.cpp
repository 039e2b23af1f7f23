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
      fused_(levels.num_levels == 1 && part.num_parts == 1 &&
             cfg.mode != SchedulerMode::LevelAwareSteal),
      inv_mass_(op.space().inv_mass()) {
  LTS_CHECK(part.part.size() == static_cast<std::size_t>(op.space().num_elems()));
  LTS_CHECK(nranks_ >= 1);
  const auto& space = op.space();
  ndof_ = static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(ncomp_);

  // state() hands u out by reference, so it is a plain vector; v and
  // scratch are untouched allocations that first_touch_rank_buffers() has
  // each pool worker zero on the rows it owns (see the file comment).
  u_.assign(ndof_, 0.0);
  v_ = std::make_unique_for_overwrite<real_t[]>(ndof_);
  scratch_ = std::make_unique_for_overwrite<real_t[]>(ndof_);

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
void ThreadedLtsSolver::for_each_fold_row(const RankData& rd, std::size_t L, F&& f) const {
  if (cfg_.mode == SchedulerMode::LevelAwareSteal) {
    const auto& owned = rd.owned_rows[L];
    for (std::size_t j = 0; j < owned.size(); ++j) f(j, owned[j]);
    return;
  }
  const auto solo = rd.solo_rows[L].rows();
  for (std::size_t j = 0; j < solo.size(); ++j) f(j, solo[j]);
  const auto& shared = rd.shared_rows[L];
  for (std::size_t s = 0; s < shared.size(); ++s) f(solo.size() + s, shared[s]);
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
      rd.vt_update[L].assign(rd.update_rows[L + 1].size() * nc, 0.0);
      rd.vt_recon[L].assign(rd.recon_rows[L + 1].size() * nc, 0.0);
      rd.saved_u[L].assign(rd.recon_rows[L].size() * nc, 0.0);
      std::size_t nfold = 0;
      for_each_fold_row(rd, L, [&nfold](std::size_t, gindex_t) { ++nfold; });
      rd.forces[L].assign(nfold * nc, 0.0);
    }
  }
}

void ThreadedLtsSolver::first_touch_rank_buffers() {
  const level_t nl = levels_->num_levels;
  // A rank without peers outside steal mode accumulates into scratch_ and
  // needs no private buffer (see acc_buffer).
  const bool private_bufs = nranks_ > 1 || cfg_.mode == SchedulerMode::LevelAwareSteal;
  const auto touch = [this, nl, private_bufs](int worker) {
    const auto r = static_cast<rank_t>(worker);
    auto& rd = ranks_[static_cast<std::size_t>(r)];
    // This rank's plan groups are contiguous: (r, 1) .. (r, nl).
    const index_t first = plan_->group_blocks(group_index(r, 1)).first;
    const index_t last = plan_->group_blocks(group_index(r, nl)).last;
    plan_->fill(first, last);
    if (private_bufs) rd.private_buf.assign(ndof_, 0.0);
    rd.workspace = std::make_unique<sem::KernelWorkspace>(op_->make_workspace());
    const auto nc = static_cast<std::size_t>(ncomp_);
    for (auto& level_chunks : rd.chunks)
      for (auto& ch : level_chunks) ch.acc.assign(ch.rows.size() * nc, 0.0);
    // First touch of the shared v/scratch state: zero the rows this rank
    // owns (every global node has an owner < nranks_, so together the workers
    // initialize every entry — and each page lands on its updater's node).
    for (std::size_t g = 0; g < row_owner_.size(); ++g) {
      if (row_owner_[g] != r) continue;
      for (std::size_t c = 0; c < nc; ++c) {
        v_[g * nc + c] = 0.0;
        scratch_[g * nc + c] = 0.0;
      }
    }
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
  const gindex_t nn = space.num_global_nodes();
  const auto nnodes = static_cast<std::size_t>(nn);
  const bool steal = cfg_.mode == SchedulerMode::LevelAwareSteal;

  // Global row owner: min rank among elements containing the node. Kept as a
  // member — source/receiver registration resolves owning ranks through it.
  row_owner_.assign(nnodes, nranks_);
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const rank_t r = part_->part[static_cast<std::size_t>(e)];
    const gindex_t* l2g = space.elem_nodes(e);
    for (int q = 0; q < npts; ++q) {
      auto& o = row_owner_[static_cast<std::size_t>(l2g[q])];
      o = std::min(o, r);
    }
  }

  ranks_.resize(static_cast<std::size_t>(nranks_));
  for (auto& rd : ranks_) {
    rd.eval_elems.assign(static_cast<std::size_t>(nl), {});
    rd.private_rows.assign(static_cast<std::size_t>(nl), {});
    rd.solo_rows.assign(static_cast<std::size_t>(nl), {});
    rd.shared_rows.assign(static_cast<std::size_t>(nl), {});
    rd.shared_offsets.assign(static_cast<std::size_t>(nl), {});
    rd.shared_touchers.assign(static_cast<std::size_t>(nl), {});
    if (steal) rd.owned_rows.assign(static_cast<std::size_t>(nl), {});
    rd.update_rows.assign(static_cast<std::size_t>(nl), {});
    rd.recon_rows.assign(static_cast<std::size_t>(nl), {});
    rd.sources.assign(static_cast<std::size_t>(nl), {});
    rd.phase_seconds = std::vector<std::atomic<double>>(static_cast<std::size_t>(nl) + 5);
    rd.phase_count = std::vector<std::atomic<std::int64_t>>(static_cast<std::size_t>(nl) + 5);
    // private_buf and workspace are allocated in first_touch_rank_buffers()
    // by the owning pool worker (NUMA first touch).
  }

  // The ranks touching each row of E(k), as a CSR (touch_off, touchers) built
  // without sorting: a counting pass and a fill pass that both visit ranks in
  // ascending order, with a per-row "last rank" stamp so each (row, rank)
  // pair counts once. Every toucher list thereby comes out rank-sorted, its
  // first entry being the row's owner (the minimum touching rank). A lone
  // rank touches and owns every row, so its lists are the structure's own:
  // it skips the census and the row-list copies it would build and free.
  if (nranks_ == 1) {
    auto& rd = ranks_[0];
    for (std::size_t L = 0; L < static_cast<std::size_t>(nl); ++L) {
      rd.eval_elems[L] = st.eval_elems[L];
      rd.private_rows[L].view(st.eval_rows[L]);
      rd.solo_rows[L].view(st.eval_rows[L]);
      rd.update_rows[L].view(st.update_rows[L]);
      rd.recon_rows[L].view(st.recon_rows[L]);
      if (steal) rd.owned_rows[L] = st.eval_rows[L];
    }
  } else {
    std::vector<rank_t> stamp(nnodes);
    std::vector<index_t> touch_off(nnodes + 1);
    std::vector<rank_t> touchers;
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
        const auto row = static_cast<gindex_t>(g);
        // Per-rank private rows (rows their own elements touch).
        for (std::size_t t = first; t < last; ++t)
          ranks_[static_cast<std::size_t>(touchers[t])].private_rows[L].push_back(row);
        // Reduction ownership: the minimum touching rank owns the row at this
        // level; rows with one toucher are copies, others sum a toucher list.
        auto& rd = ranks_[static_cast<std::size_t>(touchers[first])];
        if (last - first == 1) {
          rd.solo_rows[L].push_back(row);
        } else {
          auto& offs = rd.shared_offsets[L];
          auto& tchs = rd.shared_touchers[L];
          if (offs.empty()) offs.push_back(0);
          rd.shared_rows[L].push_back(row);
          tchs.insert(tchs.end(), touchers.begin() + static_cast<std::ptrdiff_t>(first),
                      touchers.begin() + static_cast<std::ptrdiff_t>(last));
          offs.push_back(static_cast<index_t>(tchs.size()));
        }
        if (steal) rd.owned_rows[L].push_back(row);
      }

      // Row-update ownership uses the global row owner.
      for (gindex_t g : st.update_rows[L])
        ranks_[static_cast<std::size_t>(row_owner_[static_cast<std::size_t>(g)])]
            .update_rows[L]
            .push_back(g);
      for (gindex_t g : st.recon_rows[L])
        ranks_[static_cast<std::size_t>(row_owner_[static_cast<std::size_t>(g)])]
            .recon_rows[L]
            .push_back(g);
      // Sealed level by level, so at most one level's copies of whole
      // structure lists are ever alive at once.
      for (auto& rd : ranks_) {
        rd.private_rows[L].finish(st.eval_rows[L]);
        rd.solo_rows[L].finish(st.eval_rows[L]);
        rd.update_rows[L].finish(st.update_rows[L]);
        rd.recon_rows[L].finish(st.recon_rows[L]);
      }
    }
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
    // A rank takes part in level-k barriers when it has work at level k or at
    // any finer level (monotone closure: fine substeps are nested inside
    // coarse phases, and the row/force state written at level k is published
    // to coarser readers through the enclosing coarser barrier — so finer
    // ranks must join coarser barriers, never the other way around). The
    // legacy barrier-all mode keeps everyone in every level.
    bool finer = false;
    for (level_t k = nl; k >= 1; --k) {
      const auto L = static_cast<std::size_t>(k - 1);
      const bool work = !rd.eval_elems[L].empty() || !rd.private_rows[L].empty() ||
                        !rd.solo_rows[L].empty() || !rd.shared_rows[L].empty() ||
                        !rd.update_rows[L].empty() || !rd.recon_rows[L].empty();
      finer = finer || work;
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
        for (index_t blk = ch.first_block; blk < ch.last_block; ++blk) {
          const index_t* elems = plan_->block_elems(blk);
          const int fill = plan_->block_fill(blk);
          for (int l = 0; l < fill; ++l) {
            const gindex_t* l2g = space.elem_nodes(elems[l]);
            for (int q = 0; q < npts; ++q) ch.rows.push_back(l2g[q]);
          }
        }
        std::sort(ch.rows.begin(), ch.rows.end());
        ch.rows.erase(std::unique(ch.rows.begin(), ch.rows.end()), ch.rows.end());
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
    for (rank_t r = 0; r < nranks_; ++r) {
      const auto& owned = ranks_[static_cast<std::size_t>(r)].owned_rows[L];
      for (std::size_t j = 0; j < owned.size(); ++j) {
        owner_of[static_cast<std::size_t>(owned[j])] = r;
        pos_of[static_cast<std::size_t>(owned[j])] = static_cast<index_t>(j);
      }
    }
    std::vector<std::vector<std::pair<index_t, const real_t*>>> contribs(
        static_cast<std::size_t>(nranks_));
    for (rank_t r = 0; r < nranks_; ++r)
      for (const auto& ch : ranks_[static_cast<std::size_t>(r)].chunks[L])
        for (std::size_t i = 0; i < ch.rows.size(); ++i) {
          const auto g = static_cast<std::size_t>(ch.rows[i]);
          LTS_CHECK(owner_of[g] >= 0);
          contribs[static_cast<std::size_t>(owner_of[g])].emplace_back(pos_of[g],
                                                                       ch.acc.data() + i * nc);
        }
    for (rank_t r = 0; r < nranks_; ++r) {
      auto& rd = ranks_[static_cast<std::size_t>(r)];
      auto& list = contribs[static_cast<std::size_t>(r)];
      // stable: contributions for one row keep their (rank, chunk) order.
      std::stable_sort(list.begin(), list.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      const std::size_t nrows = rd.owned_rows[L].size();
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
  auto& rd = ranks_[static_cast<std::size_t>(row_owner_[static_cast<std::size_t>(src.node)])];
  // Level 1 kicks v_ at the node; a finer level kicks its compact vt, whose
  // rows are the owner's S(rho) — the source node is one by construction.
  std::size_t slot = static_cast<std::size_t>(src.node);
  if (rho > 1) {
    const auto rows = rd.update_rows[static_cast<std::size_t>(rho - 1)].rows();
    const auto it = std::find(rows.begin(), rows.end(), src.node);
    LTS_CHECK(it != rows.end());
    slot = static_cast<std::size_t>(it - rows.begin());
  }
  rd.sources[static_cast<std::size_t>(rho - 1)].push_back({src, slot});
}

std::size_t ThreadedLtsSolver::add_receiver(gindex_t node, int component) {
  LTS_CHECK(node >= 0 && node < op_->space().num_global_nodes());
  LTS_CHECK(component >= 0 && component < ncomp_);
  const std::size_t idx = traces_.size();
  traces_.push_back(Trace{node, component, {}, {}});
  const rank_t owner = row_owner_[static_cast<std::size_t>(node)];
  ranks_[static_cast<std::size_t>(owner)].receivers.push_back(idx);
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
  std::copy(prev.scratch_.get(), prev.scratch_.get() + ndof_, scratch_.get());
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
  std::fill(scratch_.get(), scratch_.get() + ndof_, 0.0);
  // K u through the solver's own plan: its (rank, level) groups cover E(k)
  // per level with the level-k column mask, and sum_k P_k = I, so all of
  // them together apply K u. The operator's full_plan() would pin a second
  // full-mesh metric copy for this one apply. The workspace is rank 0's.
  op_->apply_add_blocks(*plan_, 0, plan_->num_blocks(), u_.data(), scratch_.get(),
                        *ranks_[0].workspace);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  if (sources_.empty()) {
    for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
      const real_t im = inv_mass_[g];
      for (std::size_t c = 0; c < nc; ++c)
        v_[g * nc + c] = v0[g * nc + c] + 0.5 * dt_ * im * scratch_[g * nc + c];
    }
  } else {
    // v^{-1/2} = v(0) - dt/2 * Minv (f(0) - K u0).
    std::vector<real_t> f(ndof_, 0.0);
    for (const auto& s : sources_) s.accumulate(0.0, ncomp_, f.data());
    for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
      const real_t im = inv_mass_[g];
      for (std::size_t c = 0; c < nc; ++c)
        v_[g * nc + c] = v0[g * nc + c] - 0.5 * dt_ * im * (f[g * nc + c] - scratch_[g * nc + c]);
    }
  }
  std::fill(scratch_.get(), scratch_.get() + ndof_, 0.0);
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
  std::fill(scratch_.get(), scratch_.get() + ndof_, 0.0);
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
  for (const gindex_t g : chunk.rows)
    for (std::size_t c = 0; c < nc; ++c) buf[static_cast<std::size_t>(g) * nc + c] = 0.0;
  op_->apply_add_blocks(*plan_, chunk.first_block, chunk.last_block, u_.data(), buf,
                        *self.workspace);
  real_t* acc = chunk.acc.data();
  for (std::size_t i = 0; i < chunk.rows.size(); ++i) {
    const std::size_t base = static_cast<std::size_t>(chunk.rows[i]) * nc;
    for (std::size_t c = 0; c < nc; ++c) acc[i * nc + c] = buf[base + c];
  }
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
    // Private batched accumulation of this rank's share of E(k). The fused
    // one-level rank touches every row, so it zeroes scratch_ in one fill.
    real_t* buf = acc_buffer(rd);
    if (fused_)
      std::fill(buf, buf + ndof_, 0.0);
    else
      for (gindex_t g : rd.private_rows[L])
        for (int c = 0; c < ncomp_; ++c)
          buf[static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp_) + static_cast<std::size_t>(c)] = 0.0;
    const auto range = plan_->group_blocks(group_index(r, k));
    op_->apply_add_blocks(*plan_, range.first, range.last, u_.data(), buf, *rd.workspace);
  }
  {
    const double s = timer.seconds();
    busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
    tally(rd, slot_eval(k), s);
  }

  sync(r, k); // all private contributions complete
  // The fused one-level update scales K u by Minv itself (thread_main).
  if (fused_) return;

  // Reduction (the "MPI exchange"): owners combine contributions, scale by
  // Minv, and refresh the frozen-force accumulators. Only the deepest level
  // (and a single-level run) reads the fresh force back from scratch_; the
  // coarser levels read cumulative_.
  const WallTimer timer2;
  const auto nc = static_cast<std::size_t>(ncomp_);
  // j is the row's position in fold order (for_each_fold_row), which indexes
  // the rank's compact level-k force array.
  real_t* fk = k < levels_->num_levels ? rd.forces[L].data() : nullptr;
  auto fold = [&](std::size_t j, gindex_t g, real_t contrib, std::size_t c) {
    const std::size_t i = static_cast<std::size_t>(g) * nc + c;
    const real_t fresh = inv_mass_[static_cast<std::size_t>(g)] * contrib;
    if (fk) {
      real_t& f = fk[j * nc + c];
      cumulative_[i] += fresh - f;
      f = fresh;
    } else {
      scratch_[i] = fresh;
    }
  };
  if (steal) {
    // Owners walk the static chunk-contribution lists built alongside the
    // chunks: each owned row sums its touching chunks' acc entries in the
    // fixed (rank, chunk) order, independent of which thread ran each chunk.
    const auto& owned = rd.owned_rows[L];
    const auto& offs = rd.red_offsets[L];
    const auto& srcs = rd.red_sources[L];
    for (std::size_t j = 0; j < owned.size(); ++j) {
      const gindex_t g = owned[j];
      for (std::size_t c = 0; c < nc; ++c) {
        real_t sum = 0;
        for (index_t s = offs[j]; s < offs[j + 1]; ++s)
          sum += srcs[static_cast<std::size_t>(s)][c];
        fold(j, g, sum, c);
      }
    }
  } else {
    const real_t* buf = acc_buffer(rd);
    const auto solo = rd.solo_rows[L].rows();
    for (std::size_t j = 0; j < solo.size(); ++j)
      for (std::size_t c = 0; c < nc; ++c)
        fold(j, solo[j], buf[static_cast<std::size_t>(solo[j]) * nc + c], c);
    const auto& srows = rd.shared_rows[L];
    const auto& soffs = rd.shared_offsets[L];
    const auto& stch = rd.shared_touchers[L];
    for (std::size_t s = 0; s < srows.size(); ++s) {
      const gindex_t g = srows[s];
      for (std::size_t c = 0; c < nc; ++c) {
        real_t sum = 0;
        for (index_t t = soffs[s]; t < soffs[s + 1]; ++t)
          sum += ranks_[static_cast<std::size_t>(stch[static_cast<std::size_t>(t)])]
                     .private_buf[static_cast<std::size_t>(g) * nc + c];
        fold(solo.size() + s, g, sum, c);
      }
    }
  }
  {
    const double s = timer2.seconds();
    busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
    tally(rd, slot_reduce(), s);
  }

  sync(r, k); // scratch/cumulative consistent before row updates
}

void ThreadedLtsSolver::apply_rank_sources(const RankData& rd, level_t k, real_t t_src,
                                           real_t kick, real_t drift, real_t* vel) {
  // Post-correction of an update that ran without sources: the updates are
  // linear in F, so adding the source term S afterwards equals folding it
  // into F up to a last-ulp reassociation. S = -Minv f(t), so that
  // v -= kick * F realizes v += kick * Minv f.
  const auto nc = static_cast<std::size_t>(ncomp_);
  for (const auto& [s, slot] : rd.sources[static_cast<std::size_t>(k - 1)]) {
    const real_t val = s.amplitude * s.wavelet(t_src);
    const real_t im = inv_mass_[static_cast<std::size_t>(s.node)];
    for (std::size_t c = 0; c < nc; ++c) {
      const real_t S = -im * val * s.direction[c];
      const real_t dv = -kick * S;
      vel[slot * nc + c] += dv;
      u_[static_cast<std::size_t>(s.node) * nc + c] += drift * dv;
    }
  }
}

void ThreadedLtsSolver::sample_receivers(const RankData& rd, real_t t) {
  for (std::size_t idx : rd.receivers) {
    auto& tr = traces_[idx];
    tr.times.push_back(t);
    tr.values.push_back(u_[static_cast<std::size_t>(tr.node) * static_cast<std::size_t>(ncomp_) +
                           static_cast<std::size_t>(tr.component)]);
  }
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
  const auto upd = rd.update_rows[L].rows();
  real_t* vt_upd = rd.vt_update[L - 1].data();
  const bool in = participates(r, k);
  const bool has_sources = in && !rd.sources[L].empty();

  for (int m = 0; m < 2; ++m) {
    const bool first = (m == 0);
    if (k == nl) {
      // The deepest level's substep pair: kick delta/2 then delta (the
      // staggered start), drift delta on both.
      const real_t kick = first ? real_t(0.5) * delta : delta;
      eval_phase(r, k);
      if (in) {
        const WallTimer timer;
        for (std::size_t j = 0; j < upd.size(); ++j)
          for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t i = static_cast<std::size_t>(upd[j]) * nc + c;
            real_t& w = vt_upd[j * nc + c];
            const real_t F = cumulative_[i] + scratch_[i];
            if (first)
              w = -kick * F;
            else
              w -= kick * F;
            u_[i] += delta * w;
          }
        // Sources are sampled frozen at the cycle start (the midpoint rule;
        // see the file comment).
        double t_src = 0;
        if (has_sources) {
          const WallTimer src_timer;
          apply_rank_sources(rd, k, t0, kick, delta, vt_upd);
          t_src = src_timer.seconds();
          tally(rd, slot_sources(), t_src);
        }
        const double s = timer.seconds();
        busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
        tally(rd, slot_update(), s - t_src);
      }
      // m == 0: updates visible before the next eval gathers u. m == 1: the
      // caller's post-child barrier publishes instead.
      if (first) sync(r, k);
      continue;
    }

    const auto rec = rd.recon_rows[L].rows();
    real_t* vt_rec = rd.vt_recon[L - 1].data();
    real_t* save = rd.saved_u[L].data();
    eval_phase(r, k);
    if (in) {
      const WallTimer timer;
      for (std::size_t j = 0; j < rec.size(); ++j)
        for (std::size_t c = 0; c < nc; ++c)
          save[j * nc + c] = u_[static_cast<std::size_t>(rec[j]) * nc + c];
      const double s = timer.seconds();
      busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
      tally(rd, slot_update(), s);
    }
    sync(r, k); // saves done before the child mutates u

    run_level(r, k + 1, t0);
    sync(r, k); // child updates visible before reconstruction reads u

    if (in) {
      const WallTimer timer2;
      for (std::size_t j = 0; j < rec.size(); ++j)
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t i = static_cast<std::size_t>(rec[j]) * nc + c;
          const real_t saved = save[j * nc + c];
          real_t& w = vt_rec[j * nc + c];
          if (first)
            w = (u_[i] - saved) / delta;
          else
            w += 2.0 * (u_[i] - saved) / delta;
          u_[i] = saved + delta * w;
        }
      for (std::size_t j = 0; j < upd.size(); ++j)
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t i = static_cast<std::size_t>(upd[j]) * nc + c;
          real_t& w = vt_upd[j * nc + c];
          const real_t F = cumulative_[i];
          if (first)
            w = -0.5 * delta * F;
          else
            w -= delta * F;
          u_[i] += delta * w;
        }
      double t_src = 0;
      if (has_sources) {
        const WallTimer src_timer;
        apply_rank_sources(rd, k, t0, first ? real_t(0.5) * delta : delta, delta, vt_upd);
        t_src = src_timer.seconds();
        tally(rd, slot_sources(), t_src);
      }
      const double s = timer2.seconds();
      busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
      tally(rd, slot_update(), s - t_src);
    }
    if (first) sync(r, k); // level-k updates visible before the next eval
  }
}

void ThreadedLtsSolver::thread_main(rank_t r, std::int64_t cycles) {
  const level_t nl = levels_->num_levels;
  auto& rd = ranks_[static_cast<std::size_t>(r)];
  const bool in = participates(r, 1);
  const bool has_sources = in && !rd.sources[0].empty();

  // The force of the physical level-1 step on S(1): a single level's fresh
  // evaluation, else the frozen sum of every level's force.
  const real_t* force1 = nl > 1 ? cumulative_.data() : scratch_.get();
  // The level-1 reconstruction rows R(2) and their saved displacements; a
  // single level has none, so the loops over rec below never run.
  const auto nc = static_cast<std::size_t>(ncomp_);
  const auto rec = rd.recon_rows[0].rows();
  real_t* save = nl > 1 ? rd.saved_u[0].data() : nullptr;

  for (std::int64_t cyc = 0; cyc < cycles; ++cyc) {
    // Cycle start time from the integer cycle counter: identical however the
    // caller splits cycles over run_cycles calls. (The offset is nonzero only
    // after a checkpoint restore that changed dt — see adopt_raw_state.)
    const real_t t0 = time_offset_ + static_cast<real_t>(cycles_done_ + cyc) * dt_;
    eval_phase(r, 1);
    if (nl > 1) {
      if (in) {
        const WallTimer timer;
        for (std::size_t j = 0; j < rec.size(); ++j)
          for (std::size_t c = 0; c < nc; ++c)
            save[j * nc + c] = u_[static_cast<std::size_t>(rec[j]) * nc + c];
        const double s = timer.seconds();
        busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
        tally(rd, slot_update(), s);
      }
      sync(r, 1); // saves done before the child mutates u

      run_level(r, 2, t0);
      sync(r, 1); // child updates visible before reconstruction reads u
    }

    if (in) {
      const WallTimer timer2;
      for (std::size_t j = 0; j < rec.size(); ++j)
        for (std::size_t c = 0; c < nc; ++c) {
          const std::size_t i = static_cast<std::size_t>(rec[j]) * nc + c;
          const real_t saved = save[j * nc + c];
          v_[i] += 2.0 * (u_[i] - saved) / dt_;
          u_[i] = saved + dt_ * v_[i];
        }
      if (fused_) {
        // S(1) is every row and scratch_ holds K u unscaled: the Minv fold
        // and the leapfrog step run as one contiguous pass, with the fold's
        // own product, so the result is bitwise the unfused one.
        for (std::size_t g = 0; g < inv_mass_.size(); ++g)
          for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t i = g * nc + c;
            v_[i] -= dt_ * (inv_mass_[g] * scratch_[i]);
            u_[i] += dt_ * v_[i];
          }
      } else {
        for (gindex_t g : rd.update_rows[0])
          for (std::size_t c = 0; c < nc; ++c) {
            const std::size_t i = static_cast<std::size_t>(g) * nc + c;
            v_[i] -= dt_ * force1[i];
            u_[i] += dt_ * v_[i];
          }
      }
      // Level-1 rows take the cycle-frozen source in the physical leapfrog
      // step of S(1), after the fine recursion.
      double t_src = 0, t_recv = 0;
      if (has_sources) {
        const WallTimer src_timer;
        apply_rank_sources(rd, 1, t0, dt_, dt_, v_.get());
        t_src = src_timer.seconds();
        tally(rd, slot_sources(), t_src);
      }
      // Every row this rank owns is final for the cycle (recon ∪ update
      // covers them all) and only this rank ever writes those rows, so
      // sampling here is race-free.
      if (!rd.receivers.empty()) {
        const WallTimer recv_timer;
        sample_receivers(rd, time_offset_ + static_cast<real_t>(cycles_done_ + cyc + 1) * dt_);
        t_recv = recv_timer.seconds();
        tally(rd, slot_receivers(), t_recv);
      }
      maybe_inject_fault(rd, r, cycles_done_ + cyc);
      const double s = timer2.seconds();
      busy_[static_cast<std::size_t>(r)].fetch_add(s, std::memory_order_relaxed);
      tally(rd, slot_update(), s - t_src - t_recv);
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

  // Nan: poke one row this rank owns. All of rd's update/recon rows are final
  // for the cycle here and only this rank ever writes them, so the corruption
  // is race-free and deterministic (seeded index over the rank's row lists).
  std::size_t nrows = 0;
  for (const auto& v : rd.update_rows) nrows += v.size();
  for (const auto& v : rd.recon_rows) nrows += v.size();
  if (nrows == 0) return; // the addressed rank owns nothing to corrupt
  std::size_t pick = resilience::fault_pick(fault_.seed, nrows);
  gindex_t g = -1;
  for (const auto& v : rd.update_rows) {
    if (g < 0 && pick < v.size()) g = v.rows()[pick];
    if (g < 0) pick -= v.size();
  }
  for (const auto& v : rd.recon_rows) {
    if (g < 0 && pick < v.size()) g = v.rows()[pick];
    if (g < 0) pick -= v.size();
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

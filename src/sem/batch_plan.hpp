#pragma once

/// \file batch_plan.hpp
/// Element-block batched execution plan for the SEM kernel engine.
///
/// Applying the stiffness one element at a time would leave two costs on
/// the table that the LTS hot loop pays millions of times: one indirect kernel
/// dispatch per element, and inner loops whose trip count is the 1D node
/// count n1 = 2..9 — far below the machine's vector width. A BatchPlan
/// removes both by grouping elements into fixed-width blocks of W lanes
/// (W = 8..32, order-dependent, kernels::block_width_for) and storing every
/// per-point input *lane-interleaved*: entry (q, l) of a block slab lives at
/// [q*W + l], so every kernel loop carries a unit-stride innermost lane
/// dimension of compile-time width. One kernel call then advances W
/// elements, and the tensor contractions vectorize across elements instead of
/// across the short n1 axis.
///
/// A plan is an ordered list of *groups*, each a caller-supplied element
/// sequence chunked into blocks (blocks may be ragged: padded lanes replicate
/// the last real element's gather indices and are never scattered). Groups
/// carry an optional LTS level: level-k groups bake the branch-free column
/// mask per block — blocks whose elements are all node-homogeneous at level
/// k (the interior bulk, which (rank, level) ordering makes the common case)
/// carry no mask at all and take the plain gather, mixed blocks carry one
/// interleaved 0/1 mask slab.
///
/// Per block the plan stores contiguous, 64-byte-aligned slabs of everything
/// the kernel streams: gather indices, the block's geometry, and the optional
/// mask. The geometry is a few lane constant rows per block, never a per-point
/// plane, so the apply's main-memory traffic is the field gather and scatter.
/// Two forms exist:
///
///  * Non-affine blocks: the 21 monomial coefficients A_m[d] (m = 1..7, d = 0..2) of
///    each element's trilinear corner map (geometry()). The map is exactly
///    trilinear, so the kernels rebuild the Jacobian, its adjugate and det at
///    every quadrature point from these rows — a classic matrix-free trade:
///    ~50-70 flops per point instead of the 6 (acoustic) or 18 (elastic)
///    metric doubles per point a stored-metric plan would stream.
///  * Blocks whose elements are all *affine* (parallelepiped geometry — the
///    bulk of generated paper meshes): the fused metrics of such an element
///    factor exactly as G(q) = w_q * C with one constant 6-tuple (respectively
///    9+9 for elastic) per element, so the kernel needs no per-point
///    geometry arithmetic. This path stays because its kernel is
///    faster per element (docs/performance.md, "Geometry on the fly").
///    Affinity is a corner test on the trilinear map (its bilinear and
///    trilinear coefficients must vanish to an ulp-level tolerance); elements
///    that miss it take the first form, so the compact path is a pure speed
///    optimization (metric values agree to ~1e-14 relative, far inside every
///    cross-path test tolerance).
///
/// Both are evaluated by fill() from the mesh corners; nothing per point is
/// stored anywhere.
///
/// Chunking is strided in the caller's element order, W lanes per block. A
/// level-k group is chunked as two segments — its node-homogeneous prefix
/// (order_homogeneous_first puts it there) and the mixed remainder — so the
/// mask-free fast path keeps whole blocks; only the last block of each
/// segment may be ragged. Real lanes of one block may share global mesh rows
/// (face neighbours usually do): the operators scatter each block with one
/// sequential loop, so block order — and with it the accumulation order every
/// solver inherits — is a pure function of the caller's element order and
/// run-to-run identical.
///
/// Construction can defer the slab fill (Fill::Deferred) so a rank-parallel
/// owner first-touches its own blocks from its own pool thread — the NUMA
/// placement the threaded runtime relies on.
///
/// Ownership and thread-safety: a plan *borrows* the SemSpace (and, for
/// masked groups, the node_level span) it was built from — both must outlive
/// it; it never copies the space. Once every block's slabs are filled the
/// plan is immutable, and immutability is the concurrency contract: any
/// number of threads may iterate one shared plan concurrently (the threaded
/// solver's ranks and its work stealing do exactly that), as long as all
/// per-apply mutable state — accumulation buffers, kernel workspaces — lives
/// outside the plan, in per-thread storage. The only mutating call is
/// fill(b0, b1), which under Fill::Deferred must be called exactly once per
/// block, with disjoint ranges if called from several threads, and must
/// happen-before any concurrent use of those blocks (the threaded runtime
/// orders this with its startup barrier).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sem/kernels.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::sem {

class BatchPlan {
public:
  /// One caller-ordered element sequence to be chunked into blocks.
  /// level == 0: unmasked full apply. level > 0: the blocks serve the
  /// column-restricted apply K P_level u and need node_level (one entry per
  /// global node, must outlive the plan when the fill is deferred).
  struct Group {
    std::vector<index_t> elems;
    level_t level = 0;
    std::span<const level_t> node_level = {};
  };

  /// Block id range [first, last) of one group, in plan block numbering.
  struct BlockRange {
    index_t first = 0;
    index_t last = 0;
    [[nodiscard]] index_t count() const noexcept { return last - first; }
  };

  enum class Fill {
    Now,      ///< fill every slab during construction (serial owners)
    Deferred, ///< allocate untouched; owner calls fill() per block range so
              ///< pages are first-touched by the thread that will use them
  };

  /// `ncomp` selects the compact affine metric form: 1 builds the fused
  /// acoustic constants, 3 the elastic jinv/wjinv constants.
  BatchPlan(const SemSpace& space, int ncomp, std::vector<Group> groups, Fill fill = Fill::Now);

  [[nodiscard]] const SemSpace& space() const noexcept { return *space_; }
  [[nodiscard]] int ncomp() const noexcept { return ncomp_; }
  /// Lanes per block (kernels::block_width_for of the space's order).
  [[nodiscard]] int width() const noexcept { return width_; }
  [[nodiscard]] int npts() const noexcept { return npts_; }
  [[nodiscard]] index_t num_blocks() const noexcept {
    return static_cast<index_t>(blocks_.size());
  }
  [[nodiscard]] std::size_t num_groups() const noexcept { return group_range_.size(); }
  [[nodiscard]] BlockRange group_blocks(std::size_t g) const { return group_range_.at(g); }

  /// Real (unpadded) lanes of block b; padded lanes replicate the last real
  /// element's gather indices and must not be scattered.
  [[nodiscard]] int block_fill(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].fill;
  }
  /// Element ids of block b, width() entries (padded lanes replicated).
  [[nodiscard]] const index_t* block_elems(index_t b) const noexcept {
    return elem_ids_.data() + static_cast<std::size_t>(b) * static_cast<std::size_t>(width_);
  }
  /// LTS level the block's group was built for (0 = unmasked).
  [[nodiscard]] level_t block_level(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].level;
  }
  /// Total elements (real lanes) across blocks [b0, b1).
  [[nodiscard]] std::int64_t elements_in(index_t b0, index_t b1) const noexcept;

  /// Gather indices of block b, width()*npts() entries, lane-interleaved:
  /// lane l's node q at [q*width + l].
  [[nodiscard]] const gindex_t* gather(index_t b) const noexcept {
    return gather_.get() + slab_offset(b);
  }
  /// 0/1 column mask slab (lane-interleaved) for a mixed block, or nullptr
  /// when the block is level-homogeneous (or its group is unmasked) — the
  /// mask-free fast path.
  [[nodiscard]] const real_t* mask(index_t b) const noexcept {
    const auto off = blocks_[static_cast<std::size_t>(b)].mask_off;
    return off < 0 ? nullptr : mask_.get() + off;
  }

  /// True when every element of block b is affine: the kernels then read the
  /// compact separable metric (affine_metric()) instead of geometry().
  [[nodiscard]] bool block_affine(index_t b) const noexcept {
    return blocks_[static_cast<std::size_t>(b)].affine;
  }
  /// Corner test on element e's trilinear map: true when its bilinear and
  /// trilinear coefficients are at most kAffineTol (64 ulp) times the linear
  /// ones, i.e. the element is a parallelepiped and every metric is constant
  /// up to the w_q factor. Blocks of such elements take the compact metric.
  [[nodiscard]] static bool elem_affine(const SemSpace& space, index_t e);
  /// 3D quadrature weights w_q (npts values), local order q = i + n1*(j + n1*k).
  [[nodiscard]] const real_t* weights3() const noexcept { return w3_.data(); }

  /// Trilinear corner map of a non-affine block: kernels::kTrilinearRows lane
  /// rows, row 3*(m-1) + d holding A_m[d] = 1/8 sum_c s_c x_c[d] per lane
  /// (monomial bit 1 = xi, 2 = eta, 4 = zeta; s_c the product of corner c's
  /// +-1 signs over the monomial's axes). Requires !block_affine(b).
  [[nodiscard]] const real_t* geometry(index_t b) const noexcept {
    return metric_.get() + blocks_[static_cast<std::size_t>(b)].metric_off;
  }
  /// Compact metric of an affine block, lane constant rows: acoustic, the 6
  /// fused rows C_p (G_p(q)[l] = w3[q] * C_p[l]); elastic, the 9 Jinv rows
  /// (Jinv is constant over the element) then the 9 wdet*Jinv rows divided
  /// by w_q. Requires block_affine(b).
  [[nodiscard]] const real_t* affine_metric(index_t b) const noexcept {
    return metric_.get() + blocks_[static_cast<std::size_t>(b)].metric_off;
  }

  /// Writes gather/geometry/mask data into the slabs of blocks [b0, b1),
  /// evaluating each lane's geometry from the mesh corners. With
  /// Fill::Deferred the owning thread calls this exactly once per block; the
  /// write is the first touch of those pages.
  void fill(index_t b0, index_t b1);

  /// Resident slab bytes (gather + geometry rows + masks), for benches.
  [[nodiscard]] std::size_t slab_bytes() const noexcept;

private:
  struct Block {
    index_t group = 0;
    int fill = 0;                 ///< real lanes
    level_t level = 0;            ///< 0 = unmasked
    bool affine = false;          ///< compact separable metric, else trilinear
    std::ptrdiff_t mask_off = -1; ///< into mask_, -1 = homogeneous/unmasked
    std::size_t metric_off = 0;   ///< into metric_
  };

  [[nodiscard]] std::size_t slab_size() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(npts_);
  }
  [[nodiscard]] std::size_t slab_offset(index_t b) const noexcept {
    return static_cast<std::size_t>(b) * slab_size();
  }

  const SemSpace* space_;
  int ncomp_;
  int width_;
  int npts_;
  std::vector<Group> groups_;
  std::vector<BlockRange> group_range_;
  std::vector<Block> blocks_;
  std::vector<index_t> elem_ids_; ///< width_ per block, padded replicated

  // Slab arenas. Allocated uninitialized (make_unique_for_overwrite) so pages
  // are first-touched by whichever thread runs fill() — operator new itself
  // touches nothing. Arena bases land 64-byte aligned via new[]'s extended
  // alignment for the over-aligned struct below.
  struct alignas(64) CacheLine {
    unsigned char bytes[64];
  };
  template <typename T>
  struct Arena {
    std::unique_ptr<CacheLine[]> store;
    T* data = nullptr;
    [[nodiscard]] T* get() const noexcept { return data; }
    void allocate(std::size_t n) {
      if (n == 0) return;
      store = std::make_unique_for_overwrite<CacheLine[]>((n * sizeof(T) + 63) / 64);
      data = reinterpret_cast<T*>(store.get());
    }
  };
  Arena<gindex_t> gather_;
  Arena<real_t> mask_;
  /// One arena for all geometry rows; per-block offset and size depend on the
  /// block's affinity (compact metric constants vs trilinear coefficients).
  Arena<real_t> metric_;
  std::size_t mask_count_ = 0;
  std::size_t metric_count_ = 0;
  std::vector<real_t> w3_; ///< 3D quadrature weights, npts
};

/// Returns a copy of `elems` with the elements that are node-homogeneous at
/// `level` (every node of the element has node_level == level) moved to the
/// front, original relative order preserved on both sides. Feeding this to a
/// level-k Group maximizes the run of mask-free blocks, since only the
/// trailing blocks then contain mixed elements.
[[nodiscard]] std::vector<index_t> order_homogeneous_first(const SemSpace& space,
                                                           std::span<const index_t> elems,
                                                           level_t level,
                                                           std::span<const level_t> node_level);

} // namespace ltswave::sem

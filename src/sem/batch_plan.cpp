#include "sem/batch_plan.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

namespace ltswave::sem {

namespace {

/// Tolerance of the affine-element detection: an element is affine when the
/// bilinear and trilinear coefficients of its trilinear map stay within this
/// relative band of the linear ones. Elements that miss it (warped geometry,
/// or merely unlucky rounding) take the on-the-fly geometry path, so the test
/// is purely a speed optimization and never a correctness gate.
constexpr real_t kAffineTol = 64 * std::numeric_limits<real_t>::epsilon();

/// True when every node of element e carries exactly `level`.
bool elem_homogeneous_at(const SemSpace& space, index_t e, level_t level,
                         std::span<const level_t> node_level) {
  const gindex_t* l2g = space.elem_nodes(e);
  const int npts = space.nodes_per_elem();
  for (int q = 0; q < npts; ++q)
    if (node_level[static_cast<std::size_t>(l2g[q])] != level) return false;
  return true;
}

/// Monomial coefficients of element e's trilinear map: x(xi) = sum_m A_m
/// xi^a eta^b zeta^c (a, b, c in {0, 1}), monomial bit 1 = xi, 2 = eta,
/// 4 = zeta. A_m = 1/8 sum_c s_c x_c, with s_c the product of the corner's
/// +-1 signs over the monomial's axes.
using TrilinearMap = std::array<std::array<real_t, 3>, 8>;

TrilinearMap trilinear_map(const SemSpace& space, index_t e) {
  const auto& m = space.mesh();
  const index_t* c = m.corners(e);
  TrilinearMap a{};
  for (int corner = 0; corner < 8; ++corner) {
    const real_t* xc = m.node(c[corner]);
    for (int mono = 0; mono < 8; ++mono) {
      const real_t s = (std::popcount(static_cast<unsigned>(mono & ~corner)) % 2) ? -1.0 : 1.0;
      for (int d = 0; d < 3; ++d)
        a[static_cast<std::size_t>(mono)][static_cast<std::size_t>(d)] += s * xc[d];
    }
  }
  for (auto& row : a)
    for (real_t& v : row) v *= 0.125; // a power of two: exact
  return a;
}

} // namespace

std::vector<index_t> order_homogeneous_first(const SemSpace& space,
                                             std::span<const index_t> elems, level_t level,
                                             std::span<const level_t> node_level) {
  std::vector<index_t> out(elems.begin(), elems.end());
  std::stable_partition(out.begin(), out.end(), [&](index_t e) {
    return elem_homogeneous_at(space, e, level, node_level);
  });
  return out;
}

bool BatchPlan::elem_affine(const SemSpace& space, index_t e) {
  // The map — and with it every metric — is affine exactly when the bilinear
  // and trilinear coefficients (monomials 3, 5, 6, 7) vanish.
  const TrilinearMap a = trilinear_map(space, e);
  real_t linear = 0, nonlinear = 0;
  for (int mono = 1; mono < 8; ++mono)
    for (int d = 0; d < 3; ++d) {
      real_t& mag = std::has_single_bit(static_cast<unsigned>(mono)) ? linear : nonlinear;
      mag = std::max(mag, std::abs(a[static_cast<std::size_t>(mono)][static_cast<std::size_t>(d)]));
    }
  return nonlinear <= kAffineTol * linear;
}

BatchPlan::BatchPlan(const SemSpace& space, int ncomp, std::vector<Group> groups, Fill fill)
    : space_(&space),
      ncomp_(ncomp),
      width_(kernels::block_width_for(space.ref().nodes_1d())),
      npts_(space.nodes_per_elem()),
      groups_(std::move(groups)) {
  LTS_CHECK_MSG(ncomp_ == 1 || ncomp_ == 3, "BatchPlan ncomp must be 1 (acoustic) or 3 (elastic)");

  // The separable factor of the compact affine metric: the same 3D quadrature
  // weight product SemSpace::element_metrics folds into gmat and wjinv.
  const auto& w1 = space.ref().weights();
  const int n1 = space.ref().nodes_1d();
  w3_.resize(static_cast<std::size_t>(npts_));
  for (int k = 0; k < n1; ++k)
    for (int j = 0; j < n1; ++j)
      for (int i = 0; i < n1; ++i)
        w3_[static_cast<std::size_t>((k * n1 + j) * n1 + i)] =
            w1[static_cast<std::size_t>(i)] * w1[static_cast<std::size_t>(j)] *
            w1[static_cast<std::size_t>(k)];

  // Metric words per block: lane constant rows either way — the compact
  // metric of an affine block, or the trilinear coefficients of any other.
  const auto W = static_cast<std::size_t>(width_);
  const std::size_t compact_words = W * (ncomp_ == 1 ? 6u : 18u);
  const std::size_t trilinear_words = W * static_cast<std::size_t>(kernels::kTrilinearRows);

  // Pass 1: block layout. Groups never share a block, so every block belongs
  // to one (group, level) and a group's blocks are contiguous in plan order.
  const auto append_block = [&](index_t g, std::span<const index_t> belems) {
    const auto& grp = groups_[static_cast<std::size_t>(g)];
    Block blk;
    blk.group = g;
    blk.fill = static_cast<int>(belems.size());
    blk.level = grp.level;
    if (grp.level > 0) {
      bool homogeneous = true;
      for (int l = 0; l < blk.fill && homogeneous; ++l)
        homogeneous = elem_homogeneous_at(*space_, belems[static_cast<std::size_t>(l)],
                                          grp.level, grp.node_level);
      if (!homogeneous) {
        blk.mask_off = static_cast<std::ptrdiff_t>(mask_count_);
        mask_count_ += slab_size();
      }
    }
    blk.affine = true;
    for (int l = 0; l < blk.fill && blk.affine; ++l)
      blk.affine = elem_affine(*space_, belems[static_cast<std::size_t>(l)]);
    blk.metric_off = metric_count_;
    metric_count_ += blk.affine ? compact_words : trilinear_words;
    for (int l = 0; l < width_; ++l)
      elem_ids_.push_back(belems[static_cast<std::size_t>(std::min(l, blk.fill - 1))]);
    blocks_.push_back(blk);
  };

  group_range_.reserve(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const auto& grp = groups_[g];
    LTS_CHECK_MSG(grp.level == 0 || grp.node_level.size() ==
                                        static_cast<std::size_t>(space.num_global_nodes()),
                  "level-masked BatchPlan group needs node_level over all global nodes");
    BlockRange range{num_blocks(), num_blocks()};
    // Chunk the node-homogeneous prefix of a masked group separately from
    // its mixed remainder: a block straddling both would need a mask slab for
    // elements that don't, shrinking the mask-free fast path.
    std::span<const index_t> all(grp.elems);
    std::size_t split = all.size();
    if (grp.level > 0) {
      split = 0;
      while (split < all.size() &&
             elem_homogeneous_at(space, all[split], grp.level, grp.node_level))
        ++split;
      // Callers order homogeneous-first (order_homogeneous_first); if any
      // homogeneous elements trail the first mixed one, keep them with the
      // mixed segment — correctness never depends on the split.
    }
    for (const auto segment : {all.subspan(0, split), all.subspan(split)})
      for (std::size_t at = 0; at < segment.size(); at += W)
        append_block(static_cast<index_t>(g),
                     segment.subspan(at, std::min(W, segment.size() - at)));
    range.last = num_blocks();
    group_range_.push_back(range);
  }

  // Arena allocation: uninitialized, so no page is touched until fill().
  gather_.allocate(slab_offset(num_blocks()));
  mask_.allocate(mask_count_);
  metric_.allocate(metric_count_);

  if (fill == Fill::Now) this->fill(0, num_blocks());
}

void BatchPlan::fill(index_t b0, index_t b1) {
  const SemSpace& sp = *space_;
  const int W = width_;
  const int npts = npts_;
  // Affine blocks derive their compact constants from the first quadrature
  // point's metrics; every other block stores the trilinear coefficients.
  SemSpace::PointMetrics p0{};
  TrilinearMap a{};

  for (index_t b = b0; b < b1; ++b) {
    const Block& blk = blocks_[static_cast<std::size_t>(b)];
    const index_t* elems = block_elems(b);

    gindex_t* gth = gather_.get() + slab_offset(b);
    for (int l = 0; l < W; ++l) {
      const gindex_t* l2g = sp.elem_nodes(elems[l]);
      for (int q = 0; q < npts; ++q) gth[q * W + l] = l2g[q];
    }

    if (blk.mask_off >= 0) {
      const auto& node_level = groups_[static_cast<std::size_t>(blk.group)].node_level;
      real_t* mk = mask_.get() + blk.mask_off;
      for (int l = 0; l < W; ++l) {
        // Padded lanes get an all-zero mask: their kernel output is garbage
        // either way (never scattered), but zeros keep it finite.
        const bool real_lane = l < blk.fill;
        const gindex_t* l2g = sp.elem_nodes(elems[l]);
        for (int q = 0; q < npts; ++q)
          mk[q * W + l] =
              real_lane && node_level[static_cast<std::size_t>(l2g[q])] == blk.level ? 1.0 : 0.0;
      }
    }

    real_t* mt = metric_.get() + blk.metric_off;
    for (int l = 0; l < W; ++l) {
      // Padded lanes replicate the last real element: reuse its values.
      const bool fresh = l == 0 || elems[l] != elems[l - 1];
      if (!blk.affine) {
        // Row 3*(m-1) + d holds A_m[d], m = 1..7 (the constant A_0 is the
        // element's position and never enters the Jacobian).
        if (fresh) a = trilinear_map(sp, elems[l]);
        for (int m = 1; m < 8; ++m)
          for (int d = 0; d < 3; ++d)
            mt[(3 * (m - 1) + d) * W + l] =
                a[static_cast<std::size_t>(m)][static_cast<std::size_t>(d)];
        continue;
      }
      if (fresh) sp.element_metrics(elems[l], std::span(&p0, 1));
      // Compact lane constants from the first point: the acoustic
      // C_p = G_p(q0) / w3[q0]; the elastic Jinv and wdet*Jinv / w3[q0].
      if (ncomp_ == 1) {
        for (int p = 0; p < 6; ++p) mt[p * W + l] = p0.gmat[p] / w3_[0];
      } else {
        for (int p = 0; p < 9; ++p) {
          mt[p * W + l] = p0.jinv[p];
          mt[(9 + p) * W + l] = p0.wjinv[p] / w3_[0];
        }
      }
    }
  }
}

std::int64_t BatchPlan::elements_in(index_t b0, index_t b1) const noexcept {
  std::int64_t n = 0;
  for (index_t b = b0; b < b1; ++b) n += blocks_[static_cast<std::size_t>(b)].fill;
  return n;
}

std::size_t BatchPlan::slab_bytes() const noexcept {
  return slab_offset(num_blocks()) * sizeof(gindex_t) + mask_count_ * sizeof(real_t) +
         metric_count_ * sizeof(real_t);
}

} // namespace ltswave::sem

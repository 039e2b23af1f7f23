// Kernel-engine validation against an independent reference: every block
// kernel path — compile-time order-specialized (KernelMode::Auto) and the
// runtime-(n1, bw) generic fallback (KernelMode::Generic), geometry on the
// fly and compact-affine metrics, unmasked and level-masked plans with ragged
// tail blocks — must reproduce a test-only dense element stiffness assembled
// directly from the GLL basis to 1e-12, for orders 1-8 and both physics.
// Plus plan-layout invariants (caller-order chunking, mask slabs) and an
// energy-conservation smoke test driving the one-rank LTS engine.
//
// SIMD backend coverage: the block kernels run on the simd::Vec lane layer
// while the dense reference is plain scalar code, so every comparison here
// is a vector-vs-scalar cross-check. The suite is built and re-run per
// backend (native AVX-512, the baseline-ISA CI build, and the simd-backends
// CI job's forced-scalar and forced-AVX2 builds), which sweeps every width
// the dispatch in common/simd.hpp can select.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <set>
#include <utility>

#include "common/rng.hpp"
#include "core/energy.hpp"
#include "core/lts_levels.hpp"
#include "mesh/generators.hpp"
#include "runtime/threaded_lts.hpp"
#include "sem/batch_plan.hpp"
#include "sem/wave_operator.hpp"

namespace ltswave::sem {
namespace {

std::vector<index_t> all_elems(const SemSpace& s) {
  std::vector<index_t> v(static_cast<std::size_t>(s.num_elems()));
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<index_t>(i);
  return v;
}

std::vector<real_t> random_field(std::size_t n, Rng& rng) {
  std::vector<real_t> u(n);
  for (auto& x : u) x = rng.uniform_real(-1, 1);
  return u;
}

real_t max_rel_diff(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  real_t scale = 0;
  for (real_t v : a) scale = std::max(scale, std::abs(v));
  scale = std::max(scale, real_t{1e-30});
  real_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::abs(a[i] - b[i]) / scale);
  return d;
}

/// Dense element stiffness matrices assembled straight from the GLL basis,
/// sharing no code with SemSpace::element_metrics, BatchPlan or the block
/// kernels: 1D Lagrange derivatives from the product formula on the GLL
/// points, the trilinear Jacobian from the element corners, and the
/// bilinear form integrated by GLL quadrature —
///   acoustic: K[a][b] = sum_q w_q det_q kappa grad phi_a . grad phi_b,
///   elastic:  K[(a,c)][(b,d)] = sum_q w_q det_q (lambda d_c phi_a d_d phi_b
///             + mu d_d phi_a d_c phi_b + mu delta_cd grad phi_a . grad phi_b).
/// K is assembled one row block (basis function a, all components) at a
/// time and applied at once, so it never needs to be stored whole. apply()
/// returns K u over all elements (index 0) and K P_k u for each level
/// k = 1..num_levels (index k), gathering through the space's node map.
class DenseReference {
public:
  DenseReference(const mesh::HexMesh& m, const SemSpace& space, int ncomp)
      : mesh_(&m), space_(&space), nc_(ncomp), n1_(space.ref().nodes_1d()) {
    const auto& x = space.ref().points();
    std::vector<real_t> dl(idx(n1_ * n1_)); // dl[i * n1 + m] = l_i'(x_m)
    for (int i = 0; i < n1_; ++i)
      for (int m2 = 0; m2 < n1_; ++m2) {
        real_t v = 0;
        if (m2 == i) {
          for (int l = 0; l < n1_; ++l)
            if (l != i) v += 1 / (x[idx(i)] - x[idx(l)]);
        } else {
          real_t num = 1, den = 1;
          for (int l = 0; l < n1_; ++l) {
            if (l == i) continue;
            den *= x[idx(i)] - x[idx(l)];
            if (l != m2) num *= x[idx(m2)] - x[idx(l)];
          }
          v = num / den;
        }
        dl[idx(i * n1_ + m2)] = v;
      }
    // Per point q: the basis functions with a nonzero gradient there (those
    // sharing two of q's three 1D indices) and their reference gradients.
    const int npts = n1_ * n1_ * n1_;
    const auto lid = [this](int i, int j, int k) { return i + n1_ * (j + n1_ * k); };
    cross_.resize(idx(npts));
    ref_grad_.resize(idx(npts));
    at_.resize(idx(npts));
    for (int q = 0; q < npts; ++q) {
      const int qi = q % n1_, qj = q / n1_ % n1_, qk = q / (n1_ * n1_);
      auto& cr = cross_[idx(q)];
      for (int a = 0; a < n1_; ++a)
        for (const int b : {lid(a, qj, qk), lid(qi, a, qk), lid(qi, qj, a)})
          if (std::find(cr.begin(), cr.end(), b) == cr.end()) cr.push_back(b);
      for (std::size_t ib = 0; ib < cr.size(); ++ib) {
        const int b = cr[ib];
        const int bi = b % n1_, bj = b / n1_ % n1_, bk = b / (n1_ * n1_);
        ref_grad_[idx(q)].push_back({bj == qj && bk == qk ? dl[idx(bi * n1_ + qi)] : 0.0,
                                     bi == qi && bk == qk ? dl[idx(bj * n1_ + qj)] : 0.0,
                                     bi == qi && bj == qj ? dl[idx(bk * n1_ + qk)] : 0.0});
        at_[idx(b)].emplace_back(q, ib);
      }
    }
  }

  [[nodiscard]] std::vector<std::vector<real_t>> apply(const std::vector<real_t>& u,
                                                       const std::vector<level_t>& node_level,
                                                       level_t num_levels) const {
    const int npts = n1_ * n1_ * n1_;
    const auto nl = static_cast<std::size_t>(num_levels) + 1;
    const auto nc = static_cast<std::size_t>(nc_);
    std::vector<std::vector<real_t>> out(nl, std::vector<real_t>(u.size(), 0.0));
    std::vector<real_t> wdet(idx(npts));
    std::vector<std::vector<std::array<real_t, 3>>> grad(idx(npts));
    std::vector<real_t> row(idx(npts) * nc * nc, 0.0); // K row block of a: [b][c][d]
    std::vector<char> touched(idx(npts), 0);
    std::vector<int> cols;
    std::vector<real_t> ue(nl * idx(npts) * nc);
    for (index_t e = 0; e < space_->num_elems(); ++e) {
      geometry(e, wdet, grad);
      const mesh::Material& mat = mesh_->material(e);
      const real_t kappa = mat.rho * mat.vp * mat.vp;
      const real_t mu = mat.rho * mat.vs * mat.vs;
      const real_t lam = mat.rho * mat.vp * mat.vp - 2 * mu;
      const gindex_t* l2g = space_->elem_nodes(e);
      // Gathered element field per variant: k = 0 unmasked, k >= 1 level-k
      // columns only.
      for (std::size_t k = 0; k < nl; ++k)
        for (int b = 0; b < npts; ++b) {
          const bool take = k == 0 || node_level[static_cast<std::size_t>(l2g[b])] ==
                                          static_cast<level_t>(k);
          for (std::size_t d = 0; d < nc; ++d)
            ue[(k * idx(npts) + idx(b)) * nc + d] =
                take ? u[static_cast<std::size_t>(l2g[b]) * nc + d] : 0.0;
        }
      for (int a = 0; a < npts; ++a) {
        // Row block of a: quadrature points where phi_a has a gradient,
        // paired with every basis function that has one there too.
        cols.clear();
        for (const auto& [q, ia] : at_[idx(a)]) {
          const auto& gq = grad[idx(q)];
          const auto& ga = gq[ia];
          const auto& cr = cross_[idx(q)];
          for (std::size_t ib = 0; ib < cr.size(); ++ib) {
            const int b = cr[ib];
            if (!touched[idx(b)]) {
              touched[idx(b)] = 1;
              cols.push_back(b);
            }
            const auto& gb = gq[ib];
            const real_t dot = ga[0] * gb[0] + ga[1] * gb[1] + ga[2] * gb[2];
            real_t* blk = row.data() + idx(b) * nc * nc;
            for (std::size_t c = 0; c < nc; ++c)
              for (std::size_t d = 0; d < nc; ++d) {
                const real_t v = nc == 1 ? kappa * dot
                                         : lam * ga[c] * gb[d] + mu * ga[d] * gb[c] +
                                               (c == d ? mu * dot : 0.0);
                blk[c * nc + d] += wdet[idx(q)] * v;
              }
          }
        }
        for (std::size_t k = 0; k < nl; ++k)
          for (std::size_t c = 0; c < nc; ++c) {
            real_t acc = 0;
            for (const int b : cols)
              for (std::size_t d = 0; d < nc; ++d)
                acc += row[(idx(b) * nc + c) * nc + d] * ue[(k * idx(npts) + idx(b)) * nc + d];
            out[k][static_cast<std::size_t>(l2g[a]) * nc + c] += acc;
          }
        for (const int b : cols) {
          touched[idx(b)] = 0;
          std::fill_n(row.begin() + static_cast<std::ptrdiff_t>(idx(b) * nc * nc), nc * nc, 0.0);
        }
      }
    }
    return out;
  }

private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  /// w_q det J and the physical gradients of every cross_[q] basis function
  /// at every point q of element e.
  void geometry(index_t e, std::vector<real_t>& wdet,
                std::vector<std::vector<std::array<real_t, 3>>>& grad) const {
    const auto& x = space_->ref().points();
    const auto& w = space_->ref().weights();
    const index_t* corners = mesh_->corners(e);
    for (std::size_t q = 0; q < cross_.size(); ++q) {
      const int qi = static_cast<int>(q) % n1_, qj = static_cast<int>(q) / n1_ % n1_,
                qk = static_cast<int>(q) / (n1_ * n1_);
      const real_t xi[3] = {x[idx(qi)], x[idx(qj)], x[idx(qk)]};
      // J[d][r] = dx_d / dxi_r of the trilinear map.
      real_t J[3][3] = {};
      for (int c = 0; c < 8; ++c) {
        const real_t* xc = mesh_->node(corners[c]);
        for (int r = 0; r < 3; ++r) {
          real_t dn = 0.125;
          for (int t = 0; t < 3; ++t) {
            const real_t s = (c >> t & 1) ? 1.0 : -1.0;
            dn *= t == r ? s : 1 + s * xi[t];
          }
          for (int d = 0; d < 3; ++d) J[d][r] += xc[d] * dn;
        }
      }
      const real_t det = J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1]) -
                         J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0]) +
                         J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]);
      // Ji[r][d] = dxi_r / dx_d via the adjugate (cyclic cofactors).
      real_t Ji[3][3];
      for (int r = 0; r < 3; ++r)
        for (int d = 0; d < 3; ++d)
          Ji[r][d] = (J[(d + 1) % 3][(r + 1) % 3] * J[(d + 2) % 3][(r + 2) % 3] -
                      J[(d + 1) % 3][(r + 2) % 3] * J[(d + 2) % 3][(r + 1) % 3]) /
                     det;
      wdet[q] = w[idx(qi)] * w[idx(qj)] * w[idx(qk)] * det;
      grad[q].clear();
      for (const auto& g : ref_grad_[q]) {
        std::array<real_t, 3> gp{};
        for (int d = 0; d < 3; ++d)
          for (int r = 0; r < 3; ++r) gp[idx(d)] += g[idx(r)] * Ji[r][d];
        grad[q].push_back(gp);
      }
    }
  }

  const mesh::HexMesh* mesh_;
  const SemSpace* space_;
  int nc_;
  int n1_;
  std::vector<std::vector<int>> cross_;                     ///< per point q
  std::vector<std::vector<std::array<real_t, 3>>> ref_grad_; ///< per (q, cross_[q] entry)
  std::vector<std::vector<std::pair<int, std::size_t>>> at_; ///< per basis a: (q, its slot)
};

/// Warped two-material test mesh: exercises non-diagonal Jacobians and
/// per-element moduli.
mesh::HexMesh make_test_mesh() {
  mesh::Material mat;
  mat.vp = 1.9;
  mat.vs = 1.0;
  mat.rho = 1.2;
  auto m = mesh::make_uniform_box(2, 2, 2, {1.0, 0.9, 1.1}, mat);
  warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
    x += 0.05 * std::sin(2 * y + z);
    y += 0.04 * std::cos(3 * x);
    z += 0.03 * std::sin(x + 2 * y);
  });
  return m;
}

/// Synthetic two-level split (elements left of the median are level 2) used
/// for the masked-apply validation.
core::LtsStructure two_level_structure(const mesh::HexMesh& m, const SemSpace& space) {
  std::vector<level_t> elem_level(static_cast<std::size_t>(m.num_elems()), 1);
  for (index_t e = 0; e < m.num_elems(); ++e)
    if (m.centroid(e)[0] < 0.5) elem_level[static_cast<std::size_t>(e)] = 2;
  core::LevelAssignment levels;
  levels.num_levels = 2;
  levels.dt = 1e-3;
  levels.elem_level = elem_level;
  levels.level_counts.assign(2, 0);
  for (level_t l : elem_level) ++levels.level_counts[static_cast<std::size_t>(l - 1)];
  return core::build_lts_structure(space, levels);
}

/// Solver-style level plan: one homogeneous-first group per level over E(k).
BatchPlan level_plan(const SemSpace& space, int ncomp, const core::LtsStructure& st) {
  std::vector<BatchPlan::Group> groups;
  for (level_t k = 1; k <= st.num_levels; ++k) {
    BatchPlan::Group g;
    g.elems = order_homogeneous_first(space, st.eval_elems[static_cast<std::size_t>(k - 1)], k,
                                      st.node_level);
    g.level = k;
    g.node_level = st.node_level;
    groups.push_back(std::move(g));
  }
  return BatchPlan(space, ncomp, std::move(groups));
}

/// Block path vs the dense element reference on one mesh: the full apply
/// through the operator's full-mesh plan and the level-restricted applies
/// through a solver-style level plan, in both kernel modes, at 1e-12. The
/// sweep meshes have 36 elements, so every block width (8/16/32) gets a
/// ragged tail block, and caller-order chunking puts face neighbours into one
/// block, so the scatter accumulates lanes that share global rows.
/// `expect_affine` asserts which geometry form the plans chose (compact
/// separable constants on parallelepiped meshes, trilinear rows on warped
/// ones), guaranteeing both kernel variants are exercised.
template <class Op>
void matches_dense_reference(const mesh::HexMesh& m, int order, bool expect_affine) {
  SemSpace space(m, order);
  const Op probe(space, KernelMode::Auto);
  const int nc = probe.ncomp();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(nc);
  Rng rng(5000 + order + 10 * nc + (expect_affine ? 1 : 0));
  const auto u = random_field(ndof, rng);
  const auto st = two_level_structure(m, space);
  const auto ref = DenseReference(m, space, nc).apply(u, st.node_level, st.num_levels);
  const BatchPlan lp = level_plan(space, nc, st);

  for (const KernelMode mode : {KernelMode::Auto, KernelMode::Generic}) {
    const Op op(space, mode);
    auto ws = op.make_workspace();
    const char* label = mode == KernelMode::Auto ? "specialized" : "generic";

    const BatchPlan& fp = op.full_plan();
    bool ragged = false, shared = false, affine = false, trilinear = false;
    for (index_t b = 0; b < fp.num_blocks(); ++b) {
      ragged = ragged || fp.block_fill(b) < fp.width();
      (fp.block_affine(b) ? affine : trilinear) = true;
      // An element's own nodes are distinct, so a repeat is two real lanes
      // sharing a global row.
      std::set<gindex_t> seen;
      const index_t* be = fp.block_elems(b);
      for (int l = 0; l < fp.block_fill(b) && !shared; ++l)
        for (int q = 0; q < space.nodes_per_elem() && !shared; ++q)
          shared = !seen.insert(space.elem_nodes(be[l])[q]).second;
    }
    EXPECT_TRUE(ragged) << "sweep must cover a ragged tail block";
    EXPECT_TRUE(shared) << "sweep must cover a block whose lanes share a global row";
    EXPECT_EQ(affine, expect_affine) << "order " << order;
    EXPECT_EQ(trilinear, !expect_affine) << "order " << order;

    std::vector<real_t> out(ndof, 0.0);
    op.apply_add_blocks(fp, 0, fp.num_blocks(), u.data(), out.data(), ws);
    EXPECT_LT(max_rel_diff(ref[0], out), 1e-12) << label << " full, order " << order;

    bool masked = false;
    for (level_t k = 1; k <= st.num_levels; ++k) {
      const auto range = lp.group_blocks(static_cast<std::size_t>(k - 1));
      for (index_t b = range.first; b < range.last; ++b) masked = masked || lp.mask(b) != nullptr;
      std::vector<real_t> mk(ndof, 0.0);
      op.apply_add_blocks(lp, range.first, range.last, u.data(), mk.data(), ws);
      EXPECT_LT(max_rel_diff(ref[static_cast<std::size_t>(k)], mk), 1e-12)
          << label << " masked level " << k << ", order " << order;
    }
    EXPECT_TRUE(masked) << "sweep must cover a mixed (masked) block";
  }
}

/// 36-element two-material mesh — a full block plus a ragged tail at every
/// block width. Warped: non-affine geometry (trilinear rows).
mesh::HexMesh make_sweep_mesh(bool warped) {
  mesh::Material mat;
  mat.vp = 1.9;
  mat.vs = 1.0;
  mat.rho = 1.2;
  auto m = mesh::make_uniform_box(4, 3, 3, {1.2, 0.9, 1.1}, mat);
  mesh::Material slow = mat;
  slow.vp = 1.4;
  slow.rho = 1.5;
  for (index_t e = 0; e < m.num_elems(); ++e)
    if (m.centroid(e)[1] > 0.5) m.set_material(e, slow);
  if (warped)
    warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
      x += 0.04 * std::sin(2 * y + z);
      y += 0.03 * std::cos(3 * x);
      z += 0.03 * std::sin(x + 2 * y);
    });
  return m;
}

TEST(Kernels, AcousticMatchesDenseReferenceOrders1To8) {
  for (int order = 1; order <= 8; ++order)
    matches_dense_reference<AcousticOperator>(make_sweep_mesh(true), order, false);
}

TEST(Kernels, ElasticMatchesDenseReferenceOrders1To8) {
  for (int order = 1; order <= 8; ++order)
    matches_dense_reference<ElasticOperator>(make_sweep_mesh(true), order, false);
}

TEST(Kernels, AffineFastPathMatchesDenseReferenceOrders1To8) {
  // Parallelepiped mesh: every block takes the compact separable metric.
  for (int order = 1; order <= 8; ++order) {
    matches_dense_reference<AcousticOperator>(make_sweep_mesh(false), order, true);
    matches_dense_reference<ElasticOperator>(make_sweep_mesh(false), order, true);
  }
}

/// Resident bytes a plan of non-affine blocks must hold: every block's
/// gather slab, a mask slab per mixed block, and 21 trilinear lane rows per
/// block — no per-point geometry.
std::size_t expected_slab_bytes(const BatchPlan& plan) {
  const auto W = static_cast<std::size_t>(plan.width());
  const auto slab = W * static_cast<std::size_t>(plan.npts());
  std::size_t bytes = 0;
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    bytes += slab * sizeof(gindex_t);
    if (plan.mask(b) != nullptr) bytes += slab * sizeof(real_t);
    bytes += static_cast<std::size_t>(kernels::kTrilinearRows) * W * sizeof(real_t);
  }
  return bytes;
}

template <class Op>
void resident_plan_is_geometry_rows(int order) {
  const auto m = make_sweep_mesh(true);
  SemSpace space(m, order);
  const Op op(space);
  const auto st = two_level_structure(m, space);
  const BatchPlan lp = level_plan(space, op.ncomp(), st);
  for (const BatchPlan* plan : {&op.full_plan(), &lp}) {
    for (index_t b = 0; b < plan->num_blocks(); ++b)
      ASSERT_FALSE(plan->block_affine(b)) << "warped mesh, order " << order << " block " << b;
    EXPECT_EQ(plan->slab_bytes(), expected_slab_bytes(*plan)) << "order " << order;
  }
  matches_dense_reference<Op>(m, order, false);
}

TEST(Kernels, ResidentPlanHoldsTrilinearRowsNotMetricPlanes) {
  for (int order : {1, 4, 8}) {
    resident_plan_is_geometry_rows<AcousticOperator>(order);
    resident_plan_is_geometry_rows<ElasticOperator>(order);
  }
}

TEST(Kernels, BatchedGenericModeMatchesSpecialized) {
  // KernelMode::Generic routes the batched path through the runtime-(n1, bw)
  // block kernels; order 9 additionally has no specialization at all.
  for (int order : {3, 9}) {
    const auto m = make_sweep_mesh(true);
    SemSpace space(m, order);
    AcousticOperator a(space, KernelMode::Auto);
    AcousticOperator g(space, KernelMode::Generic);
    const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
    Rng rng(77 + order);
    const auto u = random_field(n, rng);
    std::vector<real_t> oa(n, 0.0), og(n, 0.0);
    auto wa = a.make_workspace();
    auto wg = g.make_workspace();
    a.apply_add_blocks(a.full_plan(), 0, a.full_plan().num_blocks(), u.data(), oa.data(), wa);
    g.apply_add_blocks(g.full_plan(), 0, g.full_plan().num_blocks(), u.data(), og.data(), wg);
    EXPECT_LT(max_rel_diff(oa, og), 1e-12) << "order " << order;
  }
}

TEST(Kernels, PlanChunksEachGroupInCallerOrder) {
  // Every group is chunked in the caller's element order, W lanes per block.
  // A level-k group chunks its node-homogeneous prefix and its mixed
  // remainder separately, so only the last block of each segment is ragged.
  // The layout is a pure function of the groups: two constructions agree.
  const auto m = make_sweep_mesh(true);
  SemSpace space(m, 4);
  const auto st = two_level_structure(m, space);
  auto make_groups = [&] {
    std::vector<BatchPlan::Group> groups;
    BatchPlan::Group all; // unmasked: one segment
    all.elems = all_elems(space);
    groups.push_back(std::move(all));
    for (level_t k = 1; k <= 2; ++k) {
      BatchPlan::Group g;
      g.elems = order_homogeneous_first(space, st.eval_elems[static_cast<std::size_t>(k - 1)],
                                        k, st.node_level);
      g.level = k;
      g.node_level = st.node_level;
      groups.push_back(std::move(g));
    }
    return groups;
  };
  const auto groups = make_groups();
  const BatchPlan plan(space, 1, make_groups());
  const BatchPlan again(space, 1, make_groups());
  const auto W = static_cast<std::size_t>(plan.width());
  auto homogeneous = [&](index_t e, level_t k) {
    const gindex_t* l2g = space.elem_nodes(e);
    for (int q = 0; q < space.nodes_per_elem(); ++q)
      if (st.node_level[static_cast<std::size_t>(l2g[q])] != k) return false;
    return true;
  };

  ASSERT_EQ(plan.num_groups(), groups.size());
  bool split_seen = false;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    const auto& grp = groups[gi];
    // End of the node-homogeneous prefix (the whole group when unmasked).
    std::size_t split = grp.elems.size();
    if (grp.level > 0) {
      split = 0;
      while (split < grp.elems.size() && homogeneous(grp.elems[split], grp.level)) ++split;
      split_seen = split_seen || (split > 0 && split < grp.elems.size());
    }
    std::vector<index_t> listed;
    const auto range = plan.group_blocks(gi);
    for (index_t b = range.first; b < range.last; ++b) {
      const std::size_t at = listed.size();
      const std::size_t segment_end = at < split ? split : grp.elems.size();
      EXPECT_EQ(static_cast<std::size_t>(plan.block_fill(b)), std::min(W, segment_end - at))
          << "group " << gi << " block " << b;
      const index_t* be = plan.block_elems(b);
      listed.insert(listed.end(), be, be + plan.block_fill(b));
    }
    EXPECT_EQ(listed, grp.elems) << "group " << gi << ": blocks must list the caller's order";
  }
  EXPECT_TRUE(split_seen) << "a level group must have both a homogeneous and a mixed segment";

  ASSERT_EQ(again.num_blocks(), plan.num_blocks());
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    EXPECT_EQ(again.block_fill(b), plan.block_fill(b)) << "block " << b;
    EXPECT_TRUE(std::equal(plan.block_elems(b), plan.block_elems(b) + W, again.block_elems(b)))
        << "block " << b;
    EXPECT_EQ(again.mask(b) == nullptr, plan.mask(b) == nullptr) << "block " << b;
  }
}

TEST(Kernels, ExoticOrderFallsBackToGeneric) {
  // Order 9 (n1 = 10) has no specialization: Auto must resolve to the same
  // generic kernel, so the two modes agree bit-for-bit.
  const auto m = mesh::make_uniform_box(1, 1, 1);
  SemSpace space(m, 9);
  AcousticOperator a(space, KernelMode::Auto);
  AcousticOperator g(space, KernelMode::Generic);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  Rng rng(7);
  const auto u = random_field(n, rng);
  std::vector<real_t> oa(n, 0.0), og(n, 0.0);
  auto wa = a.make_workspace();
  auto wg = g.make_workspace();
  a.apply_add_blocks(a.full_plan(), 0, a.full_plan().num_blocks(), u.data(), oa.data(), wa);
  g.apply_add_blocks(g.full_plan(), 0, g.full_plan().num_blocks(), u.data(), og.data(), wg);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(oa[i], og[i]);
}

TEST(Kernels, LevelPlanMasksSelectLevelColumns) {
  // A level-k block carries no mask exactly when its real lanes are
  // node-homogeneous at level k; a mixed block's mask is 1 on level-k
  // columns of real lanes and 0 everywhere else (padded lanes included).
  const auto m = make_test_mesh();
  SemSpace space(m, 3);
  const auto st = two_level_structure(m, space);
  const BatchPlan plan = level_plan(space, 1, st);
  const int npts = space.nodes_per_elem();
  const int W = plan.width();
  int homogeneous = 0, mixed = 0;
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    const level_t k = plan.block_level(b);
    const index_t* be = plan.block_elems(b);
    const real_t* mk = plan.mask(b);
    (mk == nullptr ? homogeneous : mixed) += 1;
    for (int l = 0; l < W; ++l)
      for (int q = 0; q < npts; ++q) {
        const bool is_k = st.node_level[static_cast<std::size_t>(space.elem_nodes(be[l])[q])] == k;
        if (mk == nullptr) {
          if (l < plan.block_fill(b)) {
            EXPECT_TRUE(is_k) << "block " << b << " lane " << l;
          }
        } else {
          EXPECT_EQ(mk[q * W + l], l < plan.block_fill(b) && is_k ? 1.0 : 0.0)
              << "block " << b << " lane " << l << " point " << q;
        }
      }
  }
  // The synthetic split has both bulk and interface elements.
  EXPECT_GT(homogeneous, 0);
  EXPECT_GT(mixed, 0);
}

TEST(Kernels, EnergyConservedThroughSolverOnSpecializedPaths) {
  // LTS-Newmark smoke test on the production kernel paths (specialized
  // dispatch + masked level plans): the staggered energy must stay in a tight
  // band over a few hundred cycles — any kernel/mask inconsistency between
  // levels destroys this immediately.
  const auto m = mesh::make_strip_mesh(16, 0.3, 4.0);
  SemSpace space(m, 4);
  AcousticOperator op(space);
  const auto levels = core::assign_levels(m, 0.05);
  ASSERT_GE(levels.num_levels, 2);
  const auto st = core::build_lts_structure(space, levels);
  const partition::Partition one_rank{
      1, std::vector<rank_t>(static_cast<std::size_t>(m.num_elems()), 0)};
  runtime::ThreadedLtsSolver solver(op, levels, st, one_rank); // the serial-lts engine

  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u0(n);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    u0[static_cast<std::size_t>(g)] =
        std::cos(M_PI * x[0]) * std::cos(M_PI * x[1]) * std::cos(M_PI * x[2]);
  }
  solver.set_state(u0, std::vector<real_t>(n, 0.0));

  std::vector<real_t> energies;
  std::vector<real_t> u_prev;
  for (int step = 0; step < 200; ++step) {
    u_prev.assign(solver.u().begin(), solver.u().end());
    solver.run_cycles(1);
    energies.push_back(core::staggered_energy(op, u_prev, solver.u(), solver.v_half()));
    ASSERT_GT(energies.back(), 0);
  }
  // Bounded O(dt^2) fluctuation, and no systematic drift between the early
  // and late windows.
  const real_t e0 = energies.front();
  for (std::size_t i = 0; i < energies.size(); ++i)
    ASSERT_NEAR(energies[i], e0, 0.05 * e0) << "energy band violated at step " << i;
  auto mean = [&](std::size_t lo, std::size_t hi) {
    real_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += energies[i];
    return acc / static_cast<real_t>(hi - lo);
  };
  EXPECT_NEAR(mean(energies.size() - 20, energies.size()), mean(0, 20), 2e-3 * e0);
}

} // namespace
} // namespace ltswave::sem

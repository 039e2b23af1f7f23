#include "sem/wave_operator.hpp"

namespace ltswave::sem {

KernelWorkspace::KernelWorkspace(const SemSpace& space, int ncomp) {
  const auto npts = static_cast<std::size_t>(space.nodes_per_elem());
  const auto width = static_cast<std::size_t>(kernels::block_width_for(space.ref().nodes_1d()));
  // One buffer holds a full lane-interleaved block slab (width * npts, a
  // whole number of cache lines since width is a multiple of 8). Sized once
  // here per (order, block width) and reused across every level and apply.
  stride_ = width * ((npts + 7u) & ~std::size_t{7u});
  // Buffers: acoustic needs gather + output + 3 scratch slabs (5); elastic
  // needs 3 gathers + 9 gradient/flux slabs + 3 outputs (15). One slack slab
  // each, plus 8 doubles so the base can be rounded up to a 64-byte boundary.
  buf_.assign(stride_ * static_cast<std::size_t>(ncomp == 1 ? 6 : 16) + 8u, 0.0);
}

namespace {

/// Returns the kernel-selection node count: the real n1 in Auto mode, or a
/// value outside the specialized range to force the runtime-n1 fallback.
int dispatch_n1(const SemSpace& space, KernelMode mode) {
  return mode == KernelMode::Auto ? space.ref().nodes_1d() : 0;
}

} // namespace

const BatchPlan& WaveOperator::full_plan() const {
  if (!full_plan_) {
    BatchPlan::Group all;
    all.elems.resize(static_cast<std::size_t>(space().num_elems()));
    for (std::size_t e = 0; e < all.elems.size(); ++e) all.elems[e] = static_cast<index_t>(e);
    std::vector<BatchPlan::Group> groups;
    groups.push_back(std::move(all));
    full_plan_ = std::make_shared<const BatchPlan>(space(), ncomp(), std::move(groups));
  }
  return *full_plan_;
}

// ---------------------------------------------------------------------------
// Acoustic
// ---------------------------------------------------------------------------

AcousticOperator::AcousticOperator(const SemSpace& space, KernelMode mode)
    : WaveOperator(space),
      block_kernel_(kernels::acoustic_block_kernel(dispatch_n1(space, mode))),
      affine_kernel_(kernels::acoustic_block_kernel_affine(dispatch_n1(space, mode))) {
  const auto& m = space.mesh();
  kappa_.resize(static_cast<std::size_t>(m.num_elems()));
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const auto& mat = m.material(e);
    kappa_[static_cast<std::size_t>(e)] = mat.rho * mat.vp * mat.vp;
  }
}

void AcousticOperator::apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1,
                                        const real_t* u, real_t* out, KernelWorkspace& ws) const {
  const SemSpace& sp = space();
  const int n1 = sp.ref().nodes_1d();
  const int npts = sp.nodes_per_elem();
  const int W = plan.width();
  const int pts = npts * W;
  const real_t* D = sp.ref().deriv_matrix().data();
  const real_t* xi = sp.ref().points().data();
  const real_t* w3 = plan.weights3();

  real_t* ul = ws.buffer(0);
  real_t* ol = ws.buffer(1);
  real_t* s1 = ws.buffer(2);
  real_t* s2 = ws.buffer(3);
  real_t* s3 = ws.buffer(4);
  alignas(64) real_t kap[kernels::kMaxBlockWidth];

  for (index_t b = b0; b < b1; ++b) {
    const gindex_t* gth = plan.gather(b);
    if (const real_t* mk = plan.mask(b)) {
      for (int t = 0; t < pts; ++t) ul[t] = mk[t] * u[gth[t]];
    } else {
      for (int t = 0; t < pts; ++t) ul[t] = u[gth[t]];
    }
    const index_t* eids = plan.block_elems(b);
    for (int l = 0; l < W; ++l) kap[l] = kappa_[static_cast<std::size_t>(eids[l])];

    if (plan.block_affine(b))
      affine_kernel_(n1, W, D, w3, plan.affine_metric(b), kap, ul, ol, s1, s2, s3);
    else
      block_kernel_(n1, W, D, w3, xi, plan.geometry(b), kap, ul, ol, s1, s2, s3);

    // Scatter real lanes only (padded tail lanes replicate a real element and
    // would double-count). Lanes of one block may share global rows, so the
    // scatter is one sequential loop in fixed (q, lane) order.
    const int ne = plan.block_fill(b);
    for (int q = 0; q < npts; ++q) {
      const int base = q * W;
      for (int l = 0; l < ne; ++l) out[gth[base + l]] += ol[base + l];
    }
  }
}

// ---------------------------------------------------------------------------
// Elastic
// ---------------------------------------------------------------------------

ElasticOperator::ElasticOperator(const SemSpace& space, KernelMode mode)
    : WaveOperator(space),
      block_kernel_(kernels::elastic_block_kernel(dispatch_n1(space, mode))),
      affine_kernel_(kernels::elastic_block_kernel_affine(dispatch_n1(space, mode))) {
  const auto& m = space.mesh();
  lambda_.resize(static_cast<std::size_t>(m.num_elems()));
  mu_.resize(static_cast<std::size_t>(m.num_elems()));
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const auto& mat = m.material(e);
    mu_[static_cast<std::size_t>(e)] = mat.rho * mat.vs * mat.vs;
    lambda_[static_cast<std::size_t>(e)] = mat.rho * (mat.vp * mat.vp - 2 * mat.vs * mat.vs);
    LTS_CHECK_MSG(lambda_[static_cast<std::size_t>(e)] + 2 * mu_[static_cast<std::size_t>(e)] > 0,
                  "non-physical elastic moduli in element " << e);
  }
}

void ElasticOperator::apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1,
                                       const real_t* u, real_t* out, KernelWorkspace& ws) const {
  const SemSpace& sp = space();
  const int n1 = sp.ref().nodes_1d();
  const int npts = sp.nodes_per_elem();
  const int W = plan.width();
  const int pts = npts * W;
  const real_t* D = sp.ref().deriv_matrix().data();
  const real_t* xi = sp.ref().points().data();
  const real_t* w3 = plan.weights3();

  // Buffer layout: gathers 0..2, gradients / fluxes 3..11, outputs 12..14 —
  // each a full block slab (the elastic workspace allocates 16, leaving one
  // slack slab).
  real_t* ul[3] = {ws.buffer(0), ws.buffer(1), ws.buffer(2)};
  real_t* gr[9];
  for (int b = 0; b < 9; ++b) gr[b] = ws.buffer(3 + b);
  real_t* ol[3] = {ws.buffer(12), ws.buffer(13), ws.buffer(14)};
  alignas(64) real_t lam[kernels::kMaxBlockWidth];
  alignas(64) real_t mu[kernels::kMaxBlockWidth];

  for (index_t b = b0; b < b1; ++b) {
    const gindex_t* gth = plan.gather(b);
    if (const real_t* mk = plan.mask(b)) {
      for (int t = 0; t < pts; ++t) {
        const std::size_t base = static_cast<std::size_t>(gth[t]) * 3;
        const real_t m = mk[t];
        ul[0][t] = m * u[base];
        ul[1][t] = m * u[base + 1];
        ul[2][t] = m * u[base + 2];
      }
    } else {
      for (int t = 0; t < pts; ++t) {
        const std::size_t base = static_cast<std::size_t>(gth[t]) * 3;
        ul[0][t] = u[base];
        ul[1][t] = u[base + 1];
        ul[2][t] = u[base + 2];
      }
    }
    const index_t* eids = plan.block_elems(b);
    for (int l = 0; l < W; ++l) {
      lam[l] = lambda_[static_cast<std::size_t>(eids[l])];
      mu[l] = mu_[static_cast<std::size_t>(eids[l])];
    }

    if (plan.block_affine(b))
      affine_kernel_(n1, W, D, w3, plan.affine_metric(b), lam, mu, ul, ol, gr);
    else
      block_kernel_(n1, W, D, w3, xi, plan.geometry(b), lam, mu, ul, ol, gr);

    // As in the acoustic scatter, with the row index rescaled to the
    // 3-interleaved layout.
    const int ne = plan.block_fill(b);
    for (int q = 0; q < npts; ++q) {
      const int base = q * W;
      for (int l = 0; l < ne; ++l) {
        const std::size_t o = static_cast<std::size_t>(gth[base + l]) * 3;
        out[o] += ol[0][base + l];
        out[o + 1] += ol[1][base + l];
        out[o + 2] += ol[2][base + l];
      }
    }
  }
}

} // namespace ltswave::sem

#pragma once

/// \file kernels.hpp
/// Order-specialized SEM block-kernel engine. The wave operators
/// (sem/wave_operator.*) dispatch the stiffness apply — the unit of work in
/// the paper's LTS cost model — into this layer, which provides:
///
///  * element-block batched applies: a block kernel advances a whole block of
///    W elements (W = block_width_for(n1), see batch_plan.hpp) per call on
///    lane-interleaved slabs — entry (q, l) at [q*W + l] — so every inner
///    loop carries a unit-stride lane dimension of compile-time width and the
///    tensor contractions vectorize across *elements* instead of across the
///    short n1 axis;
///
///  * compile-time order specialization: the acoustic/elastic block applies
///    are templated on the 1D node count N1 and explicitly instantiated for
///    N1 = 2..9 (polynomial orders 1-8). All loop bounds become compile-time
///    constants, so the inner `m`-contractions unroll and vectorize. A
///    runtime-(n1, bw) fallback (the N1 == 0 instantiation of the *same*
///    code) serves exotic orders and is cross-validated against the
///    specializations in the tests;
///
///  * fused metric tensors: the acoustic apply consumes the symmetric 3x3
///    matrix G = wdet * Jinv * Jinv^T (6 doubles per quadrature point),
///    collapsing two 3x3 applies per point into a single symmetric apply.
///    The elastic apply keeps Jinv for the displacement gradient but takes
///    the flux through the precomputed product wdet * Jinv. Affine blocks
///    take compact separable forms of both (one constant set per lane).
///
/// Kernel functions operate on block-local, 64-byte-aligned workspace
/// buffers (KernelWorkspace in wave_operator.hpp); gather/scatter against the
/// global vectors stays in the operators.

#include "sem/sem_space.hpp"

namespace ltswave::sem {

namespace kernels {

/// Lanes per block for n1 nodes per direction: wide blocks for small elements
/// (whose slabs stay tiny), narrower for high orders so the workspace slabs
/// stay cache-resident. Always a multiple of 8, so every lane-interleaved
/// slab of width * npts doubles is a whole number of cache lines.
[[nodiscard]] constexpr int block_width_for(int n1) noexcept {
  const int npts = n1 * n1 * n1;
  if (npts <= 27) return 32;
  if (npts <= 216) return 16;
  return 8;
}

/// Upper bound on block_width_for over all orders (for stack lane arrays).
inline constexpr int kMaxBlockWidth = 32;

/// Full acoustic *block* stiffness apply: one call advances a whole
/// BatchPlan block of `bw` elements on lane-interleaved slabs (entry (q, l)
/// of a slab at [q*bw + l]).
///  n1, bw : nodes per direction and lane count (both ignored by specialized
///           instantiations, which bake block_width_for(N1) in);
///  D      : collocation derivative matrix, row-major n1 x n1 (the lane axis
///           is the vector axis, so no transposed copy is needed);
///  gmat   : the block's fused metric: 6 lane-interleaved planes of bw*npts
///           (BatchPlan::gmat);
///  kappa  : per-lane moduli, bw entries (padded lanes replicated);
///  ul     : gathered (possibly mask-multiplied) field slab, bw*npts;
///  out    : block contribution slab, bw*npts (overwritten; padded lanes are
///           garbage and must not be scattered);
///  s1-s3  : scratch slabs, bw*npts each.
using AcousticBlockFn = void (*)(int n1, int bw, const real_t* D, const real_t* gmat,
                                 const real_t* kappa, const real_t* ul, real_t* out, real_t* s1,
                                 real_t* s2, real_t* s3);

/// Full isotropic elastic block stiffness apply on lane-interleaved slabs.
///  jinv  : 9 lane-interleaved planes of bw*npts, row-major (r,d) plane order
///          (BatchPlan::jinv);
///  wjinv : wdet * jinv, same layout (BatchPlan::wjinv);
///  lam/mu: per-lane moduli, bw entries each;
///  ul    : the three gathered displacement slabs, bw*npts each;
///  out   : the three block contribution slabs (overwritten);
///  gr    : nine scratch slabs (reference gradients / fluxes), bw*npts each.
using ElasticBlockFn = void (*)(int n1, int bw, const real_t* D, const real_t* jinv,
                                const real_t* wjinv, const real_t* lam, const real_t* mu,
                                const real_t* const* ul, real_t* const* out, real_t* const* gr);

/// Acoustic block apply for *affine* blocks: the fused metric factors as
/// G(q) = w3[q] * C per lane, so the kernel streams no metric planes at all —
/// `cmat` is 6 lane-constant rows (6*bw, BatchPlan::gmat_affine) and `w3` the
/// shared 3D quadrature weights (npts).
using AcousticBlockAffineFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                       const real_t* cmat, const real_t* kappa, const real_t* ul,
                                       real_t* out, real_t* s1, real_t* s2, real_t* s3);

/// Elastic block apply for affine blocks: `cji` (9*bw) holds the constant
/// Jinv lanes and `cwj` (9*bw) the separable wdet*Jinv constants
/// (wjinv(q) = w3[q] * cwj).
using ElasticBlockAffineFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                      const real_t* cji, const real_t* cwj, const real_t* lam,
                                      const real_t* mu, const real_t* const* ul,
                                      real_t* const* out, real_t* const* gr);

/// Largest 1D node count with a compile-time specialization (order 8).
inline constexpr int kMaxSpecializedNodes1d = 9;

/// Returns the block kernel for `n1` nodes per direction: the compile-time
/// specialization for 2 <= n1 <= kMaxSpecializedNodes1d, otherwise (n1 = 0
/// forces it) the runtime-(n1, bw) generic kernel. The specialized
/// instantiations require bw == block_width_for(n1) (the layout BatchPlan
/// builds); the generic fallback takes any runtime (n1, bw).
[[nodiscard]] AcousticBlockFn acoustic_block_kernel(int n1);
[[nodiscard]] ElasticBlockFn elastic_block_kernel(int n1);
[[nodiscard]] AcousticBlockAffineFn acoustic_block_kernel_affine(int n1);
[[nodiscard]] ElasticBlockAffineFn elastic_block_kernel_affine(int n1);

} // namespace kernels

} // namespace ltswave::sem

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
///  * geometry on the fly: a non-affine block carries only the 21 trilinear
///    corner-map coefficients per lane (BatchPlan::geometry). At each
///    quadrature point the kernel rebuilds the Jacobian J (3 FMAs per entry,
///    its (eta, zeta) parts hoisted per line of points), its adjugate
///    adj = det * J^-1 and det, and folds w_q / det into one
///    scale (one Vec division per point). The acoustic flux is
///    kappa * (w/det) * adj adj^T * grad_ref u; the elastic gradient goes
///    through adj with lambda and mu scaled by w/det, and its flux through adj
///    again, since wdet * J^-1 = w * adj exactly. No per-point metric is
///    stored or streamed: ~50-70 flops per point replace 48 B (acoustic) or
///    144 B (elastic) of loads on a bandwidth-bound apply;
///
///  * compact affine metrics: blocks of parallelepipeds take the fused
///    metrics in separable form instead — the acoustic symmetric
///    G = wdet * Jinv * Jinv^T as 6 constants per lane, the elastic Jinv and
///    wdet * Jinv as 9 + 9 — times the point's w_q. This skips the per-point
///    geometry arithmetic and is kept because it is faster per element
///    (docs/performance.md, "Geometry on the fly").
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

/// Number of trilinear-map lane rows a non-affine block carries: A_m[d] for
/// monomials m = 1..7 and coordinates d = 0..2, row 3*(m-1) + d.
inline constexpr int kTrilinearRows = 21;

/// Acoustic *block* stiffness apply with geometry on the fly: one call
/// advances a whole BatchPlan block of `bw` elements on lane-interleaved
/// slabs (entry (q, l) of a slab at [q*bw + l]).
///  n1, bw : nodes per direction and lane count (both ignored by specialized
///           instantiations, which bake block_width_for(N1) in);
///  D      : collocation derivative matrix, row-major n1 x n1 (the lane axis
///           is the vector axis, so no transposed copy is needed);
///  w3     : 3D quadrature weights (npts, BatchPlan::weights3);
///  xi     : the 1D GLL points (n1);
///  geo    : the block's trilinear map, kTrilinearRows lane rows
///           (BatchPlan::geometry);
///  kappa  : per-lane moduli, bw entries (padded lanes replicated);
///  ul     : gathered (possibly mask-multiplied) field slab, bw*npts;
///  out    : block contribution slab, bw*npts (overwritten; padded lanes are
///           garbage and must not be scattered);
///  s1-s3  : scratch slabs, bw*npts each.
using AcousticBlockFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                 const real_t* xi, const real_t* geo, const real_t* kappa,
                                 const real_t* ul, real_t* out, real_t* s1, real_t* s2,
                                 real_t* s3);

/// Isotropic elastic block stiffness apply with geometry on the fly.
///  w3, xi, geo : as for AcousticBlockFn;
///  lam/mu: per-lane moduli, bw entries each;
///  ul    : the three gathered displacement slabs, bw*npts each;
///  out   : the three block contribution slabs (overwritten);
///  gr    : nine scratch slabs (reference fluxes), bw*npts each.
using ElasticBlockFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                const real_t* xi, const real_t* geo, const real_t* lam,
                                const real_t* mu, const real_t* const* ul, real_t* const* out,
                                real_t* const* gr);

/// Acoustic block apply for *affine* blocks: the fused metric factors as
/// G(q) = w3[q] * C per lane, so the kernel needs no per-point geometry —
/// `cmat` is 6 lane-constant rows (6*bw, BatchPlan::affine_metric).
using AcousticBlockAffineFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                       const real_t* cmat, const real_t* kappa, const real_t* ul,
                                       real_t* out, real_t* s1, real_t* s2, real_t* s3);

/// Elastic block apply for affine blocks: `cmat` (18*bw) holds the 9
/// constant Jinv rows, then the 9 separable wdet*Jinv rows
/// (wdet*Jinv(q) = w3[q] * row).
using ElasticBlockAffineFn = void (*)(int n1, int bw, const real_t* D, const real_t* w3,
                                      const real_t* cmat, const real_t* lam, const real_t* mu,
                                      const real_t* const* ul, real_t* const* out,
                                      real_t* const* gr);

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

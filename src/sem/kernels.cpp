#include "sem/kernels.hpp"

#include "common/simd.hpp"

namespace ltswave::sem {

namespace kernels {

namespace {

// Element-block batched kernels
//
// The SEM stiffness apply B^T (metric) B on lane-interleaved block slabs:
// entry (q, l) of a slab lives at [q*W + l], W = block_width_for(n1). The
// d/dxi tensor contractions use the collocation derivative matrix D. The lane
// axis is walked with the explicit simd::Vec layer (common/simd.hpp): the
// kernels are tiled into VW-lane chunks (VW = simd::kWidth, the target's
// native double-vector width), every contraction accumulator is a Vec
// register, and each chunk runs the whole kernel — gradients, pointwise
// metric algebra, weak divergence — before the next chunk starts, so a
// chunk's flux slabs stay cache-hot across the stages. Every block width is
// a multiple of 8 and VW is in {1, 2, 4, 8}, so chunks always tile exactly.
//
// Per chunk the stages fuse: at each point all reference-gradient
// accumulators live in Vec registers and the metric is applied immediately
// (no gradient slab round-trip — for elastic that is a 9-register
// stress/strain tile per lane chunk, the tiling the autovectorized version
// could not hold without spilling), and the three weak-divergence directions
// combine into one accumulator with a single store per output point. Affine
// blocks hoist their lane-constant metric into Vec registers across the
// whole point loop.
//
// Every kernel is templated on the compile-time 1D node count N1 and
// instantiated for N1 = 2..9; N1 == 0 selects the runtime-(n1, bw) generic
// path from the same source so the specializations cannot drift from their
// fallback.

/// Block width as a compile-time constant for specialized instantiations
/// (0 defers to the runtime bw argument).
template <int N1>
inline constexpr int kBlockW = N1 > 0 ? block_width_for(N1) : 0;

/// Shared body of the full-metric and affine acoustic block applies. With
/// Affine == true, `gmat` holds the 6 lane-constant rows C_p (6*W) and the
/// metric plane value is reconstructed as w3[q] * C_p[l]; otherwise `gmat`
/// holds the 6 full lane-interleaved planes and `w3` is unused.
template <int N1, bool Affine>
void acoustic_block_apply_impl(int n1_rt, int bw_rt, const real_t* __restrict D,
                               const real_t* __restrict w3, const real_t* __restrict gmat,
                               const real_t* __restrict kappa, const real_t* __restrict ul,
                               real_t* __restrict out, real_t* __restrict s1,
                               real_t* __restrict s2, real_t* __restrict s3) {
  const int n1 = N1 > 0 ? N1 : n1_rt;
  const int W = kBlockW<N1> > 0 ? kBlockW<N1> : bw_rt;
  LTS_DCHECK(W > 0 && W <= kMaxBlockWidth && W % 8 == 0);
  const int n2 = n1 * n1;
  const int npts = n2 * n1;
  const int pts = npts * W;

  using V = simd::RealVec;
  constexpr int VW = simd::kWidth;

  const int pstride = Affine ? W : pts;
  const real_t* __restrict g00 = gmat;
  const real_t* __restrict g01 = gmat + pstride;
  const real_t* __restrict g02 = gmat + 2 * pstride;
  const real_t* __restrict g11 = gmat + 3 * pstride;
  const real_t* __restrict g12 = gmat + 4 * pstride;
  const real_t* __restrict g22 = gmat + 5 * pstride;

  // Lane-chunk outer loop: each VW-lane slice runs both stages before the
  // next slice starts, so the slice's three flux slabs stay cache-hot into
  // the weak divergence. Affine lane constants (and kappa) hoist into Vec
  // registers across the whole point loop of a chunk.
  for (int l0 = 0; l0 < W; l0 += VW) {
    const V kp = V::load(kappa + l0);
    [[maybe_unused]] V c00{}, c01{}, c02{}, c11{}, c12{}, c22{};
    if constexpr (Affine) {
      c00 = V::load(g00 + l0);
      c01 = V::load(g01 + l0);
      c02 = V::load(g02 + l0);
      c11 = V::load(g11 + l0);
      c12 = V::load(g12 + l0);
      c22 = V::load(g22 + l0);
    }

    // Stage A: the three reference gradients of each point accumulate in Vec
    // registers (fma chains over the m contraction), then go through the
    // symmetric metric straight into the flux slabs s1-s3.
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j) {
        const real_t* __restrict fline = ul + ((k * n1 + j) * n1) * W + l0;
        const real_t* __restrict dj = D + j * n1;
        const real_t* __restrict dk = D + k * n1;
        for (int i = 0; i < n1; ++i) {
          const real_t* __restrict fy = ul + (k * n2 + i) * W + l0; // along j
          const real_t* __restrict fz = ul + (j * n1 + i) * W + l0; // along k
          const real_t* __restrict di = D + i * n1;
          V a = V::broadcast(di[0]) * V::load(fline);
          V b = V::broadcast(dj[0]) * V::load(fy);
          V c = V::broadcast(dk[0]) * V::load(fz);
          for (int m = 1; m < n1; ++m) {
            a = fma(V::broadcast(di[m]), V::load(fline + m * W), a);
            b = fma(V::broadcast(dj[m]), V::load(fy + m * n1 * W), b);
            c = fma(V::broadcast(dk[m]), V::load(fz + m * n2 * W), c);
          }
          const int q = (k * n1 + j) * n1 + i;
          const int t = q * W + l0;
          if constexpr (Affine) {
            // w_q factors out of the whole symmetric apply: three dots on the
            // hoisted lane constants, one combined kappa * w_q scale.
            const V kw = kp * V::broadcast(w3[q]);
            (kw * fma(c00, a, fma(c01, b, c02 * c))).store(s1 + t);
            (kw * fma(c01, a, fma(c11, b, c12 * c))).store(s2 + t);
            (kw * fma(c02, a, fma(c12, b, c22 * c))).store(s3 + t);
          } else {
            const V m00 = V::load(g00 + t), m01 = V::load(g01 + t);
            const V m02 = V::load(g02 + t), m11 = V::load(g11 + t);
            const V m12 = V::load(g12 + t), m22 = V::load(g22 + t);
            (kp * fma(m00, a, fma(m01, b, m02 * c))).store(s1 + t);
            (kp * fma(m01, a, fma(m11, b, m12 * c))).store(s2 + t);
            (kp * fma(m02, a, fma(m12, b, m22 * c))).store(s3 + t);
          }
        }
      }

    // Stage B: fused weak divergence — all three directions accumulate into
    // one Vec register, one store per output point, no zeroing pass.
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j) {
        const real_t* __restrict F1 = s1 + ((k * n1 + j) * n1) * W + l0;
        for (int i = 0; i < n1; ++i) {
          const real_t* __restrict F2 = s2 + (k * n2 + i) * W + l0;
          const real_t* __restrict F3 = s3 + (j * n1 + i) * W + l0;
          V acc = V::broadcast(D[i]) * V::load(F1);
          acc = fma(V::broadcast(D[j]), V::load(F2), acc);
          acc = fma(V::broadcast(D[k]), V::load(F3), acc);
          for (int m = 1; m < n1; ++m) {
            acc = fma(V::broadcast(D[m * n1 + i]), V::load(F1 + m * W), acc);
            acc = fma(V::broadcast(D[m * n1 + j]), V::load(F2 + m * n1 * W), acc);
            acc = fma(V::broadcast(D[m * n1 + k]), V::load(F3 + m * n2 * W), acc);
          }
          acc.store(out + ((k * n1 + j) * n1 + i) * W + l0);
        }
      }
  }
}

/// Shared body of the full-metric and affine elastic block applies. With
/// Affine == true, `jinv` holds 9 lane-constant Jinv rows (9*W) and `wjinv`
/// the separable wdet*Jinv constants (reconstructed as w3[q] * C).
template <int N1, bool Affine>
void elastic_block_apply_impl(int n1_rt, int bw_rt, const real_t* __restrict D,
                              const real_t* __restrict w3, const real_t* __restrict jinv,
                              const real_t* __restrict wjinv, const real_t* __restrict lam,
                              const real_t* __restrict mu, const real_t* const* ul,
                              real_t* const* out, real_t* const* gr) {
  const int n1 = N1 > 0 ? N1 : n1_rt;
  const int W = kBlockW<N1> > 0 ? kBlockW<N1> : bw_rt;
  LTS_DCHECK(W > 0 && W <= kMaxBlockWidth && W % 8 == 0);
  const int n2 = n1 * n1;
  const int npts = n2 * n1;
  const int pts = npts * W;
  // Plane p of a metric: full path at [p*pts + t], affine at [p*W + l].
  const std::size_t pstride = static_cast<std::size_t>(Affine ? W : pts);

  using V = simd::RealVec;
  constexpr int VW = simd::kWidth;

  // Rebind the indirect slab pointers into direct locals once (through a
  // const* const* every access would reload the pointer). Hand-vectorization
  // below makes per-pointer __restrict qualifiers unnecessary: the Vec
  // loads/stores are already explicit about what moves when.
  const real_t* const uc[3] = {ul[0], ul[1], ul[2]};
  real_t* const flux[9] = {gr[0], gr[1], gr[2], gr[3], gr[4], gr[5], gr[6], gr[7], gr[8]};

  // Lane-chunk outer loop, as in the acoustic kernel: each VW-lane slice runs
  // gradients + pointwise + weak divergence before the next slice starts.
  for (int l0 = 0; l0 < W; l0 += VW) {
    const V lm = V::load(lam + l0);
    const V m2 = V::load(mu + l0);
    // Affine metric constants hoist into Vec registers for the whole chunk:
    // Jinv is elementwise constant; the separable wdet*Jinv constants pick up
    // the w3[q] factor per point.
    [[maybe_unused]] V cji[9], cwj[9];
    if constexpr (Affine) {
      for (int p = 0; p < 9; ++p) {
        cji[p] = V::load(jinv + static_cast<std::size_t>(p) * pstride + static_cast<std::size_t>(l0));
        cwj[p] = V::load(wjinv + static_cast<std::size_t>(p) * pstride + static_cast<std::size_t>(l0));
      }
    }

    // Fused gradients + pointwise: at each point the nine reference-gradient
    // accumulators (3 components x 3 directions) are a Vec register tile —
    // the tiling the scalar lane-array form could not hold without spilling —
    // and the strain -> stress -> reference-flux algebra runs immediately, so
    // gradients never round-trip through the slabs. Only the nine flux planes
    // are materialized (stage B needs whole lines of them).
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j) {
        const int row = (k * n1 + j) * n1;
        const real_t* __restrict dj = D + j * n1;
        const real_t* __restrict dk = D + k * n1;
        for (int i = 0; i < n1; ++i) {
          const real_t* __restrict di = D + i * n1;
          V g[9];
          for (int c = 0; c < 3; ++c) {
            const real_t* __restrict f = uc[c];
            const real_t* __restrict fx = f + row * W + l0;
            const real_t* __restrict fy = f + (k * n2 + i) * W + l0;
            const real_t* __restrict fz = f + (j * n1 + i) * W + l0;
            V a = V::broadcast(di[0]) * V::load(fx);
            V b = V::broadcast(dj[0]) * V::load(fy);
            V cg = V::broadcast(dk[0]) * V::load(fz);
            for (int m = 1; m < n1; ++m) {
              a = fma(V::broadcast(di[m]), V::load(fx + m * W), a);
              b = fma(V::broadcast(dj[m]), V::load(fy + m * n1 * W), b);
              cg = fma(V::broadcast(dk[m]), V::load(fz + m * n2 * W), cg);
            }
            g[3 * c] = a;
            g[3 * c + 1] = b;
            g[3 * c + 2] = cg;
          }
          const int q = row + i;
          const int t = q * W + l0;
          // Physical displacement gradient H[c][d] = du_c/dx_d.
          V H[3][3];
          for (int d = 0; d < 3; ++d) {
            V j0, j1, j2;
            if constexpr (Affine) {
              j0 = cji[d];
              j1 = cji[3 + d];
              j2 = cji[6 + d];
            } else {
              j0 = V::load(jinv + static_cast<std::size_t>(d) * pstride + static_cast<std::size_t>(t));
              j1 = V::load(jinv + static_cast<std::size_t>(3 + d) * pstride + static_cast<std::size_t>(t));
              j2 = V::load(jinv + static_cast<std::size_t>(6 + d) * pstride + static_cast<std::size_t>(t));
            }
            H[0][d] = fma(j0, g[0], fma(j1, g[1], j2 * g[2]));
            H[1][d] = fma(j0, g[3], fma(j1, g[4], j2 * g[5]));
            H[2][d] = fma(j0, g[6], fma(j1, g[7], j2 * g[8]));
          }
          const V trace = H[0][0] + H[1][1] + H[2][2];
          // Cauchy stress, sigma = lam*tr(eps)*I + 2 mu eps, eps = (H+H^T)/2.
          V S[3][3];
          for (int c = 0; c < 3; ++c)
            for (int d = 0; d < 3; ++d) S[c][d] = m2 * (H[c][d] + H[d][c]);
          S[0][0] = fma(lm, trace, S[0][0]);
          S[1][1] = fma(lm, trace, S[1][1]);
          S[2][2] = fma(lm, trace, S[2][2]);
          // Reference flux F[c][r] = sum_d (wdet*jinv)[r][d] S[c][d].
          [[maybe_unused]] V wq{};
          if constexpr (Affine) wq = V::broadcast(w3[q]);
          for (int r = 0; r < 3; ++r) {
            V w0, w1, w2;
            if constexpr (Affine) {
              w0 = cwj[r * 3] * wq;
              w1 = cwj[r * 3 + 1] * wq;
              w2 = cwj[r * 3 + 2] * wq;
            } else {
              w0 = V::load(wjinv + static_cast<std::size_t>(r * 3) * pstride + static_cast<std::size_t>(t));
              w1 = V::load(wjinv + static_cast<std::size_t>(r * 3 + 1) * pstride + static_cast<std::size_t>(t));
              w2 = V::load(wjinv + static_cast<std::size_t>(r * 3 + 2) * pstride + static_cast<std::size_t>(t));
            }
            fma(w0, S[0][0], fma(w1, S[0][1], w2 * S[0][2])).store(flux[r] + t);
            fma(w0, S[1][0], fma(w1, S[1][1], w2 * S[1][2])).store(flux[3 + r] + t);
            fma(w0, S[2][0], fma(w1, S[2][1], w2 * S[2][2])).store(flux[6 + r] + t);
          }
        }
      }

    // Stage B: fused weak divergence per component, one Vec accumulator and
    // one store per output point.
    for (int c = 0; c < 3; ++c) {
      const real_t* __restrict s1 = flux[3 * c];
      const real_t* __restrict s2 = flux[3 * c + 1];
      const real_t* __restrict s3 = flux[3 * c + 2];
      real_t* __restrict oc = out[c];
      for (int k = 0; k < n1; ++k)
        for (int j = 0; j < n1; ++j) {
          const real_t* __restrict F1 = s1 + ((k * n1 + j) * n1) * W + l0;
          for (int i = 0; i < n1; ++i) {
            const real_t* __restrict F2 = s2 + (k * n2 + i) * W + l0;
            const real_t* __restrict F3 = s3 + (j * n1 + i) * W + l0;
            V acc = V::broadcast(D[i]) * V::load(F1);
            acc = fma(V::broadcast(D[j]), V::load(F2), acc);
            acc = fma(V::broadcast(D[k]), V::load(F3), acc);
            for (int m = 1; m < n1; ++m) {
              acc = fma(V::broadcast(D[m * n1 + i]), V::load(F1 + m * W), acc);
              acc = fma(V::broadcast(D[m * n1 + j]), V::load(F2 + m * n1 * W), acc);
              acc = fma(V::broadcast(D[m * n1 + k]), V::load(F3 + m * n2 * W), acc);
            }
            acc.store(oc + ((k * n1 + j) * n1 + i) * W + l0);
          }
        }
    }
  }
}

// Thin wrappers binding the shared impls to the public function-pointer
// signatures (the affine variants take w3 + compact constants).
template <int N1>
void acoustic_block_apply(int n1, int bw, const real_t* D, const real_t* gmat,
                          const real_t* kappa, const real_t* ul, real_t* out, real_t* s1,
                          real_t* s2, real_t* s3) {
  acoustic_block_apply_impl<N1, false>(n1, bw, D, nullptr, gmat, kappa, ul, out, s1, s2, s3);
}

template <int N1>
void acoustic_block_apply_affine(int n1, int bw, const real_t* D, const real_t* w3,
                                 const real_t* cmat, const real_t* kappa, const real_t* ul,
                                 real_t* out, real_t* s1, real_t* s2, real_t* s3) {
  acoustic_block_apply_impl<N1, true>(n1, bw, D, w3, cmat, kappa, ul, out, s1, s2, s3);
}

template <int N1>
void elastic_block_apply(int n1, int bw, const real_t* D, const real_t* jinv,
                         const real_t* wjinv, const real_t* lam, const real_t* mu,
                         const real_t* const* ul, real_t* const* out, real_t* const* gr) {
  elastic_block_apply_impl<N1, false>(n1, bw, D, nullptr, jinv, wjinv, lam, mu, ul, out, gr);
}

template <int N1>
void elastic_block_apply_affine(int n1, int bw, const real_t* D, const real_t* w3,
                                const real_t* cji, const real_t* cwj, const real_t* lam,
                                const real_t* mu, const real_t* const* ul, real_t* const* out,
                                real_t* const* gr) {
  elastic_block_apply_impl<N1, true>(n1, bw, D, w3, cji, cwj, lam, mu, ul, out, gr);
}

} // namespace

AcousticBlockFn acoustic_block_kernel(int n1) {
  switch (n1) {
    case 2: return &acoustic_block_apply<2>;
    case 3: return &acoustic_block_apply<3>;
    case 4: return &acoustic_block_apply<4>;
    case 5: return &acoustic_block_apply<5>;
    case 6: return &acoustic_block_apply<6>;
    case 7: return &acoustic_block_apply<7>;
    case 8: return &acoustic_block_apply<8>;
    case 9: return &acoustic_block_apply<9>;
    default: return &acoustic_block_apply<0>;
  }
}

ElasticBlockFn elastic_block_kernel(int n1) {
  switch (n1) {
    case 2: return &elastic_block_apply<2>;
    case 3: return &elastic_block_apply<3>;
    case 4: return &elastic_block_apply<4>;
    case 5: return &elastic_block_apply<5>;
    case 6: return &elastic_block_apply<6>;
    case 7: return &elastic_block_apply<7>;
    case 8: return &elastic_block_apply<8>;
    case 9: return &elastic_block_apply<9>;
    default: return &elastic_block_apply<0>;
  }
}

AcousticBlockAffineFn acoustic_block_kernel_affine(int n1) {
  switch (n1) {
    case 2: return &acoustic_block_apply_affine<2>;
    case 3: return &acoustic_block_apply_affine<3>;
    case 4: return &acoustic_block_apply_affine<4>;
    case 5: return &acoustic_block_apply_affine<5>;
    case 6: return &acoustic_block_apply_affine<6>;
    case 7: return &acoustic_block_apply_affine<7>;
    case 8: return &acoustic_block_apply_affine<8>;
    case 9: return &acoustic_block_apply_affine<9>;
    default: return &acoustic_block_apply_affine<0>;
  }
}

ElasticBlockAffineFn elastic_block_kernel_affine(int n1) {
  switch (n1) {
    case 2: return &elastic_block_apply_affine<2>;
    case 3: return &elastic_block_apply_affine<3>;
    case 4: return &elastic_block_apply_affine<4>;
    case 5: return &elastic_block_apply_affine<5>;
    case 6: return &elastic_block_apply_affine<6>;
    case 7: return &elastic_block_apply_affine<7>;
    case 8: return &elastic_block_apply_affine<8>;
    case 9: return &elastic_block_apply_affine<9>;
    default: return &elastic_block_apply_affine<0>;
  }
}

} // namespace kernels

} // namespace ltswave::sem

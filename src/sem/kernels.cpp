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
// combine into one accumulator with a single store per output point. Every
// block hoists its lane-constant geometry rows (the affine metric constants
// or the 21 trilinear coefficients) into Vec registers across the whole
// point loop; non-affine blocks rebuild the Jacobian adjugate and det from
// them at each point (TrilinearLine, TrilinearPoint).
//
// Every kernel is templated on the compile-time 1D node count N1 and
// instantiated for N1 = 2..9; N1 == 0 selects the runtime-(n1, bw) generic
// path from the same source so the specializations cannot drift from their
// fallback.

/// Block width as a compile-time constant for specialized instantiations
/// (0 defers to the runtime bw argument).
template <int N1>
inline constexpr int kBlockW = N1 > 0 ? block_width_for(N1) : 0;

/// Jacobian adjugate adj = det * J^-1 (row r = d xi_r / d x, times det) and
/// det of the trilinear map at one quadrature point of one lane chunk.
template <class V>
struct TrilinearPoint {
  V adj[3][3];
  V det;
};

/// The trilinear map's Jacobian along one (eta_j, zeta_k) line of quadrature
/// points, for one lane chunk. `a` holds the chunk's trilinear rows,
/// a[3*(m-1) + d] = A_m[d]. The Jacobian columns c_r = d x / d xi_r are
///   c_0 = (A1 + A5 z) + y (A3 + A7 z),  c_1 = (A2 + A6 z) + x (A3 + A7 z),
///   c_2 = (A4 + A6 y) + x (A5 + A7 y),
/// each entry 3 FMAs; the (y, z) parts are evaluated once per line, leaving
/// one FMA per entry of c_1 and c_2 at each point x.
template <class V>
struct TrilinearLine {
  V c0[3];       ///< c_0, constant along the line
  V c1x[3], c1[3]; ///< c_1 = c1 + x c1x
  V c2x[3], c2[3]; ///< c_2 = c2 + x c2x

  TrilinearLine(const V (&a)[kTrilinearRows], real_t y, real_t z) {
    const V Y = V::broadcast(y), Z = V::broadcast(z);
    for (int d = 0; d < 3; ++d) {
      const V A1 = a[d], A2 = a[3 + d], A3 = a[6 + d], A4 = a[9 + d];
      const V A5 = a[12 + d], A6 = a[15 + d], A7 = a[18 + d];
      c1x[d] = fma(A7, Z, A3);
      c0[d] = fma(Y, c1x[d], fma(A5, Z, A1));
      c1[d] = fma(A6, Z, A2);
      c2x[d] = fma(A7, Y, A5);
      c2[d] = fma(A6, Y, A4);
    }
  }

  /// The geometry at the line's point with reference coordinate x = xi_i.
  [[nodiscard]] TrilinearPoint<V> at(real_t x) const {
    const V X = V::broadcast(x);
    V c[3][3];
    for (int d = 0; d < 3; ++d) {
      c[0][d] = c0[d];
      c[1][d] = fma(X, c1x[d], c1[d]);
      c[2][d] = fma(X, c2x[d], c2[d]);
    }
    // Row r of adj is c_{r+1} x c_{r+2}; det = c_0 . (c_1 x c_2).
    TrilinearPoint<V> tp;
    for (int r = 0; r < 3; ++r) {
      const V* p = c[(r + 1) % 3];
      const V* q = c[(r + 2) % 3];
      for (int d = 0; d < 3; ++d)
        tp.adj[r][d] = p[(d + 1) % 3] * q[(d + 2) % 3] - p[(d + 2) % 3] * q[(d + 1) % 3];
    }
    tp.det = fma(c[0][0], tp.adj[0][0], fma(c[0][1], tp.adj[0][1], c[0][2] * tp.adj[0][2]));
    return tp;
  }
};

/// The TrilinearLine of line (j, k) for a non-affine block; a placeholder for
/// an affine one, whose `geo` rows are not trilinear.
template <bool Affine, class V, int R>
auto trilinear_line([[maybe_unused]] const V (&geo)[R], [[maybe_unused]] const real_t* xi,
                    [[maybe_unused]] int j, [[maybe_unused]] int k) {
  if constexpr (Affine)
    return 0;
  else
    return TrilinearLine<V>(geo, xi[j], xi[k]);
}

/// Shared body of the on-the-fly and affine acoustic block applies. With
/// Affine == true, `geo` holds the 6 lane-constant rows C_p (6*W) and the
/// metric is w3[q] * C_p[l]; otherwise it holds the kTrilinearRows trilinear
/// rows and the metric is rebuilt per point from them and the GLL points xi.
template <int N1, bool Affine>
void acoustic_block_apply_impl(int n1_rt, int bw_rt, const real_t* __restrict D,
                               const real_t* __restrict w3, const real_t* __restrict xi,
                               const real_t* __restrict geo, const real_t* __restrict kappa,
                               const real_t* __restrict ul, real_t* __restrict out,
                               real_t* __restrict s1, real_t* __restrict s2,
                               real_t* __restrict s3) {
  const int n1 = N1 > 0 ? N1 : n1_rt;
  const int W = kBlockW<N1> > 0 ? kBlockW<N1> : bw_rt;
  LTS_DCHECK(W > 0 && W <= kMaxBlockWidth && W % 8 == 0);
  const int n2 = n1 * n1;

  using V = simd::RealVec;
  constexpr int VW = simd::kWidth;
  constexpr int kRows = Affine ? 6 : kTrilinearRows;

  // Lane-chunk outer loop: each VW-lane slice runs both stages before the
  // next slice starts, so the slice's three flux slabs stay cache-hot into
  // the weak divergence. The geometry rows (and kappa) hoist into Vec
  // registers across the whole point loop of a chunk.
  for (int l0 = 0; l0 < W; l0 += VW) {
    const V kp = V::load(kappa + l0);
    V geo_v[kRows];
    for (int p = 0; p < kRows; ++p) geo_v[p] = V::load(geo + p * W + l0);

    // Stage A: the three reference gradients of each point accumulate in Vec
    // registers (fma chains over the m contraction), then go through the
    // symmetric metric straight into the flux slabs s1-s3.
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j) {
        const real_t* __restrict fline = ul + ((k * n1 + j) * n1) * W + l0;
        const real_t* __restrict dj = D + j * n1;
        const real_t* __restrict dk = D + k * n1;
        [[maybe_unused]] const auto line = trilinear_line<Affine>(geo_v, xi, j, k);
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
            (kw * fma(geo_v[0], a, fma(geo_v[1], b, geo_v[2] * c))).store(s1 + t);
            (kw * fma(geo_v[1], a, fma(geo_v[3], b, geo_v[4] * c))).store(s2 + t);
            (kw * fma(geo_v[2], a, fma(geo_v[4], b, geo_v[5] * c))).store(s3 + t);
          } else {
            // kappa * (w/det) * adj adj^T * (a, b, c): through adj^T into the
            // physical gradient (times det), scale, back through adj.
            const TrilinearPoint<V> tp = line.at(xi[i]);
            const V s = kp * V::broadcast(w3[q]) / tp.det;
            V p[3];
            for (int d = 0; d < 3; ++d)
              p[d] = s * fma(tp.adj[0][d], a, fma(tp.adj[1][d], b, tp.adj[2][d] * c));
            real_t* const flux[3] = {s1, s2, s3};
            for (int r = 0; r < 3; ++r)
              fma(tp.adj[r][0], p[0], fma(tp.adj[r][1], p[1], tp.adj[r][2] * p[2]))
                  .store(flux[r] + t);
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

/// Shared body of the on-the-fly and affine elastic block applies. With
/// Affine == true, `geo` holds 9 lane-constant Jinv rows then the 9
/// separable wdet*Jinv constants (wdet*Jinv = w3[q] * C); otherwise it holds
/// the kTrilinearRows trilinear rows, rebuilt per point with the GLL points xi.
template <int N1, bool Affine>
void elastic_block_apply_impl(int n1_rt, int bw_rt, const real_t* __restrict D,
                              const real_t* __restrict w3, const real_t* __restrict xi,
                              const real_t* __restrict geo, const real_t* __restrict lam,
                              const real_t* __restrict mu, const real_t* const* ul,
                              real_t* const* out, real_t* const* gr) {
  const int n1 = N1 > 0 ? N1 : n1_rt;
  const int W = kBlockW<N1> > 0 ? kBlockW<N1> : bw_rt;
  LTS_DCHECK(W > 0 && W <= kMaxBlockWidth && W % 8 == 0);
  const int n2 = n1 * n1;

  using V = simd::RealVec;
  constexpr int VW = simd::kWidth;
  constexpr int kRows = Affine ? 18 : kTrilinearRows;

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
    // The geometry rows hoist into Vec registers for the whole chunk.
    V geo_v[kRows];
    for (int p = 0; p < kRows; ++p) geo_v[p] = V::load(geo + p * W + l0);

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
        [[maybe_unused]] const auto line = trilinear_line<Affine>(geo_v, xi, j, k);
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
          // ji takes the reference gradient to the physical one, wj the
          // stress to the reference flux, and (ls, ms) are the moduli in the
          // same scaling. Affine: ji = Jinv, wj = w_q * (wdet*Jinv / w_q),
          // unscaled moduli. Otherwise ji = wj = adj: the gradient comes out
          // times det, which w/det on the moduli turns into w times the
          // stress, and w * adj = wdet * Jinv.
          V ji[3][3], wj[3][3], ls, ms;
          if constexpr (Affine) {
            const V wq = V::broadcast(w3[q]);
            for (int r = 0; r < 3; ++r)
              for (int d = 0; d < 3; ++d) {
                ji[r][d] = geo_v[3 * r + d];
                wj[r][d] = geo_v[9 + 3 * r + d] * wq;
              }
            ls = lm;
            ms = m2;
          } else {
            const TrilinearPoint<V> tp = line.at(xi[i]);
            const V s = V::broadcast(w3[q]) / tp.det;
            for (int r = 0; r < 3; ++r)
              for (int d = 0; d < 3; ++d) ji[r][d] = wj[r][d] = tp.adj[r][d];
            ls = lm * s;
            ms = m2 * s;
          }
          // Physical displacement gradient H[c][d] = du_c/dx_d.
          V H[3][3];
          for (int d = 0; d < 3; ++d) {
            H[0][d] = fma(ji[0][d], g[0], fma(ji[1][d], g[1], ji[2][d] * g[2]));
            H[1][d] = fma(ji[0][d], g[3], fma(ji[1][d], g[4], ji[2][d] * g[5]));
            H[2][d] = fma(ji[0][d], g[6], fma(ji[1][d], g[7], ji[2][d] * g[8]));
          }
          const V trace = H[0][0] + H[1][1] + H[2][2];
          // Cauchy stress, sigma = lam*tr(eps)*I + 2 mu eps, eps = (H+H^T)/2.
          V S[3][3];
          for (int c = 0; c < 3; ++c)
            for (int d = 0; d < 3; ++d) S[c][d] = ms * (H[c][d] + H[d][c]);
          S[0][0] = fma(ls, trace, S[0][0]);
          S[1][1] = fma(ls, trace, S[1][1]);
          S[2][2] = fma(ls, trace, S[2][2]);
          // Reference flux F[c][r] = sum_d wj[r][d] S[c][d].
          for (int r = 0; r < 3; ++r) {
            const V w0 = wj[r][0], w1 = wj[r][1], w2 = wj[r][2];
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
// signatures (the affine variants take no GLL points).
template <int N1>
void acoustic_block_apply(int n1, int bw, const real_t* D, const real_t* w3, const real_t* xi,
                          const real_t* geo, const real_t* kappa, const real_t* ul, real_t* out,
                          real_t* s1, real_t* s2, real_t* s3) {
  acoustic_block_apply_impl<N1, false>(n1, bw, D, w3, xi, geo, kappa, ul, out, s1, s2, s3);
}

template <int N1>
void acoustic_block_apply_affine(int n1, int bw, const real_t* D, const real_t* w3,
                                 const real_t* cmat, const real_t* kappa, const real_t* ul,
                                 real_t* out, real_t* s1, real_t* s2, real_t* s3) {
  acoustic_block_apply_impl<N1, true>(n1, bw, D, w3, nullptr, cmat, kappa, ul, out, s1, s2, s3);
}

template <int N1>
void elastic_block_apply(int n1, int bw, const real_t* D, const real_t* w3, const real_t* xi,
                         const real_t* geo, const real_t* lam, const real_t* mu,
                         const real_t* const* ul, real_t* const* out, real_t* const* gr) {
  elastic_block_apply_impl<N1, false>(n1, bw, D, w3, xi, geo, lam, mu, ul, out, gr);
}

template <int N1>
void elastic_block_apply_affine(int n1, int bw, const real_t* D, const real_t* w3,
                                const real_t* cmat, const real_t* lam, const real_t* mu,
                                const real_t* const* ul, real_t* const* out, real_t* const* gr) {
  elastic_block_apply_impl<N1, true>(n1, bw, D, w3, nullptr, cmat, lam, mu, ul, out, gr);
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

#pragma once

/// \file simd.hpp
/// Fixed-width explicit SIMD layer for the block kernel engine.
///
/// `Vec<T, W>` is a W-lane value type providing exactly the operations the
/// lane-interleaved block kernels need: unaligned load/store, broadcast,
/// add/sub/mul/div, fused multiply-add, and masked (partial) load/store for
/// ragged block tails. The generic template is a plain array with per-lane
/// loops — every width is instantiable on every target (the unit tests sweep
/// W = 1/2/4/8) — and the ISA specializations below map Vec<double, W> onto
/// native registers when the compiler targets that ISA.
///
/// `kWidth` is the dispatch width the kernels compile against, selected from
/// the target ISA at compile time; `isa_name()` names the selected backend so
/// run reports can record what a binary was actually built for. The
/// `LTSWAVE_SIMD` CMake option steers this chain: `scalar` defines
/// LTSWAVE_SIMD_SCALAR (forcing kWidth = 1 and the generic template
/// everywhere), `avx2`/`avx512` add the matching -m flags so the ISA macros
/// below fire even without -march=native, and `auto` (the default) leaves the
/// choice to whatever the compiler already targets.
///
/// This is the ONLY file in src/ allowed to contain architecture #ifdefs or
/// include <immintrin.h>/<arm_neon.h> (enforced by tools/lint_ltswave.py).
///
/// Numerical contract: per-lane results are identical to the scalar
/// expression evaluated with fused multiply-add contraction — lane order is
/// fixed, so a given backend is bitwise reproducible run to run; *across*
/// backends (scalar vs vector, or different widths) results agree to the
/// usual cross-path kernel tolerance (1e-12 in the tests), not bitwise.

#include "common/types.hpp"

#if !defined(LTSWAVE_SIMD_SCALAR) && \
    (defined(__AVX512F__) || defined(__AVX2__) || defined(__SSE2__))
#include <immintrin.h>
#endif
#if !defined(LTSWAVE_SIMD_SCALAR) && defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace ltswave::simd {

// ---------------------------------------------------------------------------
// Generic fixed-width vector: plain array, per-lane loops. The compile-time
// width lets the autovectorizer unroll these fully; correctness never depends
// on it doing so.
// ---------------------------------------------------------------------------

template <typename T, int W>
struct Vec {
  static_assert(W >= 1, "vector width must be positive");
  T lane[W];

  static Vec load(const T* p) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = p[i];
    return r;
  }
  static Vec broadcast(T x) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = x;
    return r;
  }
  static Vec zero() noexcept { return broadcast(T{0}); }
  void store(T* p) const noexcept {
    for (int i = 0; i < W; ++i) p[i] = lane[i];
  }
  /// Loads lanes [0, n) from p, zero-fills the rest (ragged block tails).
  static Vec load_partial(const T* p, int n) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = i < n ? p[i] : T{0};
    return r;
  }
  /// Stores lanes [0, n) to p; lanes >= n are not written.
  void store_partial(T* p, int n) const noexcept {
    for (int i = 0; i < W; ++i)
      if (i < n) p[i] = lane[i];
  }

  friend Vec operator+(Vec a, Vec b) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  friend Vec operator-(Vec a, Vec b) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  friend Vec operator*(Vec a, Vec b) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  friend Vec operator/(Vec a, Vec b) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] / b.lane[i];
    return r;
  }
  /// a*b + c per lane. Plain expression (not a libm fma call): under the
  /// Release FP contraction rules the compiler fuses it where profitable,
  /// matching what the old autovectorized kernels generated.
  friend Vec fma(Vec a, Vec b, Vec c) noexcept {
    Vec r;
    for (int i = 0; i < W; ++i) r.lane[i] = a.lane[i] * b.lane[i] + c.lane[i];
    return r;
  }
};

// ---------------------------------------------------------------------------
// AVX-512: 8 x double on __m512d, native masked load/store.
// ---------------------------------------------------------------------------
#if !defined(LTSWAVE_SIMD_SCALAR) && defined(__AVX512F__)

template <>
struct Vec<double, 8> {
  __m512d v;

  static Vec load(const double* p) noexcept { return {_mm512_loadu_pd(p)}; }
  static Vec broadcast(double x) noexcept { return {_mm512_set1_pd(x)}; }
  static Vec zero() noexcept { return {_mm512_setzero_pd()}; }
  void store(double* p) const noexcept { _mm512_storeu_pd(p, v); }
  static Vec load_partial(const double* p, int n) noexcept {
    const __mmask8 m = static_cast<__mmask8>((1u << n) - 1u);
    return {_mm512_maskz_loadu_pd(m, p)};
  }
  void store_partial(double* p, int n) const noexcept {
    const __mmask8 m = static_cast<__mmask8>((1u << n) - 1u);
    _mm512_mask_storeu_pd(p, m, v);
  }

  friend Vec operator+(Vec a, Vec b) noexcept { return {_mm512_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) noexcept { return {_mm512_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) noexcept { return {_mm512_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) noexcept { return {_mm512_div_pd(a.v, b.v)}; }
  friend Vec fma(Vec a, Vec b, Vec c) noexcept { return {_mm512_fmadd_pd(a.v, b.v, c.v)}; }
};

#endif // __AVX512F__

// ---------------------------------------------------------------------------
// AVX2: 4 x double on __m256d; masked moves via integer lane masks.
// ---------------------------------------------------------------------------
#if !defined(LTSWAVE_SIMD_SCALAR) && defined(__AVX2__)

template <>
struct Vec<double, 4> {
  __m256d v;

  static __m256i tail_mask(int n) noexcept {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n), _mm256_setr_epi64x(0, 1, 2, 3));
  }

  static Vec load(const double* p) noexcept { return {_mm256_loadu_pd(p)}; }
  static Vec broadcast(double x) noexcept { return {_mm256_set1_pd(x)}; }
  static Vec zero() noexcept { return {_mm256_setzero_pd()}; }
  void store(double* p) const noexcept { _mm256_storeu_pd(p, v); }
  static Vec load_partial(const double* p, int n) noexcept {
    return {_mm256_maskload_pd(p, tail_mask(n))};
  }
  void store_partial(double* p, int n) const noexcept {
    _mm256_maskstore_pd(p, tail_mask(n), v);
  }

  friend Vec operator+(Vec a, Vec b) noexcept { return {_mm256_add_pd(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) noexcept { return {_mm256_sub_pd(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) noexcept { return {_mm256_mul_pd(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) noexcept { return {_mm256_div_pd(a.v, b.v)}; }
#if defined(__FMA__) || defined(__AVX512F__)
  friend Vec fma(Vec a, Vec b, Vec c) noexcept { return {_mm256_fmadd_pd(a.v, b.v, c.v)}; }
#else
  friend Vec fma(Vec a, Vec b, Vec c) noexcept { return a * b + c; }
#endif
};

#endif // __AVX2__

// ---------------------------------------------------------------------------
// NEON: 2 x double on float64x2_t (AArch64).
// ---------------------------------------------------------------------------
#if !defined(LTSWAVE_SIMD_SCALAR) && defined(__ARM_NEON) && defined(__aarch64__)

template <>
struct Vec<double, 2> {
  float64x2_t v;

  static Vec load(const double* p) noexcept { return {vld1q_f64(p)}; }
  static Vec broadcast(double x) noexcept { return {vdupq_n_f64(x)}; }
  static Vec zero() noexcept { return {vdupq_n_f64(0.0)}; }
  void store(double* p) const noexcept { vst1q_f64(p, v); }
  static Vec load_partial(const double* p, int n) noexcept {
    double tmp[2] = {n > 0 ? p[0] : 0.0, n > 1 ? p[1] : 0.0};
    return {vld1q_f64(tmp)};
  }
  void store_partial(double* p, int n) const noexcept {
    double tmp[2];
    vst1q_f64(tmp, v);
    for (int i = 0; i < 2 && i < n; ++i) p[i] = tmp[i];
  }

  friend Vec operator+(Vec a, Vec b) noexcept { return {vaddq_f64(a.v, b.v)}; }
  friend Vec operator-(Vec a, Vec b) noexcept { return {vsubq_f64(a.v, b.v)}; }
  friend Vec operator*(Vec a, Vec b) noexcept { return {vmulq_f64(a.v, b.v)}; }
  friend Vec operator/(Vec a, Vec b) noexcept { return {vdivq_f64(a.v, b.v)}; }
  friend Vec fma(Vec a, Vec b, Vec c) noexcept { return {vfmaq_f64(c.v, a.v, b.v)}; }
};

#endif // __ARM_NEON && __aarch64__

// ---------------------------------------------------------------------------
// Dispatch width + backend name. Every block width is a multiple of 8
// (kernels::block_width_for), so any kWidth in {1, 2, 4, 8} tiles a block
// exactly; the chain below picks the widest native double vector.
// ---------------------------------------------------------------------------

#if defined(LTSWAVE_SIMD_SCALAR)
inline constexpr int kWidth = 1;
constexpr const char* isa_name() noexcept { return "scalar"; }
#elif defined(__AVX512F__)
inline constexpr int kWidth = 8;
constexpr const char* isa_name() noexcept { return "avx512"; }
#elif defined(__AVX2__)
inline constexpr int kWidth = 4;
constexpr const char* isa_name() noexcept { return "avx2"; }
#elif defined(__ARM_NEON) && defined(__aarch64__)
inline constexpr int kWidth = 2;
constexpr const char* isa_name() noexcept { return "neon"; }
#elif defined(__SSE2__) || defined(__x86_64__)
// Baseline x86-64 guarantees SSE2; the generic 2-lane Vec autovectorizes to
// 128-bit ops, so report the ISA honestly even without a specialization.
inline constexpr int kWidth = 2;
constexpr const char* isa_name() noexcept { return "sse2"; }
#else
inline constexpr int kWidth = 1;
constexpr const char* isa_name() noexcept { return "scalar"; }
#endif

static_assert(kWidth == 1 || kWidth == 2 || kWidth == 4 || kWidth == 8,
              "dispatch width must divide every block width");

/// The Vec type the block kernels compile against.
using RealVec = Vec<real_t, kWidth>;

} // namespace ltswave::simd

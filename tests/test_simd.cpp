/// \file test_simd.cpp
/// Unit tests for the explicit SIMD layer (common/simd.hpp): load/store and
/// masked-tail round-trips, lanewise add/sub/mul/div exactly, and fma against
/// the scalar reference at <= 1 ulp —
/// swept over every width the dispatch chain can select (1/2/4/8), so the
/// generic template and whichever ISA specialization this binary compiled
/// with are all exercised.

#include "common/simd.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

namespace ltswave {
namespace {

/// Deterministic non-trivial lane values (no RNG needed for exactness tests).
real_t lane_value(int i) { return 0.25 + 1.625 * static_cast<real_t>(i) - 1.0 / (i + 3.0); }

template <int W>
void expect_load_store_roundtrip() {
  using V = simd::Vec<real_t, W>;
  real_t src[W], dst[W];
  for (int i = 0; i < W; ++i) src[i] = lane_value(i);
  V::load(src).store(dst);
  for (int i = 0; i < W; ++i) EXPECT_EQ(dst[i], src[i]) << "W=" << W << " lane " << i;

  real_t b[W];
  V::broadcast(3.5).store(b);
  for (int i = 0; i < W; ++i) EXPECT_EQ(b[i], 3.5);
  V::zero().store(b);
  for (int i = 0; i < W; ++i) EXPECT_EQ(b[i], 0.0);
}

template <int W>
void expect_partial_roundtrip() {
  using V = simd::Vec<real_t, W>;
  real_t src[W];
  for (int i = 0; i < W; ++i) src[i] = lane_value(i + 1);
  for (int n = 0; n <= W; ++n) {
    // load_partial: first n lanes real, rest exactly zero.
    real_t got[W];
    V::load_partial(src, n).store(got);
    for (int i = 0; i < W; ++i)
      EXPECT_EQ(got[i], i < n ? src[i] : 0.0) << "W=" << W << " n=" << n << " lane " << i;

    // store_partial: lanes >= n must not be written (the ragged-tail
    // contract — a full store would stomp a neighbouring block's rows).
    real_t dst[W];
    for (int i = 0; i < W; ++i) dst[i] = -7.0;
    V::load(src).store_partial(dst, n);
    for (int i = 0; i < W; ++i)
      EXPECT_EQ(dst[i], i < n ? src[i] : -7.0) << "W=" << W << " n=" << n << " lane " << i;
  }
}

template <int W>
void expect_arithmetic_and_fma() {
  using V = simd::Vec<real_t, W>;
  real_t a[W], b[W], c[W];
  for (int i = 0; i < W; ++i) {
    a[i] = lane_value(i) * 1.0000001;
    b[i] = 1.0 / (lane_value(i) + 2.0);
    c[i] = lane_value(W - i);
  }
  real_t add[W], sub[W], mul[W], div[W], fm[W];
  (V::load(a) + V::load(b)).store(add);
  (V::load(a) - V::load(b)).store(sub);
  (V::load(a) * V::load(b)).store(mul);
  (V::load(a) / V::load(b)).store(div);
  fma(V::load(a), V::load(b), V::load(c)).store(fm);
  for (int i = 0; i < W; ++i) {
    EXPECT_EQ(add[i], a[i] + b[i]);
    EXPECT_EQ(sub[i], a[i] - b[i]);
    EXPECT_EQ(mul[i], a[i] * b[i]);
    EXPECT_EQ(div[i], a[i] / b[i]) << "W=" << W << " lane " << i;
    // fma may be fused (one rounding) or mul+add (two roundings) depending on
    // the backend; both land within 1 ulp of the exact fused reference.
    const real_t exact = std::fma(a[i], b[i], c[i]);
    const real_t ulp = std::abs(exact) * std::numeric_limits<real_t>::epsilon();
    EXPECT_NEAR(fm[i], exact, ulp) << "W=" << W << " lane " << i;
  }
}

TEST(Simd, LoadStoreRoundtripAllWidths) {
  expect_load_store_roundtrip<1>();
  expect_load_store_roundtrip<2>();
  expect_load_store_roundtrip<4>();
  expect_load_store_roundtrip<8>();
}

TEST(Simd, MaskedTailRoundtripAllWidths) {
  expect_partial_roundtrip<1>();
  expect_partial_roundtrip<2>();
  expect_partial_roundtrip<4>();
  expect_partial_roundtrip<8>();
}

TEST(Simd, FmaMatchesScalarReferenceWithinOneUlp) {
  expect_arithmetic_and_fma<1>();
  expect_arithmetic_and_fma<2>();
  expect_arithmetic_and_fma<4>();
  expect_arithmetic_and_fma<8>();
}

TEST(Simd, DispatchWidthAndIsaNameAreConsistent) {
  // The dispatch width must tile every block width (all multiples of 8).
  EXPECT_TRUE(simd::kWidth == 1 || simd::kWidth == 2 || simd::kWidth == 4 || simd::kWidth == 8);
  const std::string isa = simd::isa_name();
  EXPECT_FALSE(isa.empty());
#if defined(LTSWAVE_SIMD_SCALAR)
  EXPECT_EQ(isa, "scalar");
  EXPECT_EQ(simd::kWidth, 1);
#endif
  // RealVec is the dispatch-width instantiation the kernels compile against.
  static_assert(sizeof(simd::RealVec) == sizeof(real_t) * simd::kWidth);
}

} // namespace
} // namespace ltswave

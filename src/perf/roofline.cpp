#include "perf/roofline.hpp"

#include "common/check.hpp"

namespace ltswave::perf {

namespace {

constexpr double kBytesPerValue = 8.0;

double npts_of(int nodes_1d) {
  const double n1 = nodes_1d;
  return n1 * n1 * n1;
}

/// Streamed values per point that scale with npts (gather + field + output
/// read/write), shared by both block forms.
double field_planes(int ncomp) {
  // l2g index + ncomp field planes + ncomp output planes read and written.
  return 1.0 + static_cast<double>(ncomp) + 2.0 * static_cast<double>(ncomp);
}

/// Lane constants per element: the trilinear corner map of a non-affine
/// block (21 coefficients), the compact metric of an affine one (6 acoustic,
/// 9 + 9 elastic).
double geometry_constants(int ncomp, bool affine) {
  if (!affine) return static_cast<double>(sem::kernels::kTrilinearRows);
  return ncomp == 1 ? 6.0 : 18.0;
}

/// Pointwise arithmetic per quadrature point, after the contractions.
/// Affine blocks apply constant metrics: acoustic 18 (three 5-op rows plus
/// the kappa scale), elastic 116 (gradient 45, trace 2, stress 24, flux 45).
/// Non-affine blocks first rebuild the geometry: the Jacobian from the
/// trilinear rows (18 FMAs per line of n1 points for the (eta, zeta) parts,
/// then 6 FMAs per point), its adjugate (9 x 3 = 27) and det (5). Then they
/// apply it: acoustic 35 (kappa * w / det 2, adj^T and the scale 18, adj 15),
/// elastic 119 (w / det and the two scaled moduli 3, plus the same 116).
double pointwise_flops(int ncomp, int nodes_1d, bool affine) {
  if (affine) return ncomp == 1 ? 18.0 : 116.0;
  const double geometry = 36.0 / nodes_1d + 12 + 27 + 5;
  return geometry + (ncomp == 1 ? 35.0 : 119.0);
}

const char* physics_name(int ncomp) {
  return ncomp == 1 ? "acoustic" : "elastic";
}

void check_args(int ncomp, int nodes_1d) {
  LTS_CHECK_MSG(ncomp == 1 || ncomp == 3, "roofline: ncomp must be 1 or 3");
  LTS_CHECK_MSG(nodes_1d >= 2, "roofline: nodes_1d must be >= 2");
}

double flops_model(int ncomp, int nodes_1d, bool affine) {
  check_args(ncomp, nodes_1d);
  const double n1 = nodes_1d;
  const double comps = ncomp;
  // Per component: three derivative contractions (2*n1-1 ops per output),
  // three transposed contractions (2*n1); then the pointwise work and one
  // accumulate per component.
  return npts_of(nodes_1d) *
         (3 * comps * (2 * n1 - 1) + 3 * comps * (2 * n1) + pointwise_flops(ncomp, nodes_1d, affine) + comps);
}

double bytes_model(int ncomp, int nodes_1d, bool affine) {
  check_args(ncomp, nodes_1d);
  return npts_of(nodes_1d) * kBytesPerValue * field_planes(ncomp) +
         geometry_constants(ncomp, affine) * kBytesPerValue;
}

} // namespace

double flops_per_elem_full(int ncomp, int nodes_1d) { return flops_model(ncomp, nodes_1d, false); }

double flops_per_elem_affine(int ncomp, int nodes_1d) { return flops_model(ncomp, nodes_1d, true); }

double bytes_per_elem_full(int ncomp, int nodes_1d) { return bytes_model(ncomp, nodes_1d, false); }

double bytes_per_elem_affine(int ncomp, int nodes_1d) { return bytes_model(ncomp, nodes_1d, true); }

namespace {

RooflineStat finish(RooflineStat s) {
  s.bytes_per_flop = s.flops_per_elem > 0 ? s.bytes_per_elem / s.flops_per_elem : 0.0;
  s.arithmetic_intensity = s.bytes_per_elem > 0 ? s.flops_per_elem / s.bytes_per_elem : 0.0;
  s.flops_total = s.flops_per_elem * static_cast<double>(s.elements);
  s.bytes_total = s.bytes_per_elem * static_cast<double>(s.elements);
  return s;
}

} // namespace

RooflineStat roofline_static(int ncomp, int order) {
  const int n1 = order + 1;
  RooflineStat s;
  s.physics = physics_name(ncomp);
  s.order = order;
  s.block_width = 0;
  s.elements = 1;
  s.flops_per_elem = flops_per_elem_full(ncomp, n1);
  s.bytes_per_elem = bytes_per_elem_full(ncomp, n1);
  return finish(s);
}

RooflineStat roofline_for_plan(const sem::BatchPlan& plan) {
  const int ncomp = plan.ncomp();
  const int n1 = plan.space().ref().nodes_1d();
  const double flops_full = flops_per_elem_full(ncomp, n1);
  const double flops_affine = flops_per_elem_affine(ncomp, n1);
  const double bytes_full = bytes_per_elem_full(ncomp, n1);
  const double bytes_affine = bytes_per_elem_affine(ncomp, n1);
  // Mixed blocks additionally stream their 0/1 column-mask slab (one plane).
  const double mask_plane = static_cast<double>(plan.npts()) * kBytesPerValue;

  std::int64_t elements = 0;
  double flops = 0, bytes = 0;
  for (index_t b = 0; b < plan.num_blocks(); ++b) {
    const auto fill = static_cast<double>(plan.block_fill(b));
    const bool affine = plan.block_affine(b);
    elements += plan.block_fill(b);
    flops += fill * (affine ? flops_affine : flops_full);
    bytes += fill * (affine ? bytes_affine : bytes_full);
    if (plan.mask(b) != nullptr) bytes += fill * mask_plane;
  }

  RooflineStat s;
  s.physics = physics_name(ncomp);
  s.order = plan.space().order();
  s.block_width = plan.width();
  s.elements = elements;
  s.flops_per_elem = elements > 0 ? flops / static_cast<double>(elements) : 0.0;
  s.bytes_per_elem = elements > 0 ? bytes / static_cast<double>(elements) : 0.0;
  return finish(s);
}

} // namespace ltswave::perf

#pragma once

/// \file roofline.hpp
/// Static roofline accounting for the batched SEM kernels: flops and
/// main-memory bytes per element as a function of (physics, order, block
/// form), and a BatchPlan-aware aggregate that charges every block by its
/// form. This is the single flop/byte model shared by the kernel
/// microbench counters, the run reports, and the BENCH_*.json emission — the
/// "roofline-style bytes/flop report" the ROADMAP asks bench-smoke to watch.
///
/// Two block forms (sem/batch_plan.hpp) carry different models: a
/// *non-affine* ("full") block rebuilds its Jacobian per quadrature point
/// from 21 trilinear lane constants, an *affine* block applies its compact
/// metric constants.
///
/// Flop model (per element, n1 = nodes per 1D direction, npts = n1^3):
///   affine:     acoustic npts * (3*(2*n1 - 1) + 3*(2*n1) + 18 + 1)
///               elastic  npts * (9*(2*n1 - 1) + 9*(2*n1) + 116 + 3)
///   non-affine: the same plus the per-point geometry — Jacobian
///               (12 + 36/n1, its (eta, zeta) parts hoisted per line),
///               adjugate (27), det (5) — and its application: pointwise
///               ops acoustic 18 -> 79 + 36/n1, elastic 116 -> 163 + 36/n1
/// i.e. the derivative contractions (2*n1-1 ops per output each), the
/// transposed contractions, the pointwise work and one accumulate per
/// component.
///
/// Byte model (per element, 8 B per streamed value — gather indices counted
/// at 8 B like everything else): the gather, field and output streams
/// scale with npts — acoustic npts*8*(1 + 1 + 2), elastic npts*8*(1 + 3 + 6)
/// (l2g, u, out read + write) — plus the geometry lane constants: 21 for a
/// non-affine block, 6 (acoustic) or 9 + 9 (elastic) for an affine one. No
/// per-point metric is streamed.
/// Caches are ignored (pure streaming model), matching the microbench's
/// bytes_per_second counter convention.

#include "perf/run_report.hpp"
#include "sem/batch_plan.hpp"

namespace ltswave::perf {

/// Arithmetic ops per element as the kernels issue them (mul and add counted
/// separately, no FMA credit), matching the microbench's flops_per_second
/// counter, for a non-affine block (geometry on the fly). `ncomp` is 1
/// (acoustic) or 3 (elastic); `nodes_1d` = order + 1.
[[nodiscard]] double flops_per_elem_full(int ncomp, int nodes_1d);

/// Arithmetic ops per element in an affine block (compact separable metric).
[[nodiscard]] double flops_per_elem_affine(int ncomp, int nodes_1d);

/// Streamed bytes per element in a non-affine block (21 trilinear lane
/// constants).
[[nodiscard]] double bytes_per_elem_full(int ncomp, int nodes_1d);

/// Streamed bytes per element in an affine block (compact separable metric).
[[nodiscard]] double bytes_per_elem_affine(int ncomp, int nodes_1d);

/// Static (physics, order) roofline point using the non-affine block model —
/// what the microbench's per-benchmark counters report. block_width 0 means
/// "not tied to a concrete plan".
[[nodiscard]] RooflineStat roofline_static(int ncomp, int order);

/// Roofline aggregate of one concrete plan: walks every block, charges each
/// the flops and bytes of its form (affine or not) plus any mask slab, counts
/// only real (unpadded) lanes, and averages per element. This is the number attached to executor
/// run reports (one full apply of all plan blocks).
[[nodiscard]] RooflineStat roofline_for_plan(const sem::BatchPlan& plan);

} // namespace ltswave::perf

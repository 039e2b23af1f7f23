// SEM kernel microbenchmarks (google-benchmark): per-element cost of the
// acoustic and elastic stiffness application by polynomial order and the
// column-masked (LTS) block apply. These measurements anchor the cluster
// simulator's machine model (see perf/calibrate.hpp).
//
// Every apply runs the element-block batched path (BatchPlan + block
// kernels) — the only stiffness apply the operators provide.
//
// Each benchmark reports:
//   elems/s        element applies per second,
//   blocks/s       batched kernel calls per second,
//   flops          arithmetic throughput (flop/s). The flop model is
//                  block-aware: it never counts a block's padded tail lanes,
//   bytes_per_elem main-memory bytes streamed per element apply (gather,
//                  metric tensors, scatter; D and the workspace stay cached),
//   ai             arithmetic intensity (flop/byte) of the kernel under the
//                  same model — the roofline x-axis.
//
// The flop/byte model is perf/roofline.hpp — the same accounting the executor
// run reports and BENCH JSON emission use, so the microbench counters and the
// solver-level roofline columns cannot drift apart. The benches take their
// bytes from perf::roofline_for_plan on the *actual* plan they run, so blocks
// the plan classified affine are charged the compact separable metric and the
// rest the trilinear rows plus the per-point geometry flops. The uniform box
// fixture is all-affine; the *Warped variants bend it so every block takes
// the on-the-fly geometry path.
//
// Every BENCH_kernels.json carries the compiled SIMD backend in its context
// ("simd_isa", "simd_width"), so numbers from different builds (avx512 /
// avx2 / scalar CI job) are attributable to their backend.
//
// Unless --benchmark_out (or the shorthand --out=<path>) is given explicitly,
// results are written as machine-readable JSON to BENCH_kernels.json so the
// perf trajectory accumulates across runs/commits. A companion
// <out>_roofline.json carries perf::RunReport records with the static and
// plan-aware roofline numbers per (physics, order, mesh).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "mesh/generators.hpp"
#include "perf/roofline.hpp"
#include "perf/run_report.hpp"
#include "runtime/threaded_lts.hpp"
#include "sem/batch_plan.hpp"
#include "sem/wave_operator.hpp"

using namespace ltswave;

namespace {

// Block-aware counters: `nelems` is always the number of *real* elements
// (padded tail lanes of a ragged block do arithmetic but are not counted);
// `nblocks` reports batched kernel calls per second.
void set_kernel_counters(benchmark::State& state, std::size_t nelems, double flops_per_elem,
                         double bytes_per_elem, std::size_t nblocks) {
  state.counters["elems/s"] = benchmark::Counter(static_cast<double>(nelems),
                                                 benchmark::Counter::kIsIterationInvariantRate);
  state.counters["flops"] = benchmark::Counter(flops_per_elem * static_cast<double>(nelems),
                                               benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes_per_elem"] = benchmark::Counter(bytes_per_elem);
  state.counters["ai"] =
      benchmark::Counter(bytes_per_elem > 0 ? flops_per_elem / bytes_per_elem : 0.0);
  state.counters["blocks/s"] = benchmark::Counter(static_cast<double>(nblocks),
                                                  benchmark::Counter::kIsIterationInvariantRate);
}

// Plan-aware counters: flops and bytes come from the
// same roofline accounting the run reports use, evaluated on the plan that
// actually executes (affine blocks are charged the compact metric form).
void set_plan_counters(benchmark::State& state, const sem::BatchPlan& plan) {
  const perf::RooflineStat rl = perf::roofline_for_plan(plan);
  set_kernel_counters(state, static_cast<std::size_t>(rl.elements), rl.flops_per_elem,
                      rl.bytes_per_elem, static_cast<std::size_t>(plan.num_blocks()));
}

struct KernelFixture {
  mesh::HexMesh m;
  std::unique_ptr<sem::SemSpace> space;
  std::vector<index_t> all;

  /// 8^3 unit box. Uniform, every element is a parallelepiped and every
  /// block takes the compact affine metric; `warped` bends the nodes so no
  /// element is affine and every block rebuilds its geometry per point.
  explicit KernelFixture(int order, bool warped = false) : m(mesh::make_uniform_box(8, 8, 8)) {
    if (warped)
      mesh::warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
        x += 0.02 * std::sin(2 * y + z);
        y += 0.015 * std::cos(3 * x);
        z += 0.015 * std::sin(x + 2 * y);
      });
    space = std::make_unique<sem::SemSpace>(m, order);
    all.resize(static_cast<std::size_t>(m.num_elems()));
    std::iota(all.begin(), all.end(), 0);
  }

  /// Uniform single-level structure: every node level 1, so a level-1 plan
  /// classifies every block homogeneous and skips masking entirely.
  [[nodiscard]] core::LtsStructure uniform_structure() const {
    core::LevelAssignment levels;
    levels.num_levels = 1;
    levels.dt = 1e-3;
    levels.elem_level.assign(static_cast<std::size_t>(m.num_elems()), 1);
    levels.level_counts.assign(1, m.num_elems());
    return core::build_lts_structure(*space, levels);
  }
};

// ---------------------------------------------------------------------------
// Full applies: block iteration over the operator's full-mesh BatchPlan, on
// the all-affine box and on the warped box (geometry on the fly)
// ---------------------------------------------------------------------------

template <class Op>
void full_apply(benchmark::State& state, bool warped) {
  KernelFixture f(static_cast<int>(state.range(0)), warped);
  Op op(*f.space);
  auto ws = op.make_workspace();
  const sem::BatchPlan& plan = op.full_plan();
  std::vector<real_t> u(
      static_cast<std::size_t>(f.space->num_global_nodes()) * static_cast<std::size_t>(op.ncomp()),
      1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_plan_counters(state, plan);
}

void BM_AcousticApply(benchmark::State& state) {
  full_apply<sem::AcousticOperator>(state, false);
}
BENCHMARK(BM_AcousticApply)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ElasticApply(benchmark::State& state) { full_apply<sem::ElasticOperator>(state, false); }
BENCHMARK(BM_ElasticApply)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AcousticApplyWarped(benchmark::State& state) {
  full_apply<sem::AcousticOperator>(state, true);
}
BENCHMARK(BM_AcousticApplyWarped)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ElasticApplyWarped(benchmark::State& state) {
  full_apply<sem::ElasticOperator>(state, true);
}
BENCHMARK(BM_ElasticApplyWarped)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Column-masked (LTS) apply
// ---------------------------------------------------------------------------

void BM_MaskedApplyBlocks(benchmark::State& state) {
  // The batched column-restricted apply: a level-1 BatchPlan group over the
  // uniform structure — every block classifies homogeneous, so this is the
  // per-block mask-free fast path and should track BM_AcousticApply.
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::AcousticOperator op(*f.space);
  auto ws = op.make_workspace();
  const auto st = f.uniform_structure();
  sem::BatchPlan::Group g;
  g.elems = f.all;
  g.level = 1;
  g.node_level = st.node_level;
  std::vector<sem::BatchPlan::Group> groups;
  groups.push_back(std::move(g));
  const sem::BatchPlan plan(*f.space, 1, std::move(groups));
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()), 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_plan_counters(state, plan);
}
BENCHMARK(BM_MaskedApplyBlocks)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_LtsCyclePerDof(benchmark::State& state) {
  // End-to-end: one LTS cycle on a 3-level strip, per-dof cost, on the
  // one-rank engine the serial-lts backend runs.
  const auto m = mesh::make_strip_mesh(32, 0.25, 4.0);
  sem::SemSpace space(m, 4);
  sem::AcousticOperator op(space);
  const auto lv = core::assign_levels(m, 0.1);
  const auto st = core::build_lts_structure(space, lv);
  const partition::Partition one_rank{
      1, std::vector<rank_t>(static_cast<std::size_t>(m.num_elems()), 0)};
  runtime::ThreadedLtsSolver solver(op, lv, st, one_rank);
  std::vector<real_t> u0(static_cast<std::size_t>(space.num_global_nodes()), 0.01);
  solver.set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  for (auto _ : state) {
    solver.run_cycles(1);
    benchmark::DoNotOptimize(solver.u().data());
  }
  state.counters["dof"] = static_cast<double>(space.num_global_nodes());
}
BENCHMARK(BM_LtsCyclePerDof)->Unit(benchmark::kMillisecond);

// Structured roofline reports for the kernel grid the benchmarks above cover:
// one perf::RunReport per (physics, order, mesh) with the plan-aware roofline
// of the same 8^3 box fixture, so BENCH JSON consumers get the flop/byte balance
// in the run-report schema, not just as per-benchmark counters.
std::vector<perf::RunReport> roofline_reports() {
  struct Point {
    const char* physics;
    int ncomp;
    int order;
    bool warped;
  };
  const Point grid[] = {{"acoustic", 1, 2, false}, {"acoustic", 1, 4, false},
                        {"acoustic", 1, 6, false}, {"elastic", 3, 2, false},
                        {"elastic", 3, 4, false},  {"acoustic", 1, 4, true},
                        {"elastic", 3, 4, true}};
  std::vector<perf::RunReport> out;
  for (const auto& p : grid) {
    KernelFixture f(p.order, p.warped);
    perf::RunReport r;
    r.executor = "microbench";
    r.scenario = std::string("kernels/") + p.physics;
    r.config = std::string("physics=") + p.physics + " order=" + std::to_string(p.order) +
               (p.warped ? " mesh=warped-box n=8" : " mesh=box n=8");
    if (p.ncomp == 1) {
      sem::AcousticOperator op(*f.space);
      r.roofline = perf::roofline_for_plan(op.full_plan());
    } else {
      sem::ElasticOperator op(*f.space);
      r.roofline = perf::roofline_for_plan(op.full_plan());
    }
    out.push_back(std::move(r));
  }
  return out;
}

// BENCH_kernels.json -> BENCH_kernels_roofline.json (insert before the
// extension; append when there is none).
std::string roofline_path_for(const std::string& out_path) {
  const std::size_t dot = out_path.rfind('.');
  const std::size_t slash = out_path.find_last_of("/\\");
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return out_path + "_roofline.json";
  return out_path.substr(0, dot) + "_roofline" + out_path.substr(dot);
}

} // namespace

int main(int argc, char** argv) {
  // Default to emitting machine-readable JSON next to the binary so perf
  // trends accumulate without the caller having to remember the flags; an
  // explicit --benchmark_out (or the shorthand --out=<path>) always wins.
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.push_back(argv[0]);
  std::string out_path = "BENCH_kernels.json";
  bool has_fmt = false;
  std::string out_flag;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
      continue; // rewritten to --benchmark_out below
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) out_path = argv[i] + 16;
    if (std::strncmp(argv[i], "--benchmark_out_format", 22) == 0) has_fmt = true;
    args.push_back(argv[i]);
  }
  out_flag = "--benchmark_out=" + out_path;
  // google-benchmark keeps the last --benchmark_out, so appending the
  // canonical spelling is safe whether or not the caller passed one.
  args.push_back(out_flag.data());
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_fmt) args.push_back(fmt_flag.data());
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  // Tag the JSON (and the console header) with the compiled SIMD backend so
  // per-backend numbers are attributable.
  benchmark::AddCustomContext("simd_isa", std::string(simd::isa_name()));
  benchmark::AddCustomContext("simd_width", std::to_string(simd::kWidth));
  std::cout << "simd: " << simd::isa_name() << " width=" << simd::kWidth << "\n";
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();

  const std::string rl_path = roofline_path_for(out_path);
  perf::write_json(roofline_reports(), rl_path);
  std::cout << "wrote roofline reports to " << rl_path << "\n";
  return 0;
}

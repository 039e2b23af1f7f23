// SEM kernel microbenchmarks (google-benchmark): per-element cost of the
// acoustic and elastic stiffness application by polynomial order, and the
// cost of the column-masked (LTS) apply relative to the full apply — both the
// legacy per-node-branch gather and the branch-free LevelMask plan. These
// measurements anchor the cluster simulator's machine model (see
// perf/calibrate.hpp).
//
// BM_AcousticApply / BM_ElasticApply measure the element-block *batched* path
// (BatchPlan + block kernels) — the production default in every solver since
// the batching refactor; the *Single variants keep the per-element kernels
// for comparison, and BM_*BatchedVsSingle reports the measured speedup
// directly (the recorded batched-vs-single delta in BENCH_kernels.json).
//
// Each benchmark reports:
//   elems/s        element applies per second,
//   blocks/s       batched kernel calls per second (block benches only),
//   flops          arithmetic throughput (flop/s). The flop model is
//                  block-aware: it counts the same per-element flops on both
//                  paths and never counts a batched block's padded tail
//                  lanes, so batched and single-element FLOP/s compare
//                  one-to-one,
//   bytes_per_elem main-memory bytes streamed per element apply (gather,
//                  metric tensors, scatter; D and the workspace stay cached),
//   ai             arithmetic intensity (flop/byte) of the kernel under the
//                  same model — the roofline x-axis.
//
// The flop/byte model is perf/roofline.hpp — the same accounting the executor
// run reports and BENCH JSON emission use, so the microbench counters and the
// solver-level roofline columns cannot drift apart. Batched benches take their
// bytes from perf::roofline_for_plan on the *actual* plan they run, so blocks
// the plan classified affine are charged the compact separable metric, not the
// full planes — the uniform box fixture is all-affine, and charging it full
// planes overstated bytes (and understated ai) by ~2x.
//
// Every BENCH_kernels.json carries the compiled SIMD backend in its context
// ("simd_isa", "simd_width"), and BM_*ColoringDelta records the conflict-free
// scatter coloring's measured effect against a Coloring::None plan of the same
// group, so batched_speedup numbers from different builds (avx512 / avx2 /
// scalar CI job) are attributable to their backend.
//
// Unless --benchmark_out (or the shorthand --out=<path>) is given explicitly,
// results are written as machine-readable JSON to BENCH_kernels.json so the
// perf trajectory accumulates across runs/commits. A companion
// <out>_roofline.json carries perf::RunReport records with the static and
// plan-aware roofline numbers per (physics, order).

#include <benchmark/benchmark.h>

#include <cstring>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/simd.hpp"
#include "common/timer.hpp"
#include "mesh/generators.hpp"
#include "perf/roofline.hpp"
#include "perf/run_report.hpp"
#include "runtime/threaded_lts.hpp"
#include "sem/batch_plan.hpp"
#include "sem/wave_operator.hpp"

using namespace ltswave;

namespace {

double acoustic_flops_per_elem(int n) { return perf::flops_per_elem(1, n); }
double elastic_flops_per_elem(int n) { return perf::flops_per_elem(3, n); }
double acoustic_bytes_per_elem(int n) { return perf::bytes_per_elem_full(1, n); }
double elastic_bytes_per_elem(int n) { return perf::bytes_per_elem_full(3, n); }

// Block-aware counters: `nelems` is always the number of *real* elements
// (padded tail lanes of a ragged block do arithmetic but are not counted), so
// flops and elems/s stay comparable between the batched and single-element
// paths. `nblocks` > 0 additionally reports batched kernel calls per second.
void set_kernel_counters(benchmark::State& state, std::size_t nelems, double flops_per_elem,
                         double bytes_per_elem, std::size_t nblocks = 0) {
  state.counters["elems/s"] = benchmark::Counter(static_cast<double>(nelems),
                                                 benchmark::Counter::kIsIterationInvariantRate);
  state.counters["flops"] = benchmark::Counter(flops_per_elem * static_cast<double>(nelems),
                                               benchmark::Counter::kIsIterationInvariantRate);
  state.counters["bytes_per_elem"] = benchmark::Counter(bytes_per_elem);
  state.counters["ai"] =
      benchmark::Counter(bytes_per_elem > 0 ? flops_per_elem / bytes_per_elem : 0.0);
  if (nblocks > 0)
    state.counters["blocks/s"] = benchmark::Counter(static_cast<double>(nblocks),
                                                    benchmark::Counter::kIsIterationInvariantRate);
}

// Plan-aware counters for the batched benches: flops and bytes come from the
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

  explicit KernelFixture(int order) : m(mesh::make_uniform_box(8, 8, 8)) {
    space = std::make_unique<sem::SemSpace>(m, order);
    all.resize(static_cast<std::size_t>(m.num_elems()));
    std::iota(all.begin(), all.end(), 0);
  }

  /// Uniform single-level structure: every node level 1. The legacy gather
  /// still tests node_level[g] per node; the LevelMask plan classifies every
  /// element homogeneous and skips masking entirely.
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
// Full applies: batched (production default) and single-element (reference)
// ---------------------------------------------------------------------------

void BM_AcousticApply(benchmark::State& state) {
  // The batched production path: block iteration over the operator's
  // full-mesh BatchPlan.
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::AcousticOperator op(*f.space);
  auto ws = op.make_workspace();
  const sem::BatchPlan& plan = op.full_plan();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()), 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_plan_counters(state, plan);
}
BENCHMARK(BM_AcousticApply)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_AcousticApplySingle(benchmark::State& state) {
  // One element per kernel call — the pre-batching path, kept as reference.
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::AcousticOperator op(*f.space);
  auto ws = op.make_workspace();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()), 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add(f.all, u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  const int n1 = f.space->ref().nodes_1d();
  set_kernel_counters(state, f.all.size(), acoustic_flops_per_elem(n1),
                      acoustic_bytes_per_elem(n1));
}
BENCHMARK(BM_AcousticApplySingle)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ElasticApply(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::ElasticOperator op(*f.space);
  auto ws = op.make_workspace();
  const sem::BatchPlan& plan = op.full_plan();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()) * 3, 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  set_plan_counters(state, plan);
}
BENCHMARK(BM_ElasticApply)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ElasticApplySingle(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::ElasticOperator op(*f.space);
  auto ws = op.make_workspace();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()) * 3, 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add(f.all, u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  const int n1 = f.space->ref().nodes_1d();
  set_kernel_counters(state, f.all.size(), elastic_flops_per_elem(n1),
                      elastic_bytes_per_elem(n1));
}
BENCHMARK(BM_ElasticApplySingle)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_AcousticBatchedVsSingle(benchmark::State& state) {
  // Measures both paths back-to-back and reports the speedup as a counter, so
  // the batched-vs-single delta lands in BENCH_kernels.json as one number.
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::AcousticOperator op(*f.space);
  auto ws = op.make_workspace();
  const sem::BatchPlan& plan = op.full_plan();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()), 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  double t_single = 0, t_batched = 0;
  for (auto _ : state) {
    {
      const WallTimer t;
      op.apply_add(f.all, u.data(), out.data(), ws);
      t_single += t.seconds();
    }
    {
      const WallTimer t;
      op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
      t_batched += t.seconds();
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["batched_speedup"] =
      benchmark::Counter(t_batched > 0 ? t_single / t_batched : 0.0);
}
BENCHMARK(BM_AcousticBatchedVsSingle)->Arg(2)->Arg(4)->Arg(6)->Unit(benchmark::kMillisecond);

void BM_ElasticBatchedVsSingle(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::ElasticOperator op(*f.space);
  auto ws = op.make_workspace();
  const sem::BatchPlan& plan = op.full_plan();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()) * 3, 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  double t_single = 0, t_batched = 0;
  for (auto _ : state) {
    {
      const WallTimer t;
      op.apply_add(f.all, u.data(), out.data(), ws);
      t_single += t.seconds();
    }
    {
      const WallTimer t;
      op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
      t_batched += t.seconds();
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["batched_speedup"] =
      benchmark::Counter(t_batched > 0 ? t_single / t_batched : 0.0);
}
BENCHMARK(BM_ElasticBatchedVsSingle)->Arg(4)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Scatter coloring on/off: same element group, Coloring::ConflictFree
// (vectorized scatter) vs Coloring::None (dense strided blocks, sequential
// scatter). coloring_speedup > 1 means the conflict-free layout wins even
// after paying its extra (ragged) blocks.
// ---------------------------------------------------------------------------

template <class Op>
void coloring_delta(benchmark::State& state, int ncomp) {
  KernelFixture f(static_cast<int>(state.range(0)));
  Op op(*f.space);
  auto ws = op.make_workspace();
  auto make_plan = [&](sem::BatchPlan::Coloring c) {
    sem::BatchPlan::Group g;
    g.elems = f.all;
    std::vector<sem::BatchPlan::Group> groups;
    groups.push_back(std::move(g));
    return sem::BatchPlan(*f.space, ncomp, std::move(groups), sem::BatchPlan::Fill::Now, c);
  };
  const sem::BatchPlan colored = make_plan(sem::BatchPlan::Coloring::ConflictFree);
  const sem::BatchPlan strided = make_plan(sem::BatchPlan::Coloring::None);
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()) *
                            static_cast<std::size_t>(ncomp),
                        1.0);
  std::vector<real_t> out(u.size(), 0.0);
  double t_colored = 0, t_strided = 0;
  for (auto _ : state) {
    {
      const WallTimer t;
      op.apply_add_blocks(strided, 0, strided.num_blocks(), u.data(), out.data(), ws);
      t_strided += t.seconds();
    }
    {
      const WallTimer t;
      op.apply_add_blocks(colored, 0, colored.num_blocks(), u.data(), out.data(), ws);
      t_colored += t.seconds();
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["coloring_speedup"] =
      benchmark::Counter(t_colored > 0 ? t_strided / t_colored : 0.0);
  state.counters["colored_blocks"] = benchmark::Counter(static_cast<double>(colored.num_blocks()));
  state.counters["strided_blocks"] = benchmark::Counter(static_cast<double>(strided.num_blocks()));
  set_plan_counters(state, colored);
}

void BM_AcousticColoringDelta(benchmark::State& state) {
  coloring_delta<sem::AcousticOperator>(state, 1);
}
BENCHMARK(BM_AcousticColoringDelta)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ElasticColoringDelta(benchmark::State& state) {
  coloring_delta<sem::ElasticOperator>(state, 3);
}
BENCHMARK(BM_ElasticColoringDelta)->Arg(4)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Column-masked (LTS) applies: legacy per-node branch vs LevelMask plan
// ---------------------------------------------------------------------------

void BM_MaskedApply(benchmark::State& state) {
  // Legacy gather: branches on node_level[g] for every node of every element.
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::AcousticOperator op(*f.space);
  auto ws = op.make_workspace();
  std::vector<level_t> node_level(static_cast<std::size_t>(f.space->num_global_nodes()), 1);
  std::vector<real_t> u(node_level.size(), 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_level(f.all, node_level.data(), 1, u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  const int n1 = f.space->ref().nodes_1d();
  set_kernel_counters(state, f.all.size(), acoustic_flops_per_elem(n1),
                      acoustic_bytes_per_elem(n1));
}
BENCHMARK(BM_MaskedApply)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_MaskedApplyPlan(benchmark::State& state) {
  // Branch-free LevelMask gather on the same workload: homogeneous elements
  // take the unmasked fast path, so this should match BM_AcousticApply.
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::AcousticOperator op(*f.space);
  auto ws = op.make_workspace();
  const auto st = f.uniform_structure();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()), 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_level(f.all, st.mask, 1, u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  const int n1 = f.space->ref().nodes_1d();
  set_kernel_counters(state, f.all.size(), acoustic_flops_per_elem(n1),
                      acoustic_bytes_per_elem(n1));
}
BENCHMARK(BM_MaskedApplyPlan)->Arg(4)->Unit(benchmark::kMillisecond);

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

void BM_ElasticMaskedApply(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::ElasticOperator op(*f.space);
  auto ws = op.make_workspace();
  std::vector<level_t> node_level(static_cast<std::size_t>(f.space->num_global_nodes()), 1);
  std::vector<real_t> u(node_level.size() * 3, 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_level(f.all, node_level.data(), 1, u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  const int n1 = f.space->ref().nodes_1d();
  set_kernel_counters(state, f.all.size(), elastic_flops_per_elem(n1),
                      elastic_bytes_per_elem(n1));
}
BENCHMARK(BM_ElasticMaskedApply)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_ElasticMaskedApplyPlan(benchmark::State& state) {
  KernelFixture f(static_cast<int>(state.range(0)));
  sem::ElasticOperator op(*f.space);
  auto ws = op.make_workspace();
  const auto st = f.uniform_structure();
  std::vector<real_t> u(static_cast<std::size_t>(f.space->num_global_nodes()) * 3, 1.0);
  std::vector<real_t> out(u.size(), 0.0);
  for (auto _ : state) {
    op.apply_add_level(f.all, st.mask, 1, u.data(), out.data(), ws);
    benchmark::DoNotOptimize(out.data());
  }
  const int n1 = f.space->ref().nodes_1d();
  set_kernel_counters(state, f.all.size(), elastic_flops_per_elem(n1),
                      elastic_bytes_per_elem(n1));
}
BENCHMARK(BM_ElasticMaskedApplyPlan)->Arg(4)->Unit(benchmark::kMillisecond);

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
// one perf::RunReport per (physics, order) with the plan-aware roofline of
// the same 8^3 box fixture, so BENCH JSON consumers get the flop/byte balance
// in the run-report schema, not just as per-benchmark counters.
std::vector<perf::RunReport> roofline_reports() {
  struct Point {
    const char* physics;
    int ncomp;
    int order;
  };
  const Point grid[] = {{"acoustic", 1, 2}, {"acoustic", 1, 4}, {"acoustic", 1, 6},
                        {"elastic", 3, 2},  {"elastic", 3, 4}};
  std::vector<perf::RunReport> out;
  for (const auto& p : grid) {
    KernelFixture f(p.order);
    perf::RunReport r;
    r.executor = "microbench";
    r.scenario = std::string("kernels/") + p.physics;
    r.config = std::string("physics=") + p.physics + " order=" + std::to_string(p.order) +
               " mesh=box n=8";
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
  // per-backend batched_speedup / coloring_speedup numbers are attributable.
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

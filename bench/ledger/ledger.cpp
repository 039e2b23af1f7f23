// bench_ledger: runs one perf-ledger workload and prints its metrics as a
// single JSON object on stdout (progress goes to stderr).
//
//   bench_ledger workload=<name> seed=<n> [seconds=<s>] [trace=0|1] [quick=0|1]
//                [out=<dir>] [fault.kind=... fault.cycle=... fault.rank=...
//                fault.stall-ms=...]
//
// Every layer is measured from outside the library, by timing calls to its
// public functions (ScenarioSpec::make_simulation, WaveSimulation::run with an
// on_step callback, checkpoint/restore, resilience::save/load,
// WaveOperator::apply_add_blocks, partition::partition_mesh,
// ExecutorFactory::create) and by reading WaveSimulation::run_report().
//
// A run is a sequence of repetitions; each builds a fresh simulation from the
// seeded spec, takes three energy snapshots, runs the timed window, and then
// checks the result outside the window (the correctness gate). trace=0
// reports the end-to-end metrics; trace=1 repeats the repetitions with spans
// recorded, rebuilds the setup piece by piece, times the block kernel and a
// STREAM triad, and reports the per-layer metrics plus a Chrome trace file.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/kv.hpp"
#include "core/executor.hpp"
#include "core/lts_levels.hpp"
#include "core/simulation.hpp"
#include "partition/partition.hpp"
#include "perf/roofline.hpp"
#include "resilience/checkpoint.hpp"
#include "scenarios/scenario.hpp"

using namespace ltswave;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One benchmark workload: a registered scenario at bench resolution on one
/// executor. The seed only moves the initial bump and the receivers inside
/// `lo`..`hi`, so the work per cycle is fixed and the energy gate stays exact
/// (no sources: the bump carries all the energy).
struct Workload {
  const char* name;
  const char* scenario;
  core::Physics physics;
  int order;
  real_t courant;
  index_t n, nz;
  const char* executor;
  rank_t ranks;
  int cycles;     ///< coarse LTS cycles per repetition (newmark: the same span)
  int ckpt_every; ///< checkpoint + save every this many cycles; 0 = never
  std::array<real_t, 3> lo, hi;
};

using core::Physics;

// Why each workload is here: see bench/ledger/README.md.
const Workload kWorkloads[] = {
    {"trench-lts", "trench", Physics::Elastic, 4, 0.08, 20, 12, "serial-lts", 0, 48, 0,
     {0.3, 0.3, 0.2}, {0.7, 0.7, 0.45}},
    {"trench-newmark", "trench", Physics::Elastic, 4, 0.08, 20, 12, "newmark", 0, 48, 0,
     {0.3, 0.3, 0.2}, {0.7, 0.7, 0.45}},
    {"embedding-steal", "embedding-paper", Physics::Acoustic, 4, 0.05, 20, 0,
     "threaded/level-aware+steal", 3, 60, 0, {0.3, 0.3, 0.3}, {0.7, 0.7, 0.7}},
    {"layered-ckpt", "layered", Physics::Elastic, 4, 0.08, 20, 14, "threaded/level-aware", 3, 48,
     16, {0.3, 0.3, 0.5}, {0.7, 0.7, 0.85}},
};

constexpr int kReps = 5;     ///< minimum repetitions per run
constexpr int kMaxReps = 40; ///< cap when filling `seconds`
constexpr int kQuickCycles = 8;
constexpr double kMaxEnergyDrift = 1e-2;
constexpr double kTriadLlcMultiple = 4; ///< triad working set / last-level cache

/// splitmix64: a portable generator, so one seed gives one spec everywhere.
struct SeedRng {
  std::uint64_t state;
  double uniform(double a, double b) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return a + (b - a) * static_cast<double>(z >> 11) * 0x1.0p-53;
  }
};

scenarios::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed, int cycles) {
  auto spec = scenarios::get(w.scenario);
  spec.physics = w.physics;
  spec.order = w.order;
  spec.courant = w.courant;
  spec.with_mesh_resolution(w.n, w.nz > 0 ? w.nz : spec.mesh.nz);
  spec.executor = w.executor;
  spec.num_ranks = w.ranks;
  spec.scheduler.oversubscribe = runtime::Oversubscribe::Warn;
  spec.duration_cycles = cycles;
  spec.sources.clear();
  spec.receivers.clear();
  spec.initial.clear();

  SeedRng rng{seed};
  const int comp = w.physics == Physics::Elastic ? 2 : 0;
  scenarios::InitialBump bump;
  for (std::size_t d = 0; d < 3; ++d) bump.center[d] = rng.uniform(w.lo[d], w.hi[d]);
  bump.width = rng.uniform(30.0, 60.0);
  bump.component = comp;
  spec.initial.push_back(bump);
  for (int r = 0; r < 3; ++r) {
    scenarios::ReceiverSpec rec;
    for (std::size_t d = 0; d < 3; ++d) rec.location[d] = rng.uniform(w.lo[d], w.hi[d]);
    rec.component = comp;
    spec.receivers.push_back(rec);
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Timing, statistics, tracing
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
const Clock::time_point kOrigin = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - kOrigin).count(); }

/// Linear-interpolation quantile (numpy's default), q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// All digits; non-finite values become null, which the runner rejects.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// In-memory span recorder; written once, at the end, as Chrome trace-event
/// JSON (name, start, duration, parent). Disabled tracers record nothing.
class Tracer {
public:
  explicit Tracer(bool on) : on_(on) {}

  int begin(const std::string& name) {
    if (!on_) return -1;
    spans_.push_back({name, now_s(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].dur = now_s() - spans_[static_cast<std::size_t>(id)].t0;
    stack_.pop_back();
  }
  /// A finished child span of the innermost open span.
  void add(const std::string& name, double t0, double t1) {
    if (on_) spans_.push_back({name, t0, t1 - t0, stack_.empty() ? -1 : stack_.back()});
  }

  void write(const std::string& path) const {
    std::ofstream f(path);
    f << std::fixed << std::setprecision(3) << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      f << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << s.t0 * 1e6 << ",\"dur\":" << s.dur * 1e6 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"parent_name\":\""
        << (s.parent < 0 ? "" : spans_[static_cast<std::size_t>(s.parent)].name) << "\"}}";
    }
    f << "\n]}\n";
    LTS_CHECK_MSG(f.good(), "cannot write trace file '" << path << "'");
  }

private:
  struct Span {
    std::string name;
    double t0, dur;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Scope {
public:
  Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer& t_;
  int id_;
};

/// Times `fn` inside a span of the same name; returns seconds.
template <typename Fn>
double timed(Tracer& tr, const std::string& name, Fn&& fn) {
  const Scope s(tr, name);
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

// ---------------------------------------------------------------------------
// Correctness gate helpers
// ---------------------------------------------------------------------------

/// <a, M b> over interleaved components with the diagonal SEM mass.
double mass_inner(const sem::SemSpace& space, int ncomp, const std::vector<real_t>& a,
                  const std::vector<real_t>& b) {
  const auto& mass = space.mass();
  double e = 0;
  for (std::size_t g = 0; g < mass.size(); ++g) {
    double s = 0;
    for (std::size_t c = 0; c < static_cast<std::size_t>(ncomp); ++c) {
      const std::size_t i = g * static_cast<std::size_t>(ncomp) + c;
      s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    }
    e += static_cast<double>(mass[g]) * s;
  }
  return e;
}

/// Staggered energy of the one-cycle map from three consecutive boundary
/// snapshots, using only the mass matrix (the invariant of
/// tests/test_integrator.cpp): kinetic from (u1 - u0)/dt, potential
/// (1/2)<u1, M (2u0 - um1 - u1)>/dt^2.
double cycle_energy(const core::WaveSimulation& sim, const std::vector<real_t>& um1,
                    const std::vector<real_t>& u0, const std::vector<real_t>& up1) {
  const double dt = static_cast<double>(sim.dt());
  std::vector<real_t> v(u0.size()), ku(u0.size());
  for (std::size_t i = 0; i < u0.size(); ++i) {
    v[i] = static_cast<real_t>((static_cast<double>(up1[i]) - static_cast<double>(u0[i])) / dt);
    ku[i] = static_cast<real_t>(2 * static_cast<double>(u0[i]) - static_cast<double>(um1[i]) -
                                static_cast<double>(up1[i]));
  }
  return 0.5 * mass_inner(sim.space(), sim.ncomp(), v, v) +
         0.5 * mass_inner(sim.space(), sim.ncomp(), up1, ku) / (dt * dt);
}

/// Energy at the current cycle: advances two single cycles (outside any
/// timed window) and evaluates the three-snapshot invariant.
double energy_now(core::WaveSimulation& sim) {
  std::vector<std::vector<real_t>> s{sim.u()};
  for (int i = 0; i < 2; ++i) {
    sim.run(sim.dt());
    s.push_back(sim.u());
  }
  return cycle_energy(sim, s[0], s[1], s[2]);
}

bool finite_and_normal(std::span<const real_t> x) {
  return std::all_of(x.begin(), x.end(), [](real_t v) {
    const int c = std::fpclassify(v);
    return c == FP_NORMAL || c == FP_ZERO;
  });
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

struct PhaseTotals {
  double eval = 0, reduce = 0, update = 0, barrier = 0, receivers = 0, total = 0;
};

PhaseTotals phase_delta(const perf::RunReport& a, const perf::RunReport& b) {
  PhaseTotals t;
  for (const auto& p : b.phases) {
    const double s = p.seconds - a.phase_seconds(p.name);
    t.total += s;
    if (p.name.rfind("eval.L", 0) == 0) t.eval += s;
    else if (p.name == "reduce") t.reduce += s;
    else if (p.name == "update") t.update += s;
    else if (p.name == "barrier") t.barrier += s;
    else if (p.name == "receivers") t.receivers += s;
  }
  return t;
}

/// Per-rank counter growth between two run reports.
template <typename T>
std::vector<T> delta(const std::vector<T>& a, const std::vector<T>& b) {
  std::vector<T> d(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) d[i] = b[i] - (i < a.size() ? a[i] : T{});
  return d;
}

struct Rep {
  bool ok = true;
  std::string why; ///< every failed check, "; "-separated

  void fail(const std::string& reason) {
    ok = false;
    why += (why.empty() ? "" : "; ") + reason;
  }
  double setup_s = 0, run_s = 0, sim_span = 0, drift = 0, eq9 = 1;
  std::vector<double> cycle_ms;
  // Per-layer observations (trace runs).
  PhaseTotals phases;
  std::int64_t applies = 0, cycles = 0;
  std::vector<double> busy, stall;
  std::int64_t steals = 0;
  std::vector<double> ckpt_snapshot_s, ckpt_save_s;
  double ckpt_load_s = 0, ckpt_restore_s = 0, ckpt_bytes = 0, gather_ms = 0;
};

Rep run_rep(const Workload& w, const scenarios::ScenarioSpec& spec, Tracer& tr,
            const std::string& out_dir) {
  Rep r;
  const Scope rep_scope(tr, "rep");
  std::unique_ptr<core::WaveSimulation> sim;
  r.setup_s = timed(tr, "setup", [&] { sim = spec.make_simulation(); });
  r.eq9 = sim->theoretical_speedup();

  const double e0 = [&] {
    const Scope s(tr, "gate.energy_start");
    return energy_now(*sim);
  }();
  const real_t span = scenarios::run_duration(spec, *sim);
  const perf::RunReport before = sim->run_report();
  const real_t t_start = sim->time();
  // The checkpoint stride scales with the window (quick runs are shorter).
  const int every =
      w.ckpt_every > 0
          ? std::max(1, w.ckpt_every * static_cast<int>(spec.duration_cycles) / w.cycles)
          : 0;
  std::vector<std::pair<std::int64_t, std::string>> saved; // (cycle, path)

  double last = 0;
  const auto on_step = [&](real_t) {
    const double t = now_s();
    r.cycle_ms.push_back((t - last) * 1e3);
    tr.add("cycle", last, t);
    last = t;
    if (every > 0 && r.cycle_ms.size() % static_cast<std::size_t>(every) == 0) {
      resilience::Checkpoint ck;
      r.ckpt_snapshot_s.push_back(timed(tr, "ckpt.snapshot", [&] { ck = sim->checkpoint(); }));
      const std::string path =
          out_dir + "/ckpt_" + w.name + "_" + std::to_string(sim->cycles()) + ".bin";
      r.ckpt_save_s.push_back(timed(tr, "ckpt.save", [&] { resilience::save(ck, path); }));
      saved.emplace_back(sim->cycles(), path);
    }
  };
  {
    const Scope s(tr, "run");
    const double t0 = now_s();
    last = t0;
    sim->run(span, on_step);
    r.run_s = now_s() - t0;
  }
  r.sim_span = static_cast<double>(sim->time() - t_start);
  const perf::RunReport after = sim->run_report();

  const Scope gate(tr, "gate");
  const std::vector<real_t> u_end = sim->u();
  if (!finite_and_normal(u_end) || !finite_and_normal(sim->executor().v_half()))
    r.fail("non-finite or subnormal state");
  if (saved.size() >= 2) {
    // Rewind to the last checkpoint before the end and replay: the restored
    // run must reproduce the uninterrupted state bit for bit.
    const std::int64_t end_cycle = sim->cycles();
    const auto& [cycle, path] = saved[saved.size() - 2];
    resilience::Checkpoint ck;
    r.ckpt_load_s = timed(tr, "ckpt.load", [&] { ck = resilience::load(path); });
    r.ckpt_bytes = static_cast<double>(std::filesystem::file_size(path));
    r.ckpt_restore_s = timed(tr, "ckpt.restore", [&] { sim->restore(ck); });
    sim->run(static_cast<real_t>(end_cycle - cycle) * sim->dt());
    if (sim->u() != u_end) r.fail("checkpoint restore did not reproduce u() bitwise");
  }
  for (const auto& s : saved) std::filesystem::remove(s.second);

  const double e1 = energy_now(*sim);
  r.drift = std::abs(e1 - e0) / std::abs(e0);
  if (!(e0 > 0) || !(r.drift <= kMaxEnergyDrift))
    r.fail("energy drift " + num(r.drift) + " (start energy " + num(e0) + ") exceeds " +
           num(kMaxEnergyDrift));

  r.phases = phase_delta(before, after);
  r.applies = after.element_applies - before.element_applies;
  r.cycles = after.cycles - before.cycles;
  r.busy = delta(before.rank_busy_seconds, after.rank_busy_seconds);
  r.stall = delta(before.rank_stall_seconds, after.rank_stall_seconds);
  const auto steals = delta(before.rank_steal_counts, after.rank_steal_counts);
  r.steals = std::accumulate(steals.begin(), steals.end(), std::int64_t{0});

  // The state gather a caller pays after each advance (a copy on threaded
  // backends, free on serial ones whose state already is one vector).
  sim->executor().advance_cycles(1);
  const double g0 = now_s();
  (void)sim->u();
  r.gather_ms = (now_s() - g0) * 1e3;
  return r;
}

// ---------------------------------------------------------------------------
// Per-layer probes (trace runs only)
// ---------------------------------------------------------------------------

struct SetupPieces {
  std::map<std::string, double> s; // metric name -> seconds
  double kernel_s = 0;             ///< one full-plan block apply, 1 thread
  perf::RooflineStat roofline;
  double eq9 = 1, halo = 1, applies_per_cycle = 0;
  double level_imbalance = 0, edge_cut = 0;
};

/// Rebuilds the simulation stack piece by piece, mirroring the WaveSimulation
/// constructor, timing each public call; `u0` is the initial state
/// make_simulation built (its v0 is zero). Optionally times the block kernel
/// over the operator's full plan.
SetupPieces setup_pieces(const scenarios::ScenarioSpec& spec, const std::vector<real_t>& u0,
                         Tracer& tr, bool kernel) {
  SetupPieces p;
  const Scope scope(tr, "setup.pieces");
  const core::SimulationConfig cfg = spec.config();
  auto& factory = core::ExecutorFactory::instance();
  mesh::HexMesh m;
  p.s["mesh.build_s"] = timed(tr, "mesh.build", [&] { m = spec.build_mesh(); });
  std::unique_ptr<sem::SemSpace> space;
  p.s["sem.space_s"] =
      timed(tr, "sem.space", [&] { space = std::make_unique<sem::SemSpace>(m, cfg.order); });
  std::unique_ptr<sem::WaveOperator> op;
  p.s["sem.operator_s"] = timed(tr, "sem.operator", [&] {
    if (cfg.physics == Physics::Acoustic)
      op = std::make_unique<sem::AcousticOperator>(*space);
    else
      op = std::make_unique<sem::ElasticOperator>(*space);
  });
  core::LevelAssignment levels;
  core::LtsStructure structure;
  p.s["core.levels_s"] = timed(tr, "core.levels", [&] {
    levels = factory.uses_lts_levels(cfg.executor)
                 ? core::assign_levels(m, cfg.courant, cfg.max_levels)
                 : core::assign_single_level(m, cfg.courant);
    structure = core::build_lts_structure(*space, levels);
  });
  p.s["partition.s"] = 0;
  if (cfg.num_ranks > 1) {
    partition::PartitionerConfig pc;
    pc.strategy = cfg.partitioner;
    pc.num_parts = cfg.num_ranks;
    partition::Partition part;
    p.s["partition.s"] = timed(tr, "partition", [&] {
      part = partition::partition_mesh(m, levels.elem_level, levels.num_levels, pc);
    });
    const auto pm = partition::compute_metrics(m, levels.elem_level, levels.num_levels, part);
    p.level_imbalance = pm.max_level_imbalance_pct;
    p.edge_cut = static_cast<double>(pm.edge_cut);
  }
  core::ExecutorContext ctx;
  ctx.op = op.get();
  ctx.levels = &levels;
  ctx.structure = &structure;
  ctx.mesh = &m;
  ctx.space = space.get();
  ctx.cfg = &cfg;
  std::unique_ptr<core::Executor> exec;
  // Threaded backends partition inside create(); partition.s timed the same
  // public call above, so it is taken out here to keep the pieces disjoint.
  p.s["core.executor_s"] = std::max(
      0.0, timed(tr, "core.executor", [&] { exec = factory.create(cfg.executor, ctx); }) -
               p.s["partition.s"]);

  const std::vector<real_t> v0(u0.size(), 0.0);
  p.s["core.set_state_s"] = timed(tr, "core.set_state", [&] { exec->set_state(u0, v0); });

  p.eq9 = core::theoretical_speedup(levels);
  p.applies_per_cycle = static_cast<double>(structure.applies_per_cycle());
  p.halo = p.applies_per_cycle / static_cast<double>(core::model_applies_per_cycle(levels));

  if (kernel) {
    const Scope ks(tr, "kernel");
    const sem::BatchPlan& plan = op->full_plan();
    p.roofline = perf::roofline_for_plan(plan);
    auto ws = op->make_workspace();
    std::vector<real_t> out(u0.size(), 0.0);
    const auto pass = [&] {
      op->apply_add_blocks(plan, 0, plan.num_blocks(), u0.data(), out.data(), ws);
    };
    pass(); // warm caches and pages
    std::vector<double> passes;
    double total = 0;
    while (passes.size() < 5 || (total < 0.5 && passes.size() < 200)) {
      passes.push_back(timed(tr, "kernel.apply", pass));
      total += passes.back();
    }
    p.kernel_s = median(passes);
  }
  return p;
}

/// Last-level cache size in bytes (glibc reads it from CPUID; same figure as
/// /sys/devices/system/cpu/cpu0/cache/index3/size).
double llc_bytes() {
  for (const int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<double>(v);
  }
  return 32.0 * 1024 * 1024;
}

/// Single-thread STREAM triad a = b + s*c over arrays whose total is at least
/// four times the LLC; best rate of several passes (STREAM's convention),
/// counting 3 * 8 bytes per element.
double triad_gbs(Tracer& tr, double working_set_bytes) {
  const Scope s(tr, "mem.triad");
  const auto n = static_cast<std::size_t>(std::ceil(working_set_bytes / 24.0));
  const std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = 0;
    b[i] = 1.0 + static_cast<double>(i % 7);
    c[i] = 2.0;
  }
  double best = 0;
  for (int pass = 0; pass < 5; ++pass) {
    const double t = timed(tr, "mem.triad_pass", [&] {
      const double scale = 3.0 + pass;
      for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scale * c[i];
    });
    best = std::max(best, 24.0 * static_cast<double>(n) / t / 1e9);
  }
  LTS_CHECK_MSG(a[n / 2] == b[n / 2] + 7.0 * c[n / 2], "triad result check failed");
  return best;
}

/// Simulated seconds per wall second of a plain `cycles`-cycle run of `spec`
/// on serial-lts (no fault, no checkpoints): the reference of
/// rank.speedup_vs_serial.
double serial_rate(scenarios::ScenarioSpec spec, int cycles, Tracer& tr) {
  const Scope s(tr, "serial_reference");
  spec.executor = "serial-lts";
  spec.num_ranks = 0;
  spec.fault = {};
  spec.duration_cycles = cycles;
  auto sim = spec.make_simulation();
  const real_t span = scenarios::run_duration(spec, *sim);
  sim->run(sim->dt()); // warm-up cycle
  const real_t t0 = sim->time();
  const double w0 = now_s();
  sim->run(span);
  return static_cast<double>(sim->time() - t0) / (now_s() - w0);
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Args {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false, quick = false;
  std::string out = ".";
  std::vector<std::pair<std::string, std::string>> overrides;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i)
    for (const auto& [key, value] : kv::split(argv[i])) {
      if (key == "workload") {
        for (const auto& w : kWorkloads)
          if (value == w.name) a.w = &w;
        LTS_CHECK_MSG(a.w, "unknown workload '"
                               << value
                               << "' (want trench-lts | trench-newmark | embedding-steal | "
                                  "layered-ckpt)");
      } else if (key == "seed") {
        a.seed = static_cast<std::uint64_t>(kv::parse_int(key, value));
      } else if (key == "seconds") {
        a.seconds = kv::parse_real(key, value);
      } else if (key == "trace") {
        a.trace = kv::parse_bool(key, value);
      } else if (key == "quick") {
        a.quick = kv::parse_bool(key, value);
      } else if (key == "out") {
        a.out = value;
      } else if (key.rfind("fault.", 0) == 0) {
        a.overrides.emplace_back(key, value);
      } else {
        LTS_CHECK_MSG(false, "unknown argument '" << key
                                                  << "' (want workload | seed | seconds | trace | "
                                                     "quick | out | fault.*)");
      }
    }
  LTS_CHECK_MSG(a.w, "missing workload=<name>");
  return a;
}

/// Runs repetitions until at least `min_reps` are done and their timed
/// windows add up to `seconds` (capped at kMaxReps).
std::vector<Rep> run_reps(const Workload& w, const scenarios::ScenarioSpec& spec, Tracer& tr,
                          int min_reps, double seconds, const std::string& out_dir) {
  std::vector<Rep> reps;
  double measured = 0;
  while (static_cast<int>(reps.size()) < min_reps ||
         (measured < seconds && static_cast<int>(reps.size()) < kMaxReps)) {
    try {
      reps.push_back(run_rep(w, spec, tr, out_dir));
    } catch (const std::exception& e) {
      reps.emplace_back().fail(e.what());
    }
    measured += reps.back().run_s;
    std::cerr << "[ledger] " << w.name << " rep " << reps.size() << ": "
              << (reps.back().ok ? "ok" : "FAILED (" + reps.back().why + ")") << ", run "
              << reps.back().run_s << " s, drift " << reps.back().drift << "\n";
  }
  return reps;
}

template <typename Fn>
double med(const std::vector<Rep>& reps, Fn&& fn) {
  std::vector<double> v;
  for (const auto& r : reps)
    if (r.run_s > 0) v.push_back(fn(r));
  return median(v);
}

} // namespace

int main(int argc, char** argv) try {
  const Args a = parse_args(argc, argv);
  const Workload& w = *a.w;
  const int cycles = a.quick ? kQuickCycles : w.cycles;
  auto spec = make_spec(w, a.seed, cycles);
  for (const auto& [key, value] : a.overrides) spec.apply_override(key, value);
  const int min_reps = a.quick ? 1 : kReps;
  // Trace runs split the budget between the untraced and the traced half.
  const double budget = a.quick ? 0.0 : a.trace ? a.seconds / 2 : a.seconds;
  std::filesystem::create_directories(a.out);

  Tracer off(false);
  std::vector<Rep> reps = run_reps(w, spec, off, min_reps, budget, a.out);
  std::vector<Rep> traced;
  const auto rate = [](const Rep& r) { return r.sim_span / r.run_s; };
  const double untraced_rate = med(reps, rate);

  std::vector<Metric> metrics;
  int attempted = static_cast<int>(reps.size());
  int failed = 0;
  for (const auto& r : reps) failed += r.ok ? 0 : 1;

  if (!a.trace) {
    std::vector<double> cyc;
    for (const auto& r : reps) cyc.insert(cyc.end(), r.cycle_ms.begin(), r.cycle_ms.end());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {{"sim_rate", untraced_rate, "s/s"},
               {"cycle_ms_p50", quantile(cyc, 0.5), "ms"},
               {"cycle_ms_p90", quantile(cyc, 0.9), "ms"},
               {"setup_s", med(reps, [](const Rep& r) { return r.setup_s; }), "s"},
               {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"}};
  } else {
    Tracer tr(true);
    traced = run_reps(w, spec, tr, min_reps, budget, a.out);
    attempted += static_cast<int>(traced.size());
    for (const auto& r : traced) failed += r.ok ? 0 : 1;

    const std::vector<real_t> u0 = spec.make_simulation()->u();
    std::vector<SetupPieces> pieces;
    for (int i = 0; i < (a.quick ? 1 : 3); ++i)
      pieces.push_back(setup_pieces(spec, u0, tr, i == 0));
    const SetupPieces& p0 = pieces.front();
    const auto piece = [&](const std::string& key) {
      std::vector<double> v;
      for (const auto& p : pieces) v.push_back(p.s.at(key));
      return median(v);
    };
    // What make_simulation does beyond the pieces (receivers, the initial
    // bump): the rest of the untraced setup_s median.
    double pieces_s = 0;
    for (const auto& [key, s] : p0.s) pieces_s += piece(key);
    const double other_s =
        std::max(0.0, med(reps, [](const Rep& r) { return r.setup_s; }) - pieces_s);

    const double triad = triad_gbs(tr, kTriadLlcMultiple * llc_bytes());
    const double speedup =
        w.ranks > 1 ? untraced_rate / serial_rate(spec, std::max(4, cycles / 3), tr) : 1.0;
    const double traced_rate = med(traced, rate);

    // Phase seconds are summed over ranks, so shares divide by wall x ranks.
    const auto ranks = [](const Rep& r) {
      return std::max(1.0, static_cast<double>(r.busy.size()));
    };
    const auto frac = [&](double PhaseTotals::*f) {
      return med(traced, [&](const Rep& r) { return r.phases.*f / (r.run_s * ranks(r)); });
    };
    const double kernel_us = p0.kernel_s / static_cast<double>(p0.roofline.elements) * 1e6;
    const double eval_us = med(traced, [](const Rep& r) {
      return r.phases.eval / static_cast<double>(r.applies) * 1e6;
    });
    const double kernel_gbs = p0.roofline.bytes_total / p0.kernel_s / 1e9;
    const auto ckpt_med = [&](std::vector<double> Rep::*field) {
      std::vector<double> v;
      for (const auto& r : traced) v.insert(v.end(), (r.*field).begin(), (r.*field).end());
      return median(v);
    };

    metrics = {
        {"mesh.build_s", piece("mesh.build_s"), "s"},
        {"sem.space_s", piece("sem.space_s"), "s"},
        {"sem.operator_s", piece("sem.operator_s"), "s"},
        {"core.levels_s", piece("core.levels_s"), "s"},
        {"partition.s", piece("partition.s"), "s"},
        {"core.executor_s", piece("core.executor_s"), "s"},
        {"core.set_state_s", piece("core.set_state_s"), "s"},
        {"setup.other_s", other_s, "s"},
        {"kernel.elems_per_s", static_cast<double>(p0.roofline.elements) / p0.kernel_s, "1/s"},
        {"kernel.gflops", p0.roofline.flops_total / p0.kernel_s / 1e9, "GFLOP/s"},
        {"kernel.gbs", kernel_gbs, "GB/s"},
        {"kernel.ai", p0.roofline.arithmetic_intensity, "FLOP/B"},
        {"kernel.bytes_per_elem", p0.roofline.bytes_per_elem, "B"},
        {"kernel.bw_frac", kernel_gbs / triad, "ratio"},
        {"mem.triad_gbs", triad, "GB/s"},
        {"eval.us_per_elem", eval_us, "us"},
        {"eval.overhead", eval_us / kernel_us, "ratio"},
        {"cycle.eval_frac", frac(&PhaseTotals::eval), "ratio"},
        {"cycle.reduce_frac", frac(&PhaseTotals::reduce), "ratio"},
        {"cycle.update_frac", frac(&PhaseTotals::update), "ratio"},
        {"cycle.barrier_frac", frac(&PhaseTotals::barrier), "ratio"},
        {"cycle.receivers_frac", frac(&PhaseTotals::receivers), "ratio"},
        {"cycle.coverage", frac(&PhaseTotals::total), "ratio"},
        {"cycle.unaccounted_ms",
         med(traced,
             [&](const Rep& r) {
               return (r.run_s * ranks(r) - r.phases.total) / ranks(r) /
                      static_cast<double>(r.cycles) * 1e3;
             }),
         "ms"},
        {"lts.eq9", p0.eq9, "ratio"},
        {"lts.halo_overhead", p0.halo, "ratio"},
        {"lts.applies_per_cycle", p0.applies_per_cycle, "count"},
        {"rank.max_stall_frac",
         med(traced,
             [](const Rep& r) {
               return r.stall.empty() ? 0.0
                                      : *std::max_element(r.stall.begin(), r.stall.end()) / r.run_s;
             }),
         "ratio"},
        {"rank.busy_imbalance",
         med(traced,
             [](const Rep& r) {
               if (r.busy.empty()) return 0.0;
               const double mean = std::accumulate(r.busy.begin(), r.busy.end(), 0.0) /
                                   static_cast<double>(r.busy.size());
               return *std::max_element(r.busy.begin(), r.busy.end()) / mean - 1;
             }),
         "ratio"},
        {"rank.steals_per_cycle",
         med(traced,
             [](const Rep& r) {
               return static_cast<double>(r.steals) / static_cast<double>(r.cycles);
             }),
         "count"},
        {"rank.speedup_vs_serial", speedup, "ratio"},
        {"partition.level_imbalance_max", p0.level_imbalance, "%"},
        {"partition.edge_cut", p0.edge_cut, "count"},
        {"ckpt.snapshot_s", ckpt_med(&Rep::ckpt_snapshot_s), "s"},
        {"ckpt.save_s", ckpt_med(&Rep::ckpt_save_s), "s"},
        {"ckpt.load_s", med(traced, [](const Rep& r) { return r.ckpt_load_s; }), "s"},
        {"ckpt.restore_s", med(traced, [](const Rep& r) { return r.ckpt_restore_s; }), "s"},
        {"ckpt.bytes", med(traced, [](const Rep& r) { return r.ckpt_bytes; }), "B"},
        {"ckpt.frac",
         med(traced,
             [](const Rep& r) {
               return (std::accumulate(r.ckpt_snapshot_s.begin(), r.ckpt_snapshot_s.end(), 0.0) +
                       std::accumulate(r.ckpt_save_s.begin(), r.ckpt_save_s.end(), 0.0)) /
                      r.run_s;
             }),
         "ratio"},
        {"state.gather_ms", med(traced, [](const Rep& r) { return r.gather_ms; }), "ms"},
        {"trace.overhead_frac", 1 - traced_rate / untraced_rate, "ratio"},
    };
    tr.write(a.out + "/trace_" + w.name + ".json");
  }

  // Inputs and exact counts, for the ledger record.
  std::ostringstream info;
  const auto& b = spec.initial.front();
  info << "\"bump\":[" << num(b.center[0]) << "," << num(b.center[1]) << "," << num(b.center[2])
       << "," << num(b.width) << "],\"receivers\":[";
  for (std::size_t i = 0; i < spec.receivers.size(); ++i) {
    const auto& l = spec.receivers[i].location;
    info << (i ? "," : "") << "[" << num(l[0]) << "," << num(l[1]) << "," << num(l[2]) << "]";
  }
  double max_drift = 0;
  std::int64_t samples = 0;
  for (const auto* set : {&reps, &traced})
    for (const auto& r : *set) {
      max_drift = std::max(max_drift, r.drift);
      samples += static_cast<std::int64_t>(r.cycle_ms.size());
    }
  info << "],\"cycles\":" << cycles << ",\"reps\":" << attempted
       << ",\"cycle_samples\":" << samples << ",\"max_drift\":" << num(max_drift)
       << ",\"isa\":\"" << simd::isa_name()
       << "\",\"nproc\":" << std::thread::hardware_concurrency()
       << ",\"l2_bytes\":" << std::max(0L, sysconf(_SC_LEVEL2_CACHE_SIZE))
       << ",\"l3_bytes\":" << std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE))
       << ",\"triad_bytes\":" << num(kTriadLlcMultiple * llc_bytes()) << ",\"config\":\""
       << core::to_string(spec.config()) << "\"";
  // What the runner needs to compare trench-lts with trench-newmark: the
  // untraced rate, exact element applies per simulated second, and Eq. 9.
  info << ",\"sim_rate\":" << num(untraced_rate) << ",\"applies_per_sim_s\":"
       << num(med(reps, [](const Rep& r) { return static_cast<double>(r.applies) / r.sim_span; }))
       << ",\"eq9\":" << num(med(reps, [](const Rep& r) { return r.eq9; }));

  std::cout << "{\"workload\":\"" << w.name << "\",\"seed\":" << a.seed
            << ",\"trace\":" << (a.trace ? 1 : 0)
            << ",\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? "," : "") << "\"" << metrics[i].name << "\":{\"value\":"
              << num(metrics[i].value) << ",\"unit\":\"" << metrics[i].unit << "\"}";
  std::cout << "},\"info\":{" << info.str() << "}}" << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bench_ledger: " << e.what() << "\n";
  return 2;
}

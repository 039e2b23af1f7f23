#include "scenarios/scenario.hpp"

#include <cmath>
#include <map>
#include <sstream>

#include "common/kv.hpp"
#include "common/timer.hpp"
#include "core/executor.hpp"
#include "core/lts_levels.hpp"
#include "mesh/mesh_io.hpp"
#include "resilience/error.hpp"

namespace ltswave::scenarios {

// ---------------------------------------------------------------------------
// Mesh building
// ---------------------------------------------------------------------------

mesh::HexMesh MeshSpec::build() const {
  if (generator == "box") {
    const index_t layers = nz > 0 ? nz : n;
    return mesh::make_uniform_box(n, n, layers, extent, mat);
  }
  if (generator == "strip") return mesh::make_strip_mesh(n, fine_frac, squeeze);
  if (generator == "trench")
    return mesh::make_trench_mesh({.n = n,
                                   .nz = nz,
                                   .squeeze = squeeze,
                                   .trench_halfwidth = trench_halfwidth,
                                   .depth_power = depth_power,
                                   .transition = transition,
                                   .mat = mat});
  if (generator == "trench-big") return mesh::make_trench_big_mesh(n);
  if (generator == "embedding")
    return mesh::make_embedding_mesh(
        {.n = n, .squeeze = squeeze, .radius = radius, .center = center, .mat = mat});
  if (generator == "crust")
    return mesh::make_crust_mesh(
        {.n = n, .nz = nz, .squeeze = squeeze, .topo_amp = topo_amp, .mat = mat});
  if (generator == "file") {
    LTS_CHECK_MSG(!path.empty(), "mesh generator 'file' needs a path (mesh-file=<path>)");
    return mesh::load_mesh(path);
  }
  LTS_RAISE(resilience::InvalidConfig,
            "unknown mesh generator '"
                << generator
                << "' (want box | strip | trench | trench-big | embedding | crust | file)");
}

void MaterialRegion::apply(mesh::HexMesh& m) const {
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const auto c = m.centroid(e);
    if (c[0] >= lo[0] && c[0] <= hi[0] && c[1] >= lo[1] && c[1] <= hi[1] && c[2] >= lo[2] &&
        c[2] <= hi[2])
      m.set_material(e, mat);
  }
}

mesh::HexMesh ScenarioSpec::build_mesh() const {
  auto m = mesh.build();
  for (const auto& r : regions) r.apply(m);
  return m;
}

// ---------------------------------------------------------------------------
// Realization
// ---------------------------------------------------------------------------

core::SimulationConfig ScenarioSpec::config() const {
  core::SimulationConfig cfg;
  cfg.order = order;
  cfg.physics = physics;
  cfg.courant = courant;
  cfg.max_levels = max_levels;
  cfg.num_ranks = num_ranks;
  cfg.scheduler = scheduler;
  cfg.partitioner = partitioner;
  cfg.feedback_warmup_cycles = feedback_warmup_cycles;
  cfg.executor = executor;
  cfg.health_every = health_every;
  cfg.fault = fault;
  return cfg;
}

real_t ScenarioSpec::coarse_dt(const mesh::HexMesh& m) const {
  return core::assign_levels(m, courant, max_levels).dt;
}

std::unique_ptr<core::WaveSimulation> ScenarioSpec::make_simulation() const {
  // Field components per node — the displacement vector (vertical u_z = 2)
  // for elastic, the scalar (0) for acoustic.
  const bool elastic = physics == core::Physics::Elastic;
  const int ncomp = elastic ? 3 : 1;
  const int vertical = elastic ? 2 : 0;
  const auto check_component = [&](const char* what, int component) {
    if (component < 0 || component >= ncomp)
      LTS_RAISE(resilience::InvalidConfig,
                what << " component " << component << " is out of range for "
                     << core::to_string(physics) << " physics (components 0.." << ncomp - 1
                     << ")");
    return component;
  };
  std::vector<int> receiver_components;
  for (const auto& r : receivers)
    receiver_components.push_back(r.component == ReceiverSpec::kVertical
                                      ? vertical
                                      : check_component("receiver", r.component));
  for (const auto& b : initial) check_component("initial bump", b.component);

  auto sim = std::make_unique<core::WaveSimulation>(build_mesh(), config());
  // Sources before set_state: the staggered v^{-1/2} start must see f(0),
  // identically on every backend.
  for (const auto& s : sources) {
    // The force vector for elastic; the acoustic scalar takes its magnitude,
    // so no direction silently drops the source.
    const auto& d = s.direction;
    const real_t norm = std::sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]);
    sim->add_source(s.location, s.peak_frequency, elastic ? d : std::array<real_t, 3>{norm, 0, 0},
                    s.amplitude);
  }
  for (std::size_t i = 0; i < receivers.size(); ++i)
    sim->add_receiver(receivers[i].location, receiver_components[i]);

  const auto& space = sim->space();
  const std::size_t nc = static_cast<std::size_t>(sim->ncomp());
  std::vector<real_t> u0(static_cast<std::size_t>(space.num_global_nodes()) * nc, 0.0);
  for (const auto& b : initial) {
    for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
      const auto x = space.node_coord(g);
      real_t r2 = 0;
      for (int d = 0; d < 3; ++d) {
        const real_t dx = x[static_cast<std::size_t>(d)] - b.center[static_cast<std::size_t>(d)];
        r2 += b.axis_mask[static_cast<std::size_t>(d)] * dx * dx;
      }
      u0[static_cast<std::size_t>(g) * nc + static_cast<std::size_t>(b.component)] +=
          b.amplitude * std::exp(-b.width * r2);
    }
  }
  sim->set_state(u0, std::vector<real_t>(u0.size(), 0.0));
  return sim;
}

real_t run_duration(const ScenarioSpec& spec, const core::WaveSimulation& sim) {
  // Branch on the sim's actual level layout: the physical span must stay
  // executor-independent (duration_cycles *coarse* LTS cycles). A
  // multi-level sim's own dt already is the coarse step; single-level layouts
  // (the newmark backend, or a mesh with one level) recover it with a
  // separate census.
  const bool coarse_is_dt = sim.levels().num_levels > 1;
  return (coarse_is_dt ? sim.dt() : spec.coarse_dt(sim.mesh())) * spec.duration_cycles;
}

RunResult run(const ScenarioSpec& spec) {
  auto sim = spec.make_simulation();
  const WallTimer wall;
  sim->run(run_duration(spec, *sim));
  const double wall_seconds = wall.seconds();

  RunResult out;
  out.u = sim->u();
  out.end_time = sim->time();
  out.num_levels = sim->levels().num_levels;
  out.element_applies = sim->element_applies();
  for (const auto& r : sim->receivers()) {
    out.trace_times.push_back(r.times());
    out.trace_values.push_back(r.values());
  }
  out.report = sim->run_report();
  out.report.scenario = spec.name;
  out.report.wall_seconds = wall_seconds;
  return out;
}

// ---------------------------------------------------------------------------
// CLI overrides
// ---------------------------------------------------------------------------

namespace {
constexpr std::string_view kScenarioOnlyKeysHelp =
    "cycles | n | nz | squeeze | mesh | mesh-file | "
    "recovery.{checkpoint-every,max-retries,on-blowup,fallback,backoff-ms}";
} // namespace

std::string cli_keys_help() {
  return std::string(core::simulation_config_keys_help()) + " | " +
         std::string(kScenarioOnlyKeysHelp);
}

void ScenarioSpec::apply_override(std::string_view key, std::string_view value) {
  // Simulation keys go through the one shared dispatch (same spellings and
  // value errors as parse_simulation_config — the two CLI surfaces cannot
  // drift), then get copied back into the spec's mirrored fields.
  core::SimulationConfig cfg = config();
  if (core::try_simulation_config_key(cfg, key, value)) {
    order = cfg.order;
    physics = cfg.physics;
    courant = cfg.courant;
    max_levels = cfg.max_levels;
    num_ranks = cfg.num_ranks;
    scheduler = cfg.scheduler;
    partitioner = cfg.partitioner;
    feedback_warmup_cycles = cfg.feedback_warmup_cycles;
    executor = cfg.executor;
    health_every = cfg.health_every;
    fault = cfg.fault;
    // A config key whose field is missing from the copy-back above (or from
    // config()) would otherwise parse fine and silently do nothing — fail
    // loudly at first use instead.
    LTS_CHECK_MSG(config() == cfg, "ScenarioSpec dropped the effect of '"
                                       << key << "' — a SimulationConfig field is missing from "
                                       << "apply_override's copy-back or config()");
    return;
  }
  if (key == "cycles") {
    const real_t cycles = kv::parse_real(key, value);
    if (cycles < 0)
      LTS_RAISE(resilience::InvalidConfig,
                "scenario key '" << key << "' wants a cycle count >= 0, got '" << value << "'");
    duration_cycles = cycles;
  } else if (key == "recovery.checkpoint-every" || key == "recovery.checkpoint_every") {
    recovery.checkpoint_every = kv::parse_int_as<std::int64_t>(key, value);
    LTS_CHECK_MSG(recovery.checkpoint_every >= 0,
                  "recovery.checkpoint-every wants a cycle stride >= 0, got '" << value << "'");
  } else if (key == "recovery.max-retries" || key == "recovery.max_retries") {
    recovery.max_retries = kv::parse_int_as<int>(key, value);
    LTS_CHECK_MSG(recovery.max_retries >= 0,
                  "recovery.max-retries wants a count >= 0, got '" << value << "'");
  } else if (key == "recovery.on-blowup" || key == "recovery.on_blowup") {
    recovery.on_blowup = resilience::parse_on_blowup(value);
  } else if (key == "recovery.fallback") {
    recovery.fallback = value;
  } else if (key == "recovery.backoff-ms" || key == "recovery.backoff_ms") {
    recovery.backoff_ms = kv::parse_real(key, value);
    LTS_CHECK_MSG(recovery.backoff_ms >= 0,
                  "recovery.backoff-ms wants milliseconds >= 0, got '" << value << "'");
  } else if (key == "n") {
    mesh.n = kv::parse_int_as<index_t>(key, value);
  } else if (key == "nz") {
    mesh.nz = kv::parse_int_as<index_t>(key, value);
  } else if (key == "squeeze") {
    mesh.squeeze = kv::parse_real(key, value);
  } else if (key == "mesh") {
    mesh.generator = value;
  } else if (key == "mesh-file") {
    mesh.generator = "file";
    mesh.path = value;
  } else {
    LTS_RAISE(resilience::InvalidConfig,
              "unknown scenario key '" << key << "' (want " << cli_keys_help() << ")");
  }
}

void ScenarioSpec::apply_cli(std::span<const char* const> args) {
  for (const char* arg : args)
    for (const auto& [key, value] : kv::split(arg))
      if (key != "scenario") apply_override(key, value);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

/// The paper's benchmark workloads plus the conformance strip and a
/// heterogeneous layered medium, at CI-cheap default resolutions; benches
/// scale them up with with_mesh_resolution / n= overrides.
std::map<std::string, ScenarioSpec, std::less<>>& registry() {
  static std::map<std::string, ScenarioSpec, std::less<>> reg = [] {
    std::map<std::string, ScenarioSpec, std::less<>> r;
    auto put = [&r](ScenarioSpec s) { r.emplace(s.name, std::move(s)); };

    {
      ScenarioSpec s;
      s.name = "strip";
      s.description = "quasi-1D refined strip (Fig. 1 topology) — the conformance workhorse";
      s.mesh.generator = "strip";
      s.mesh.n = 12;
      s.mesh.squeeze = 4.0;
      s.mesh.fine_frac = 0.4;
      s.order = 2;
      s.courant = 0.10;
      s.duration_cycles = 8;
      s.initial.push_back({.center = {0.25, 0, 0}, .axis_mask = {1, 0, 0}, .width = 25.0});
      s.receivers.push_back({.location = {0.5, 0.0, 0.0}});
      s.receivers.push_back({.location = {0.9, 0.0, 0.0}});
      put(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "trench";
      s.description =
          "elastic Ricker point source under the refined trench, surface receiver line "
          "(paper Fig. 4 'Trench' topology)";
      s.mesh.generator = "trench";
      s.mesh.n = 6;
      s.mesh.nz = 4;
      s.mesh.squeeze = 4.0;
      s.mesh.trench_halfwidth = 0.05;
      s.mesh.depth_power = 3.0;
      s.mesh.transition = 0.15;
      s.mesh.mat = {.vp = 2.0, .vs = 1.1, .rho = 1.0};
      s.physics = core::Physics::Elastic;
      s.order = 3;
      s.courant = 0.08;
      s.duration_cycles = 6;
      s.sources.push_back(
          {.location = {0.5, 0.5, 0.45}, .peak_frequency = 3.0, .direction = {0, 0, 1}});
      for (int i = 0; i < 3; ++i)
        s.receivers.push_back(
            {.location = {0.3 + 0.2 * static_cast<real_t>(i), 0.5, 0.5},
             .component = ReceiverSpec::kVertical});
      put(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "embedding";
      s.description =
          "localized small-scale feature embedded in a coarse volume (paper Fig. 4 "
          "'Embedding'), Gaussian pulse + corner receiver";
      s.mesh.generator = "embedding";
      s.mesh.n = 10;
      s.mesh.squeeze = 4.0;
      s.mesh.radius = 0.3;
      s.mesh.center = {0.5, 0.5, 0.5};
      s.order = 3;
      s.courant = 0.08;
      s.duration_cycles = 8;
      s.initial.push_back({.center = {0.5, 0.5, 0.5}, .width = 40.0});
      s.receivers.push_back({.location = {0.9, 0.9, 0.9}});
      put(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "crust";
      s.description =
          "thin squeezed surface layer across the whole domain (paper Fig. 4 'Crust'), "
          "near-surface source + surface receivers";
      s.mesh.generator = "crust";
      s.mesh.n = 8;
      s.mesh.nz = 4;
      s.mesh.squeeze = 2.2;
      s.order = 2;
      s.courant = 0.15;
      s.duration_cycles = 6;
      s.sources.push_back(
          {.location = {0.5, 0.5, 0.85}, .peak_frequency = 2.0, .direction = {1, 0, 0}});
      s.receivers.push_back({.location = {0.25, 0.5, 1.0}});
      s.receivers.push_back({.location = {0.75, 0.5, 1.0}});
      put(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "trench-big";
      s.description =
          "the 26M-element 'Trench Big' topology (6 paper levels) at reproduction scale";
      s.mesh.generator = "trench-big";
      s.mesh.n = 10;
      s.order = 2;
      // The 6-level recursion goes unstable well below the global Newmark
      // limit (non-finite within 60 cycles at 0.14; docs/architecture.md).
      s.courant = 0.1;
      s.max_levels = 6;
      s.duration_cycles = 4;
      s.initial.push_back({.center = {0.5, 0.5, 0.5}, .width = 30.0});
      s.receivers.push_back({.location = {0.8, 0.5, 0.5}});
      put(std::move(s));
    }
    {
      // The "embedding" workload at the paper's feature parameters — like
      // "trench-paper", the one definition the perf surfaces scale up.
      ScenarioSpec s = r.find("embedding")->second;
      s.name = "embedding-paper";
      s.description =
          "the 'embedding' workload at the paper's Fig. 9-13 feature parameters (benches "
          "scale the resolution up)";
      s.mesh.squeeze = 16.0;
      s.mesh.radius = 0.15;
      s.mesh.center = {0.5, 0.5, 0.5};
      s.mesh.mat = {};
      put(std::move(s));
    }
    {
      // The "trench" workload at the paper's Fig. 9-13 squeeze parameters —
      // the one definition every perf surface (paper_meshes, threaded_scaling,
      // scaling_explorer) scales up with with_mesh_resolution. Registered at
      // the same CI-cheap default resolution as "trench" so the scenario
      // ctest label stays fast.
      ScenarioSpec s = r.find("trench")->second;
      s.name = "trench-paper";
      s.description =
          "the 'trench' workload at the paper's Fig. 9-13 squeeze parameters (benches scale "
          "the resolution up)";
      s.mesh.squeeze = 8.0;
      s.mesh.trench_halfwidth = 0.03;
      s.mesh.depth_power = 4.0;
      s.mesh.transition = 0.10;
      s.mesh.mat = {};
      put(std::move(s));
    }
    {
      ScenarioSpec s;
      s.name = "layered";
      s.description =
          "heterogeneous layered medium: slow sedimentary layer over a fast basement on a "
          "uniform box — LTS levels driven purely by material contrast";
      // vp contrast of exactly 2: the fast basement's CFL step is half the
      // slow layer's, which the work-rate dt selection converts into a clean
      // two-level census (off-power-of-2 contrasts can make single-level
      // globally cheaper on a uniform grid).
      s.mesh.generator = "box";
      s.mesh.n = 8;
      s.mesh.nz = 6;
      s.mesh.mat = {.vp = 2.0, .vs = 1.1, .rho = 1.0};
      MaterialRegion layer;
      layer.lo = {-1e30, -1e30, 0.72};
      layer.mat = {.vp = 1.0, .vs = 0.55, .rho = 1.3};
      s.regions.push_back(layer);
      s.order = 2;
      // Inside the 2-level recursion's limit at every n probed (6-10); 0.2
      // grows without bound at n=6 (docs/architecture.md).
      s.courant = 0.15;
      s.duration_cycles = 6;
      // A displacement bump at the material interface radiates into both
      // media immediately (the Ricker onset is delayed by design), so the
      // surface receivers record real signal within the first cycles.
      s.initial.push_back({.center = {0.5, 0.5, 0.72}, .width = 60.0});
      s.sources.push_back(
          {.location = {0.5, 0.5, 0.3}, .peak_frequency = 1.5, .direction = {1, 0, 0}});
      s.receivers.push_back({.location = {0.25, 0.5, 1.0}});
      s.receivers.push_back({.location = {0.75, 0.5, 1.0}});
      put(std::move(s));
    }
    return r;
  }();
  return reg;
}

} // namespace

ScenarioSpec get(std::string_view name) {
  const auto& reg = registry();
  const auto it = reg.find(name);
  if (it == reg.end()) {
    std::ostringstream os;
    for (const auto& [key, spec] : reg) os << "\n  " << key << " — " << spec.description;
    LTS_RAISE(resilience::InvalidConfig,
              "unknown scenario '" << name << "'; registered scenarios:" << os.str());
  }
  return it->second;
}

bool contains(std::string_view name) { return registry().find(name) != registry().end(); }

std::vector<std::string> names() {
  std::vector<std::string> out;
  for (const auto& [key, spec] : registry()) out.push_back(key);
  return out;
}

void register_scenario(ScenarioSpec spec) {
  LTS_CHECK_MSG(!spec.name.empty(), "scenario registration needs a non-empty name");
  auto& reg = registry();
  const auto [it, inserted] = reg.emplace(spec.name, std::move(spec));
  LTS_CHECK_MSG(inserted, "scenario '" << it->first << "' is already registered");
}

ScenarioSpec from_args(std::span<const char* const> args, std::string_view default_name) {
  std::string selected(default_name);
  for (const char* arg : args)
    for (const auto& [key, value] : kv::split(arg))
      if (key == "scenario") selected = value;
  ScenarioSpec spec = get(selected);
  spec.apply_cli(args);
  return spec;
}

} // namespace ltswave::scenarios

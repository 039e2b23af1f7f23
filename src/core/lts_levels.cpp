#include "core/lts_levels.hpp"

#include <algorithm>
#include <cmath>

namespace ltswave::core {

namespace {
/// Smallest level k >= 1 with dt / 2^{k-1} <= dt_e (with a tiny tolerance so
/// dt_e == dt lands in level 1).
level_t level_for(real_t dt, real_t dt_e) {
  const real_t ratio = dt / dt_e;
  if (ratio <= 1.0 + 1e-12) return 1;
  return 1 + static_cast<level_t>(std::ceil(std::log2(ratio) - 1e-12));
}
} // namespace

LevelAssignment assign_levels(const mesh::HexMesh& m, real_t courant, level_t max_levels) {
  LTS_CHECK(m.num_elems() > 0 && courant > 0 && max_levels >= 1);
  const index_t ne = m.num_elems();
  std::vector<real_t> dte(static_cast<std::size_t>(ne));
  real_t dt_min = std::numeric_limits<real_t>::max();
  real_t dt_max = 0;
  for (index_t e = 0; e < ne; ++e) {
    dte[static_cast<std::size_t>(e)] = m.cfl_dt(e, courant);
    dt_min = std::min(dt_min, dte[static_cast<std::size_t>(e)]);
    dt_max = std::max(dt_max, dte[static_cast<std::size_t>(e)]);
  }

  // Global step selection: rather than always taking the largest stable step
  // (which lets a handful of extra-large elements push the *bulk* of the mesh
  // into level 2 and double its cost), choose the candidate dt minimizing the
  // model work rate  sum_k p_k(dt) * count_k(dt) / dt.  Elements with
  // dt_e > dt simply take the (stable, slightly conservative) coarse step.
  // Candidates: quantiles of the dt distribution, capped so at most
  // max_levels levels are needed (dt / 2^{max_levels-1} stable everywhere).
  const real_t dt_cap = dt_min * static_cast<real_t>(std::int64_t{1} << (max_levels - 1));
  std::vector<real_t> sorted = dte;
  std::sort(sorted.begin(), sorted.end());
  std::vector<real_t> candidates;
  constexpr int kQuantiles = 48;
  for (int q = 1; q <= kQuantiles; ++q) {
    const std::size_t idx =
        std::min(sorted.size() - 1, sorted.size() * static_cast<std::size_t>(q) / kQuantiles);
    candidates.push_back(std::min(sorted[idx], dt_cap));
  }
  candidates.push_back(std::min(dt_max, dt_cap));

  real_t dt = candidates.back();
  double best_rate = std::numeric_limits<double>::max();
  for (real_t cand : candidates) {
    if (cand <= 0) continue;
    double work = 0;
    for (real_t d : dte) work += static_cast<double>(level_rate(level_for(cand, d)));
    const double rate = work / static_cast<double>(cand);
    if (rate < best_rate * (1.0 - 1e-12)) {
      best_rate = rate;
      dt = cand;
    }
  }

  LevelAssignment out;
  out.dt = dt;
  out.elem_level.resize(static_cast<std::size_t>(ne));
  level_t max_seen = 1;
  for (index_t e = 0; e < ne; ++e) {
    const level_t k = level_for(dt, dte[static_cast<std::size_t>(e)]);
    out.elem_level[static_cast<std::size_t>(e)] = k;
    max_seen = std::max(max_seen, k);
  }
  out.num_levels = max_seen;
  out.level_counts.assign(static_cast<std::size_t>(max_seen), 0);
  for (level_t k : out.elem_level) ++out.level_counts[static_cast<std::size_t>(k - 1)];
  return out;
}

LevelAssignment assign_single_level(const mesh::HexMesh& m, real_t courant) {
  LTS_CHECK(m.num_elems() > 0 && courant > 0);
  LevelAssignment out;
  real_t dt_min = std::numeric_limits<real_t>::max();
  for (index_t e = 0; e < m.num_elems(); ++e) dt_min = std::min(dt_min, m.cfl_dt(e, courant));
  out.dt = dt_min;
  out.num_levels = 1;
  out.elem_level.assign(static_cast<std::size_t>(m.num_elems()), 1);
  out.level_counts = {m.num_elems()};
  return out;
}

double theoretical_speedup(const LevelAssignment& levels) {
  const double p_max = static_cast<double>(level_rate(levels.num_levels));
  double total = 0, weighted = 0;
  for (level_t k = 1; k <= levels.num_levels; ++k) {
    const auto cnt = static_cast<double>(levels.level_counts[static_cast<std::size_t>(k - 1)]);
    total += cnt;
    weighted += static_cast<double>(level_rate(k)) * cnt;
  }
  return p_max * total / weighted;
}

std::int64_t model_applies_per_cycle(const LevelAssignment& levels) {
  std::int64_t sum = 0;
  for (level_t k = 1; k <= levels.num_levels; ++k)
    sum += level_rate(k) * levels.level_counts[static_cast<std::size_t>(k - 1)];
  return sum;
}

std::vector<level_t> compute_node_levels(const sem::SemSpace& space,
                                         std::span<const level_t> elem_level) {
  LTS_CHECK(elem_level.size() == static_cast<std::size_t>(space.num_elems()));
  std::vector<level_t> node_level(static_cast<std::size_t>(space.num_global_nodes()), 0);
  const int npts = space.nodes_per_elem();
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const gindex_t* l2g = space.elem_nodes(e);
    const level_t lev = elem_level[static_cast<std::size_t>(e)];
    for (int q = 0; q < npts; ++q) {
      auto& nl = node_level[static_cast<std::size_t>(l2g[q])];
      nl = std::max(nl, lev);
    }
  }
  return node_level;
}

std::size_t row_count(const RowRuns& runs) noexcept {
  std::size_t n = 0;
  for (const RowRun& run : runs) n += static_cast<std::size_t>(run.end - run.begin);
  return n;
}

std::ptrdiff_t row_position(const RowRuns& runs, gindex_t g) noexcept {
  // The first run ending past g is the only one that can hold it.
  const auto it = std::upper_bound(runs.begin(), runs.end(), g,
                                   [](gindex_t x, const RowRun& run) { return x < run.end; });
  if (it == runs.end() || g < it->begin) return -1;
  std::ptrdiff_t pos = g - it->begin;
  for (auto r = runs.begin(); r != it; ++r) pos += r->end - r->begin;
  return pos;
}

std::int64_t LtsStructure::applies_per_cycle() const {
  std::int64_t sum = 0;
  for (level_t k = 1; k <= num_levels; ++k)
    sum += level_rate(k) * static_cast<std::int64_t>(eval_elems[static_cast<std::size_t>(k - 1)].size());
  return sum;
}

LtsStructure build_lts_structure(const sem::SemSpace& space, const LevelAssignment& levels) {
  LtsStructure s;
  s.num_levels = levels.num_levels;
  s.node_level = compute_node_levels(space, levels.elem_level);

  const int npts = space.nodes_per_elem();
  const index_t ne = space.num_elems();
  const gindex_t nn = space.num_global_nodes();
  const level_t nl = levels.num_levels;

  s.eval_elems.assign(static_cast<std::size_t>(nl), {});
  s.eval_rows.assign(static_cast<std::size_t>(nl), {});
  s.update_rows.assign(static_cast<std::size_t>(nl), {});
  s.recon_rows.assign(static_cast<std::size_t>(nl), {});

  // E(k): element e participates in level k's evaluation iff it contains a
  // node of exactly level k. elem_max[e] = finest node level within e.
  std::vector<level_t> elem_max(static_cast<std::size_t>(ne), 0);
  {
    std::vector<std::uint8_t> present(static_cast<std::size_t>(nl));
    for (index_t e = 0; e < ne; ++e) {
      std::fill(present.begin(), present.end(), 0);
      const gindex_t* l2g = space.elem_nodes(e);
      level_t emax = 0;
      for (int q = 0; q < npts; ++q) {
        const level_t lev = s.node_level[static_cast<std::size_t>(l2g[q])];
        present[static_cast<std::size_t>(lev - 1)] = 1;
        emax = std::max(emax, lev);
      }
      elem_max[static_cast<std::size_t>(e)] = emax;
      for (level_t k = 1; k <= nl; ++k)
        if (present[static_cast<std::size_t>(k - 1)]) s.eval_elems[static_cast<std::size_t>(k - 1)].push_back(e);
    }
  }

  // rho_n = max over elements containing n of elem_max[e]: the finest level
  // whose evaluation writes to row n.
  s.node_rho.assign(static_cast<std::size_t>(nn), 0);
  for (index_t e = 0; e < ne; ++e) {
    const gindex_t* l2g = space.elem_nodes(e);
    for (int q = 0; q < npts; ++q) {
      auto& r = s.node_rho[static_cast<std::size_t>(l2g[q])];
      r = std::max(r, elem_max[static_cast<std::size_t>(e)]);
    }
  }

  // Row sets, each built by one ascending scan over the nodes. A node is in
  // eval_rows(k) when an E(k) element carries it (stamped with k).
  std::vector<level_t> stamp(static_cast<std::size_t>(nn), 0);
  for (level_t k = 1; k <= nl; ++k) {
    for (index_t e : s.eval_elems[static_cast<std::size_t>(k - 1)]) {
      const gindex_t* l2g = space.elem_nodes(e);
      for (int q = 0; q < npts; ++q) stamp[static_cast<std::size_t>(l2g[q])] = k;
    }
    auto& rows = s.eval_rows[static_cast<std::size_t>(k - 1)];
    for (gindex_t g = 0; g < nn; ++g)
      if (stamp[static_cast<std::size_t>(g)] == k) append_row(rows, g);
  }

  for (gindex_t g = 0; g < nn; ++g) {
    const level_t rho = s.node_rho[static_cast<std::size_t>(g)];
    append_row(s.update_rows[static_cast<std::size_t>(rho - 1)], g);
    // g belongs to R(k+1) (= recon rows of level k) for every k < rho.
    for (level_t k = 1; k < rho; ++k) append_row(s.recon_rows[static_cast<std::size_t>(k - 1)], g);
  }

  return s;
}

} // namespace ltswave::core

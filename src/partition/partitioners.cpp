#include "partition/partitioners.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ltswave::partition {

using graph::CsrGraph;
using graph::weight_t;

std::string to_string(Strategy s) {
  switch (s) {
    case Strategy::Scotch: return "SCOTCH";
    case Strategy::ScotchP: return "SCOTCH-P";
    case Strategy::Metis: return "MeTiS";
    case Strategy::Patoh: return "PaToH";
  }
  return "?";
}

std::string cli_name(Strategy s) {
  switch (s) {
    case Strategy::Scotch: return "scotch";
    case Strategy::ScotchP: return "scotch-p";
    case Strategy::Metis: return "metis";
    case Strategy::Patoh: return "patoh";
  }
  return "?";
}

Strategy parse_strategy(std::string_view name) {
  for (const Strategy s : kAllStrategies)
    if (name == cli_name(s) || name == to_string(s)) return s;
  std::string spellings;
  for (const Strategy s : kAllStrategies) {
    if (!spellings.empty()) spellings += " | ";
    spellings += cli_name(s);
  }
  LTS_CHECK_MSG(false, "unknown partitioner '" << name << "' (want " << spellings << ")");
  return Strategy::ScotchP;
}

MultilevelConfig graph_engine_config(const PartitionerConfig& cfg, rank_t k, std::uint64_t seed) {
  MultilevelConfig mc;
  mc.eps = cfg.imbalance / (1 + 0.5 * std::log2(k));
  mc.seed = seed;
  return mc;
}

namespace {

Partition dual_graph_partition(const mesh::HexMesh& m, std::span<const level_t> elem_levels,
                               level_t num_levels, const PartitionerConfig& cfg,
                               bool multi_constraint) {
  auto dual = graph::build_dual_graph(m, elem_levels);
  graph::set_lts_vertex_weights(dual, elem_levels, num_levels, multi_constraint);
  return hg_recursive_bisection(graph::two_pin_hypergraph(dual), cfg.num_parts,
                                graph_engine_config(cfg, cfg.num_parts, cfg.seed));
}

Partition patoh_partition(const mesh::HexMesh& m, std::span<const level_t> elem_levels,
                          level_t num_levels, const PartitionerConfig& cfg) {
  const auto hg = graph::build_lts_hypergraph(m, elem_levels, num_levels);
  MultilevelConfig mc;
  mc.eps = cfg.imbalance;
  mc.seed = cfg.seed;
  return hg_recursive_bisection(hg, cfg.num_parts, mc);
}

} // namespace

Partition scotch_p_partition(const mesh::HexMesh& m, const CsrGraph& dual,
                             std::span<const level_t> elem_levels, level_t num_levels,
                             const PartitionerConfig& cfg) {
  const index_t ne = m.num_elems();
  const rank_t k = cfg.num_parts;
  Partition out;
  out.num_parts = k;
  out.part.assign(static_cast<std::size_t>(ne), 0);

  // Work already assigned to each rank (in element-applies per cycle), used
  // for load-based coupling and tie-breaking.
  std::vector<weight_t> rank_work(static_cast<std::size_t>(k), 0);

  // Process levels from most to least work so that the large levels dominate
  // the affinity structure (the paper couples level 1 first; with roughly
  // balanced per-level work the order matters little, but work-descending is
  // the robust choice for meshes whose coarse level dominates).
  std::vector<std::vector<index_t>> level_elems(static_cast<std::size_t>(num_levels));
  for (index_t e = 0; e < ne; ++e)
    level_elems[static_cast<std::size_t>(elem_levels[static_cast<std::size_t>(e)] - 1)].push_back(e);
  std::vector<level_t> order(static_cast<std::size_t>(num_levels));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](level_t a, level_t b) {
    const weight_t wa = static_cast<weight_t>(level_elems[static_cast<std::size_t>(a)].size()) * level_rate(a + 1);
    const weight_t wb = static_cast<weight_t>(level_elems[static_cast<std::size_t>(b)].size()) * level_rate(b + 1);
    return wa > wb;
  });

  std::vector<std::uint8_t> assigned_any(static_cast<std::size_t>(ne), 0);
  bool first_level = true;

  for (level_t li : order) {
    const auto& elems = level_elems[static_cast<std::size_t>(li)];
    if (elems.empty()) continue;
    const rank_t k_eff = std::min<rank_t>(k, static_cast<rank_t>(elems.size()));

    // Partition this level's induced subgraph with unit weights.
    auto [sub, to_orig] = graph::induced_subgraph(dual, elems);
    {
      std::vector<weight_t> unit(static_cast<std::size_t>(sub.num_vertices()), 1);
      sub.set_vertex_weights(std::move(unit), 1);
    }
    const Partition level_part = hg_recursive_bisection(
        graph::two_pin_hypergraph(sub), k_eff,
        graph_engine_config(cfg, k_eff, cfg.seed + static_cast<std::uint64_t>(li) * 7919));

    // Couple the k_eff parts onto ranks: exactly one part per rank.
    const weight_t rate = static_cast<weight_t>(level_rate(li + 1));
    std::vector<weight_t> part_work(static_cast<std::size_t>(k_eff), 0);
    for (index_t sv = 0; sv < sub.num_vertices(); ++sv)
      part_work[static_cast<std::size_t>(level_part.part[static_cast<std::size_t>(sv)])] += rate;

    std::vector<rank_t> part_to_rank(static_cast<std::size_t>(k_eff), -1);
    if (first_level) {
      // The first (largest) level defines rank identity.
      for (rank_t p = 0; p < k_eff; ++p) part_to_rank[static_cast<std::size_t>(p)] = p;
      first_level = false;
    } else if (cfg.coupling == CouplingMode::Affinity) {
      // Affinity = summed dual-edge weight between the part and elements
      // already placed on the rank.
      std::vector<std::vector<weight_t>> aff(static_cast<std::size_t>(k_eff),
                                             std::vector<weight_t>(static_cast<std::size_t>(k), 0));
      for (index_t sv = 0; sv < sub.num_vertices(); ++sv) {
        const index_t e = to_orig[static_cast<std::size_t>(sv)];
        const rank_t p = level_part.part[static_cast<std::size_t>(sv)];
        auto nbrs = dual.neighbors(e);
        auto wgts = dual.edge_weights(e);
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const index_t u = nbrs[i];
          if (!assigned_any[static_cast<std::size_t>(u)]) continue;
          aff[static_cast<std::size_t>(p)][static_cast<std::size_t>(out.part[static_cast<std::size_t>(u)])] += wgts[i];
        }
      }
      // Greedy max-affinity assignment; ranks may receive at most one part.
      struct Cand {
        weight_t aff;
        rank_t part, rank;
      };
      std::vector<Cand> cands;
      for (rank_t p = 0; p < k_eff; ++p)
        for (rank_t r = 0; r < k; ++r)
          if (aff[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)] > 0)
            cands.push_back({aff[static_cast<std::size_t>(p)][static_cast<std::size_t>(r)], p, r});
      std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
        if (a.aff != b.aff) return a.aff > b.aff;
        if (a.part != b.part) return a.part < b.part;
        return a.rank < b.rank;
      });
      std::vector<std::uint8_t> rank_used(static_cast<std::size_t>(k), 0);
      rank_t assigned = 0;
      for (const Cand& c : cands) {
        if (assigned == k_eff) break;
        if (part_to_rank[static_cast<std::size_t>(c.part)] != -1 || rank_used[static_cast<std::size_t>(c.rank)]) continue;
        part_to_rank[static_cast<std::size_t>(c.part)] = c.rank;
        rank_used[static_cast<std::size_t>(c.rank)] = 1;
        ++assigned;
      }
      // Leftovers (no affinity): heaviest part -> least-loaded free rank.
      std::vector<rank_t> free_ranks;
      for (rank_t r = 0; r < k; ++r)
        if (!rank_used[static_cast<std::size_t>(r)]) free_ranks.push_back(r);
      std::sort(free_ranks.begin(), free_ranks.end(), [&](rank_t a, rank_t b) {
        return rank_work[static_cast<std::size_t>(a)] < rank_work[static_cast<std::size_t>(b)];
      });
      std::vector<rank_t> free_parts;
      for (rank_t p = 0; p < k_eff; ++p)
        if (part_to_rank[static_cast<std::size_t>(p)] == -1) free_parts.push_back(p);
      std::sort(free_parts.begin(), free_parts.end(), [&](rank_t a, rank_t b) {
        return part_work[static_cast<std::size_t>(a)] > part_work[static_cast<std::size_t>(b)];
      });
      for (std::size_t i = 0; i < free_parts.size(); ++i)
        part_to_rank[static_cast<std::size_t>(free_parts[i])] = free_ranks[i];
    } else { // CouplingMode::LoadOnly
      std::vector<rank_t> parts_desc(static_cast<std::size_t>(k_eff));
      std::iota(parts_desc.begin(), parts_desc.end(), 0);
      std::sort(parts_desc.begin(), parts_desc.end(), [&](rank_t a, rank_t b) {
        return part_work[static_cast<std::size_t>(a)] > part_work[static_cast<std::size_t>(b)];
      });
      std::vector<rank_t> ranks_asc(static_cast<std::size_t>(k));
      std::iota(ranks_asc.begin(), ranks_asc.end(), 0);
      std::sort(ranks_asc.begin(), ranks_asc.end(), [&](rank_t a, rank_t b) {
        return rank_work[static_cast<std::size_t>(a)] < rank_work[static_cast<std::size_t>(b)];
      });
      for (std::size_t i = 0; i < parts_desc.size(); ++i)
        part_to_rank[static_cast<std::size_t>(parts_desc[i])] = ranks_asc[i];
    }

    for (index_t sv = 0; sv < sub.num_vertices(); ++sv) {
      const index_t e = to_orig[static_cast<std::size_t>(sv)];
      const rank_t r = part_to_rank[static_cast<std::size_t>(level_part.part[static_cast<std::size_t>(sv)])];
      out.part[static_cast<std::size_t>(e)] = r;
      assigned_any[static_cast<std::size_t>(e)] = 1;
      rank_work[static_cast<std::size_t>(r)] += rate;
    }
  }
  return out;
}

Partition partition_mesh(const mesh::HexMesh& m, std::span<const level_t> elem_levels,
                         level_t num_levels, const PartitionerConfig& cfg) {
  LTS_CHECK(elem_levels.size() == static_cast<std::size_t>(m.num_elems()));
  LTS_CHECK(cfg.num_parts >= 1);
  if (cfg.num_parts == 1) {
    Partition p;
    p.num_parts = 1;
    p.part.assign(static_cast<std::size_t>(m.num_elems()), 0);
    return p;
  }
  switch (cfg.strategy) {
    case Strategy::Scotch: return dual_graph_partition(m, elem_levels, num_levels, cfg, false);
    case Strategy::Metis: return dual_graph_partition(m, elem_levels, num_levels, cfg, true);
    case Strategy::Patoh: return patoh_partition(m, elem_levels, num_levels, cfg);
    case Strategy::ScotchP: {
      const auto dual = graph::build_dual_graph(m, elem_levels);
      return scotch_p_partition(m, dual, elem_levels, num_levels, cfg);
    }
  }
  LTS_CHECK_MSG(false, "unknown strategy");
  return {};
}

} // namespace ltswave::partition

#include "graph/hypergraph.hpp"

#include <algorithm>

namespace ltswave::graph {

Hypergraph::Hypergraph(index_t num_vertices, std::vector<index_t> net_offsets,
                       std::vector<index_t> pins, std::vector<weight_t> net_costs)
    : num_vertices_(num_vertices),
      net_offsets_(std::move(net_offsets)),
      pins_(std::move(pins)),
      net_costs_(std::move(net_costs)) {
  LTS_CHECK(!net_offsets_.empty());
  LTS_CHECK(static_cast<std::size_t>(net_offsets_.back()) == pins_.size());
  LTS_CHECK(net_costs_.size() == net_offsets_.size() - 1);

  // Invert pins -> vertex-to-net adjacency.
  vnet_offsets_.assign(static_cast<std::size_t>(num_vertices_) + 1, 0);
  for (index_t p : pins_) {
    LTS_CHECK(p >= 0 && p < num_vertices_);
    ++vnet_offsets_[static_cast<std::size_t>(p) + 1];
  }
  for (index_t v = 0; v < num_vertices_; ++v)
    vnet_offsets_[static_cast<std::size_t>(v) + 1] += vnet_offsets_[static_cast<std::size_t>(v)];
  vnets_.resize(pins_.size());
  std::vector<index_t> cursor(vnet_offsets_.begin(), vnet_offsets_.end() - 1);
  for (index_t net = 0; net < num_nets(); ++net)
    for (index_t p : this->pins(net)) vnets_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(p)]++)] = net;

  vwgt_.assign(static_cast<std::size_t>(num_vertices_), 1);
}

void Hypergraph::set_vertex_weights(std::vector<weight_t> weights, int num_constraints) {
  LTS_CHECK(num_constraints >= 1);
  LTS_CHECK(weights.size() ==
            static_cast<std::size_t>(num_vertices_) * static_cast<std::size_t>(num_constraints));
  vwgt_ = std::move(weights);
  num_constraints_ = num_constraints;
}

std::vector<weight_t> Hypergraph::total_weights() const {
  std::vector<weight_t> tot(static_cast<std::size_t>(num_constraints_), 0);
  for (index_t v = 0; v < num_vertices_; ++v)
    for (int c = 0; c < num_constraints_; ++c) tot[static_cast<std::size_t>(c)] += vwgt(v, c);
  return tot;
}

void Hypergraph::validate() const {
  for (index_t net = 0; net < num_nets(); ++net) {
    LTS_CHECK_MSG(net_cost(net) >= 0, "negative net cost " << net);
    auto p = pins(net);
    LTS_CHECK_MSG(!p.empty(), "empty net " << net);
    std::vector<index_t> sorted(p.begin(), p.end());
    std::sort(sorted.begin(), sorted.end());
    LTS_CHECK_MSG(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
                  "duplicate pin in net " << net);
  }
}

Hypergraph two_pin_hypergraph(const CsrGraph& g) {
  std::vector<index_t> offsets = {0};
  std::vector<index_t> pins;
  std::vector<weight_t> costs;
  pins.reserve(g.adjncy().size());
  costs.reserve(g.num_edges());
  for (index_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto wgts = g.edge_weights(u);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] <= u) continue;
      pins.push_back(u);
      pins.push_back(nbrs[i]);
      offsets.push_back(static_cast<index_t>(pins.size()));
      costs.push_back(wgts[i]);
    }
  }
  Hypergraph h(g.num_vertices(), std::move(offsets), std::move(pins), std::move(costs));
  h.set_vertex_weights(g.vertex_weights(), g.num_constraints());
  return h;
}

weight_t hypergraph_cutsize(const Hypergraph& h, std::span<const rank_t> part) {
  LTS_CHECK(part.size() == static_cast<std::size_t>(h.num_vertices()));
  weight_t cut = 0;
  std::vector<rank_t> seen;
  for (index_t net = 0; net < h.num_nets(); ++net) {
    seen.clear();
    for (index_t p : h.pins(net)) {
      const rank_t r = part[static_cast<std::size_t>(p)];
      if (std::find(seen.begin(), seen.end(), r) == seen.end()) seen.push_back(r);
    }
    cut += h.net_cost(net) * static_cast<weight_t>(seen.size() - 1);
  }
  return cut;
}

} // namespace ltswave::graph

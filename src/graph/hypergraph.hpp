#pragma once

/// \file hypergraph.hpp
/// Hypergraph H = (V, N) with weighted vertices (multi-constraint) and
/// costed hyperedges/nets — the accurate communication model for LTS
/// partitioning (paper Sec. III-A.2, Fig. 3).
///
/// In the mesh model, vertices are elements and each mesh (corner) node n
/// yields one net connecting all elements containing n, with merged cost
/// c[h'_n] = sum over those elements of their p-level rate. With that cost,
/// the connectivity cut size (Eq. 20) equals the total communication volume
/// of one LTS cycle exactly.

#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"
#include "graph/csr_graph.hpp"

namespace ltswave::graph {

class Hypergraph {
public:
  Hypergraph() = default;

  /// `net_offsets` (nnets+1) indexes `pins`; `net_costs` has nnets entries.
  Hypergraph(index_t num_vertices, std::vector<index_t> net_offsets, std::vector<index_t> pins,
             std::vector<weight_t> net_costs);

  [[nodiscard]] index_t num_vertices() const noexcept { return num_vertices_; }
  [[nodiscard]] index_t num_nets() const noexcept {
    return net_offsets_.empty() ? 0 : static_cast<index_t>(net_offsets_.size() - 1);
  }
  [[nodiscard]] std::size_t num_pins() const noexcept { return pins_.size(); }

  [[nodiscard]] std::span<const index_t> pins(index_t net) const {
    return {pins_.data() + net_offsets_[static_cast<std::size_t>(net)],
            pins_.data() + net_offsets_[static_cast<std::size_t>(net) + 1]};
  }
  [[nodiscard]] weight_t net_cost(index_t net) const { return net_costs_[static_cast<std::size_t>(net)]; }

  /// Nets incident to a vertex (built on construction).
  [[nodiscard]] std::span<const index_t> nets_of(index_t v) const {
    return {vnets_.data() + vnet_offsets_[static_cast<std::size_t>(v)],
            vnets_.data() + vnet_offsets_[static_cast<std::size_t>(v) + 1]};
  }

  [[nodiscard]] int num_constraints() const noexcept { return num_constraints_; }
  void set_vertex_weights(std::vector<weight_t> weights, int num_constraints);
  [[nodiscard]] weight_t vwgt(index_t v, int c = 0) const {
    return vwgt_[static_cast<std::size_t>(v) * static_cast<std::size_t>(num_constraints_) + static_cast<std::size_t>(c)];
  }
  [[nodiscard]] const std::vector<weight_t>& vertex_weights() const noexcept { return vwgt_; }
  [[nodiscard]] std::vector<weight_t> total_weights() const;

  /// Structural checks; throws CheckFailure on violation.
  void validate() const;

private:
  index_t num_vertices_ = 0;
  std::vector<index_t> net_offsets_;
  std::vector<index_t> pins_;
  std::vector<weight_t> net_costs_;
  std::vector<index_t> vnet_offsets_;
  std::vector<index_t> vnets_;
  std::vector<weight_t> vwgt_;
  int num_constraints_ = 1;
};

/// The graph as a hypergraph on 2-pin nets: one net {u, v} per edge (u < v,
/// in CSR order) costing the edge weight, vertex weights and constraints
/// copied. On 2-pin nets lambda-1 is exactly the edge cut, so one hypergraph
/// partitioner serves both of the paper's models.
Hypergraph two_pin_hypergraph(const CsrGraph& g);

/// Connectivity cut size (paper Eq. 20): sum over nets of cost * (lambda-1),
/// lambda = number of distinct parts among the net's pins.
weight_t hypergraph_cutsize(const Hypergraph& h, std::span<const rank_t> part);

} // namespace ltswave::graph

#pragma once

/// \file reference_element.hpp
/// Tensor-product reference hexahedron [-1,1]^3 of polynomial order N:
/// (N+1)^3 GLL nodes, Lagrange-basis collocation derivative matrix, and the
/// local node layout shared by all SEM kernels.
///
/// Local node numbering: node (i,j,k) -> i + (N+1)*(j + (N+1)*k), with i the
/// fastest (x) direction. Corners therefore coincide with the mesh's corner
/// numbering when i,j,k in {0,N}.

#include <vector>

#include "common/types.hpp"
#include "sem/gll.hpp"

namespace ltswave::sem {

class ReferenceElement {
public:
  /// \param order polynomial order N >= 1 (paper default: 4, 125 nodes).
  explicit ReferenceElement(int order);

  [[nodiscard]] int order() const noexcept { return order_; }
  [[nodiscard]] int nodes_1d() const noexcept { return order_ + 1; }
  [[nodiscard]] int nodes_per_elem() const noexcept {
    return nodes_1d() * nodes_1d() * nodes_1d();
  }

  [[nodiscard]] const std::vector<real_t>& points() const noexcept { return rule_.points; }
  [[nodiscard]] const std::vector<real_t>& weights() const noexcept { return rule_.weights; }

  /// Collocation derivative matrix: D(i,j) = l_j'(x_i), row-major (n1d x n1d).
  /// For data f at GLL nodes, (df/dxi)(x_i) = sum_j D(i,j) f_j.
  [[nodiscard]] const std::vector<real_t>& deriv_matrix() const noexcept { return deriv_; }

  [[nodiscard]] real_t deriv(int i, int j) const {
    return deriv_[static_cast<std::size_t>(i) * static_cast<std::size_t>(nodes_1d()) + static_cast<std::size_t>(j)];
  }

  [[nodiscard]] int local_index(int i, int j, int k) const noexcept {
    return i + nodes_1d() * (j + nodes_1d() * k);
  }

  /// Local index of mesh corner c (bit 0 = x parity, 1 = y, 2 = z).
  [[nodiscard]] int corner_local_index(int c) const noexcept {
    const int n = order_;
    return local_index((c & 1) ? n : 0, (c & 2) ? n : 0, (c & 4) ? n : 0);
  }

  /// Evaluates all (N+1) 1D Lagrange basis functions at reference coord xi.
  [[nodiscard]] std::vector<real_t> lagrange_at(real_t xi) const;

private:
  int order_;
  GllRule rule_;
  std::vector<real_t> deriv_;
};

} // namespace ltswave::sem

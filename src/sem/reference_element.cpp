#include "sem/reference_element.hpp"

#include <cmath>

#include "common/check.hpp"

namespace ltswave::sem {

ReferenceElement::ReferenceElement(int order) : order_(order), rule_(gll_rule(order)) {
  const int n1 = nodes_1d();
  deriv_.assign(static_cast<std::size_t>(n1) * n1, 0.0);
  const auto& x = rule_.points;
  // Closed-form collocation derivatives of the GLL Lagrange basis:
  //   D_ij = P_N(x_i) / (P_N(x_j) (x_i - x_j))  for i != j,
  //   D_00 = -N(N+1)/4,  D_NN = +N(N+1)/4,  D_ii = 0 otherwise.
  for (int i = 0; i < n1; ++i) {
    for (int j = 0; j < n1; ++j) {
      real_t v;
      if (i == j) {
        if (i == 0)
          v = -order_ * (order_ + 1) / 4.0;
        else if (i == order_)
          v = order_ * (order_ + 1) / 4.0;
        else
          v = 0.0;
      } else {
        v = legendre(order_, x[static_cast<std::size_t>(i)]) /
            (legendre(order_, x[static_cast<std::size_t>(j)]) * (x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(j)]));
      }
      deriv_[static_cast<std::size_t>(i) * n1 + static_cast<std::size_t>(j)] = v;
    }
  }
}

std::vector<real_t> ReferenceElement::lagrange_at(real_t xi) const {
  const int n1 = nodes_1d();
  const auto& x = rule_.points;
  std::vector<real_t> l(static_cast<std::size_t>(n1), 1.0);
  for (int j = 0; j < n1; ++j) {
    for (int m = 0; m < n1; ++m) {
      if (m == j) continue;
      l[static_cast<std::size_t>(j)] *= (xi - x[static_cast<std::size_t>(m)]) / (x[static_cast<std::size_t>(j)] - x[static_cast<std::size_t>(m)]);
    }
  }
  return l;
}

} // namespace ltswave::sem

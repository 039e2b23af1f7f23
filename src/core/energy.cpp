#include "core/energy.hpp"

#include <numeric>

namespace ltswave::core {

real_t kinetic_energy(const sem::SemSpace& space, std::span<const real_t> v, int ncomp) {
  LTS_CHECK(v.size() == static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(ncomp));
  real_t e = 0;
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    real_t s = 0;
    for (int c = 0; c < ncomp; ++c) {
      const real_t vi = v[static_cast<std::size_t>(g) * static_cast<std::size_t>(ncomp) + static_cast<std::size_t>(c)];
      s += vi * vi;
    }
    e += space.mass()[static_cast<std::size_t>(g)] * s;
  }
  return 0.5 * e;
}

real_t cross_potential_energy(const sem::WaveOperator& op, std::span<const real_t> a,
                              std::span<const real_t> b) {
  LTS_CHECK(a.size() == b.size());
  std::vector<real_t> kb(b.size(), 0.0);
  {
    // A diagnostic: build a full-mesh plan for this one apply and drop it,
    // rather than pinning the operator's full_plan() beside a solver's own.
    sem::BatchPlan::Group all;
    all.elems.resize(static_cast<std::size_t>(op.space().num_elems()));
    std::iota(all.elems.begin(), all.elems.end(), index_t{0});
    const sem::BatchPlan plan(op.space(), op.ncomp(), {std::move(all)});
    auto ws = op.make_workspace();
    op.apply_add_blocks(plan, 0, plan.num_blocks(), b.data(), kb.data(), ws);
  }
  real_t e = 0;
  for (std::size_t i = 0; i < a.size(); ++i) e += a[i] * kb[i];
  return 0.5 * e;
}

real_t staggered_energy(const sem::WaveOperator& op, std::span<const real_t> u_n,
                        std::span<const real_t> u_np1, std::span<const real_t> v_half) {
  return kinetic_energy(op.space(), v_half, op.ncomp()) +
         cross_potential_energy(op, u_n, u_np1);
}

} // namespace ltswave::core

#include "core/lts_newmark.hpp"

#include <algorithm>

namespace ltswave::core {

LtsNewmarkReference::LtsNewmarkReference(const sem::WaveOperator& op,
                                         const LevelAssignment& levels,
                                         const LtsStructure& structure, Integrator integ)
    : op_(&op),
      levels_(&levels),
      structure_(&structure),
      integ_(integ),
      dt_(levels.dt),
      ncomp_(op.ncomp()),
      ws_(op.make_workspace()) {
  const auto& space = op.space();
  const std::size_t ndof =
      static_cast<std::size_t>(space.num_global_nodes()) * static_cast<std::size_t>(ncomp_);
  inv_mass_ = space.inv_mass();
  u_.assign(ndof, 0.0);
  v_.assign(ndof, 0.0);
}

void LtsNewmarkReference::set_state(std::span<const real_t> u0, std::span<const real_t> v0) {
  LTS_CHECK(u0.size() == u_.size() && v0.size() == v_.size());
  std::copy(u0.begin(), u0.end(), u_.begin());
  std::vector<index_t> all(static_cast<std::size_t>(op_->space().num_elems()));
  for (std::size_t e = 0; e < all.size(); ++e) all[e] = static_cast<index_t>(e);
  std::vector<real_t> ku(u_.size(), 0.0);
  op_->apply_add(all, u_.data(), ku.data(), ws_);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
    const real_t im = inv_mass_[g];
    for (std::size_t c = 0; c < nc; ++c) v_[g * nc + c] = v0[g * nc + c] + 0.5 * dt_ * im * ku[g * nc + c];
  }
  time_ = 0;
}

std::vector<real_t> LtsNewmarkReference::apply_level(level_t k, const std::vector<real_t>& field) {
  std::vector<real_t> out(field.size(), 0.0);
  structure_->apply_level_restricted(*op_, structure_->eval_elems[static_cast<std::size_t>(k - 1)],
                                     k, field.data(), out.data(), ws_);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
    const real_t im = inv_mass_[g];
    for (std::size_t c = 0; c < nc; ++c) out[g * nc + c] *= im;
  }
  return out;
}

std::vector<real_t> LtsNewmarkReference::run_level(level_t k, const std::vector<real_t>& u0,
                                                   const std::vector<real_t>& frozen) {
  const level_t nl = levels_->num_levels;
  const real_t delta = dt_ / static_cast<real_t>(level_rate(k));
  std::vector<real_t> ut = u0;
  std::vector<real_t> vt(u0.size(), 0.0);

  for (int m = 0; m < 2; ++m) {
    const bool first = (m == 0);
    if (k == nl) {
      const SubstepCoeffs cs = integ_.coeffs(k, nl, first, delta);
      auto F = apply_level(k, ut);
      for (std::size_t i = 0; i < F.size(); ++i) F[i] += frozen[i];
      for (std::size_t i = 0; i < ut.size(); ++i) {
        if (first)
          vt[i] = -cs.kick * F[i];
        else
          vt[i] -= cs.kick * F[i];
        ut[i] += cs.drift * vt[i];
      }
    } else {
      auto fk = apply_level(k, ut);
      for (std::size_t i = 0; i < fk.size(); ++i) fk[i] += frozen[i];
      const auto child = run_level(k + 1, ut, fk);
      for (std::size_t i = 0; i < ut.size(); ++i) {
        if (first)
          vt[i] = (child[i] - ut[i]) / delta;
        else
          vt[i] += 2.0 * (child[i] - ut[i]) / delta;
        ut[i] += delta * vt[i];
      }
    }
  }
  return ut;
}

void LtsNewmarkReference::step() {
  const level_t nl = levels_->num_levels;
  if (nl == 1) {
    auto F = apply_level(1, u_);
    for (std::size_t i = 0; i < u_.size(); ++i) {
      v_[i] -= dt_ * F[i];
      u_[i] += dt_ * v_[i];
    }
    time_ += dt_;
    return;
  }
  const auto f1 = apply_level(1, u_);
  const auto fine = run_level(2, u_, f1);
  for (std::size_t i = 0; i < u_.size(); ++i) {
    v_[i] += 2.0 * (fine[i] - u_[i]) / dt_;
    u_[i] += dt_ * v_[i];
  }
  time_ += dt_;
}

} // namespace ltswave::core

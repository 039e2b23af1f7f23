#include "core/lts_newmark.hpp"

#include <algorithm>

namespace ltswave::core {

namespace {

std::vector<sem::BatchPlan::Group> level_groups(const LtsStructure& structure) {
  std::vector<sem::BatchPlan::Group> groups;
  for (level_t k = 1; k <= structure.num_levels; ++k) {
    sem::BatchPlan::Group g;
    g.elems = structure.eval_elems[static_cast<std::size_t>(k - 1)];
    g.level = k;
    g.node_level = structure.node_level;
    groups.push_back(std::move(g));
  }
  return groups;
}

} // namespace

LtsNewmarkReference::LtsNewmarkReference(const sem::WaveOperator& op,
                                         const LevelAssignment& levels,
                                         const LtsStructure& structure)
    : op_(&op),
      levels_(&levels),
      dt_(levels.dt),
      ncomp_(op.ncomp()),
      plan_(op.space(), ncomp_, level_groups(structure)),
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
  // The level groups partition the columns (sum_k P_k = I), so all of them
  // together apply K u.
  std::vector<real_t> ku(u_.size(), 0.0);
  op_->apply_add_blocks(plan_, 0, plan_.num_blocks(), u_.data(), ku.data(), ws_);
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (std::size_t g = 0; g < inv_mass_.size(); ++g) {
    const real_t im = inv_mass_[g];
    for (std::size_t c = 0; c < nc; ++c) v_[g * nc + c] = v0[g * nc + c] + 0.5 * dt_ * im * ku[g * nc + c];
  }
  // v^{-1/2} = v(0) - dt/2 * Minv (f(0) - K u0).
  if (!sources_.empty()) {
    const auto a0 = source_accel(0.0);
    for (std::size_t i = 0; i < v_.size(); ++i) v_[i] -= 0.5 * dt_ * a0[i];
  }
  time_ = 0;
}

std::vector<real_t> LtsNewmarkReference::source_accel(real_t t) const {
  std::vector<real_t> a(u_.size(), 0.0);
  for (const auto& s : sources_) s.accumulate(t, ncomp_, a.data());
  const std::size_t nc = static_cast<std::size_t>(ncomp_);
  for (std::size_t g = 0; g < inv_mass_.size(); ++g)
    for (std::size_t c = 0; c < nc; ++c) a[g * nc + c] *= inv_mass_[g];
  return a;
}

std::vector<real_t> LtsNewmarkReference::apply_level(level_t k, const std::vector<real_t>& field) {
  std::vector<real_t> out(field.size(), 0.0);
  const auto blocks = plan_.group_blocks(static_cast<std::size_t>(k - 1));
  op_->apply_add_blocks(plan_, blocks.first, blocks.last, field.data(), out.data(), ws_);
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
      const real_t kick = first ? real_t(0.5) * delta : delta;
      auto F = apply_level(k, ut);
      for (std::size_t i = 0; i < F.size(); ++i) F[i] += frozen[i];
      for (std::size_t i = 0; i < ut.size(); ++i) {
        if (first)
          vt[i] = -kick * F[i];
        else
          vt[i] -= kick * F[i];
        ut[i] += delta * vt[i];
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
  // The force of level 1 plus the cycle-frozen source term -Minv f(t0).
  auto f1 = apply_level(1, u_);
  if (!sources_.empty()) {
    const auto a = source_accel(time_);
    for (std::size_t i = 0; i < f1.size(); ++i) f1[i] -= a[i];
  }
  if (nl == 1) {
    for (std::size_t i = 0; i < u_.size(); ++i) {
      v_[i] -= dt_ * f1[i];
      u_[i] += dt_ * v_[i];
    }
    time_ += dt_;
    return;
  }
  const auto fine = run_level(2, u_, f1);
  for (std::size_t i = 0; i < u_.size(); ++i) {
    v_[i] += 2.0 * (fine[i] - u_[i]) / dt_;
    u_[i] += dt_ * v_[i];
  }
  time_ += dt_;
}

} // namespace ltswave::core

#pragma once

/// \file lts_newmark.hpp
/// Multi-level LTS-Newmark (paper Sec. II, Algorithm 1 generalized to N
/// levels). There is one production engine, runtime::ThreadedLtsSolver
/// (runtime/threaded_lts.hpp): it runs the minimal-work recursion of paper
/// Sec. II-C on any number of ranks, and on one rank inline on the calling
/// thread — the "serial-lts" backend.
///
/// LtsNewmarkReference, declared here, is the independent ground truth that
/// engine is tested against: a direct transcription of the recursive scheme
/// on full-length global vectors. Every substep evaluates A P_k u with column
/// masking but updates *all* rows, exactly as the algebra is written. It uses
/// O(levels) full vectors of memory and O(N_dof) work per substep, so it
/// enjoys no LTS speedup. With a single level it reduces to the global
/// Newmark scheme exactly. Its stiffness applies run through its own
/// BatchPlan with one level-k group over E(k) per level — the same block
/// kernels as the engine (which the kernel tests check against a dense
/// element reference), none of the engine's rank/row/recursion machinery.
/// Point sources enter as the algebra writes them: the cycle-start sample
/// -Minv f(t) joins the level-1 frozen force, so it reaches every row
/// through the full recursion rather than the engine's per-level injection.

#include <vector>

#include "core/lts_levels.hpp"
#include "core/newmark.hpp"

namespace ltswave::core {

/// Reference implementation (tests only).
class LtsNewmarkReference {
public:
  LtsNewmarkReference(const sem::WaveOperator& op, const LevelAssignment& levels,
                      const LtsStructure& structure);

  /// Registers a point source; call before set_state so the staggered
  /// initial velocity sees f(0).
  void add_source(const sem::PointSource& src) { sources_.push_back(src); }

  void set_state(std::span<const real_t> u0, std::span<const real_t> v0);
  void step();

  [[nodiscard]] real_t time() const noexcept { return time_; }
  [[nodiscard]] real_t dt() const noexcept { return dt_; }
  [[nodiscard]] const std::vector<real_t>& u() const noexcept { return u_; }
  [[nodiscard]] const std::vector<real_t>& v_half() const noexcept { return v_; }

private:
  std::vector<real_t> apply_level(level_t k, const std::vector<real_t>& field);
  std::vector<real_t> run_level(level_t k, const std::vector<real_t>& u0,
                                const std::vector<real_t>& frozen);
  /// Minv f(t) over every registered source (ndof).
  std::vector<real_t> source_accel(real_t t) const;

  const sem::WaveOperator* op_;
  const LevelAssignment* levels_;
  real_t dt_;
  real_t time_ = 0;
  int ncomp_;
  std::vector<real_t> inv_mass_;
  std::vector<real_t> u_, v_;
  std::vector<sem::PointSource> sources_;
  sem::BatchPlan plan_; ///< group k-1 = level k over E(k)
  sem::KernelWorkspace ws_;
};

} // namespace ltswave::core

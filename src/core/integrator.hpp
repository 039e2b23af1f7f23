#pragma once

/// \file integrator.hpp
/// The pluggable time-integrator axis of the LTS machinery.
///
/// The paper's local-time-stepping recursion (Sec. II, Algorithm 1) is
/// integrator-agnostic: what varies between schemes is only the per-substep
/// velocity *kick* and displacement *drift* applied at the deepest level of
/// the recursion. An Integrator is a small value object that yields those
/// coefficients; the solvers (ThreadedLtsSolver, LtsNewmarkReference) consult
/// it at exactly the deepest-level update sites and keep every other update —
/// intermediate collapsed steps, velocity reconstructions, the top-level
/// physical step — in the scheme-independent form the algebra dictates.
///
/// Two integrators are built in:
///
///  * `newmark` — the paper's leapfrog/Newmark substeps: kick 0.5*delta on
///    the first substep (staggered start from rest), delta on the second,
///    drift delta on both. The default; selecting it is bitwise identical to
///    the pre-axis solvers.
///
///  * `leapfrog-stab` — stabilized leapfrog LTS after Grote, Michel & Sauter
///    (arXiv:2005.13350; convergence analysis arXiv:1703.07965). The two
///    deepest-level substeps use asymmetric spans s1 = (1+nu)*delta and
///    s2 = (1-nu)*delta with nu = 1/4: kick1 = s1/2, drift1 = s1,
///    kick2 = delta, drift2 = s2. Because s1 + s2 = 2*delta exactly, the
///    parent reconstruction wrapping the child pair is unchanged, and the
///    second-order consistency conditions s1*(s1+s2)/2 + s2*delta = 2*delta^2
///    hold for both the operator and the constant-forcing parts. The
///    resulting stability polynomial Phi(X) = 1 - 2X + C*X^2 with
///    C = (1+nu)^2*(1-nu)/2 = 75/128 > 1/2 satisfies |Phi| < 1 strictly on
///    the open stability interval — removing the tangency points at which
///    plain leapfrog-LTS is only neutrally stable (the resonances the
///    stabilization is named for). With a single level there is no deepest
///    recursion to stabilize and the scheme *is* plain leapfrog.
///
/// Integrators may own auxiliary state (none for the built-ins); it rides
/// through Executor::export_state / checkpoints as a flat real vector so a
/// future multi-stage scheme slots in without another format change.

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace ltswave::core {

enum class IntegratorKind { Newmark, LeapfrogStab };

/// One substep's update coefficients: `v -= kick * F; u += drift * v`.
struct SubstepCoeffs {
  real_t kick;
  real_t drift;
};

class Integrator {
public:
  Integrator() = default;

  [[nodiscard]] static Integrator newmark() { return Integrator{IntegratorKind::Newmark}; }
  [[nodiscard]] static Integrator leapfrog_stab() {
    return Integrator{IntegratorKind::LeapfrogStab};
  }

  /// Parses a registry name: "newmark" (or empty — the default),
  /// "leapfrog-stab" (alias "stabilized-leapfrog"). Throws CheckFailure
  /// naming the accepted spellings otherwise.
  [[nodiscard]] static Integrator parse(std::string_view name);

  /// Canonical registry name ("newmark" | "leapfrog-stab").
  [[nodiscard]] std::string_view name() const noexcept;

  [[nodiscard]] IntegratorKind kind() const noexcept { return kind_; }

  /// Kick/drift coefficients for substep `first`/second of level `k` in an
  /// `num_levels`-deep recursion with base substep `delta`. Every level but
  /// the deepest — and every level of the Newmark scheme — uses the baseline
  /// {first ? 0.5*delta : delta, delta}; the stabilized scheme perturbs only
  /// the deepest level (and only when there *is* a recursion, num_levels > 1).
  [[nodiscard]] SubstepCoeffs coeffs(level_t k, level_t num_levels, bool first,
                                     real_t delta) const noexcept {
    if (kind_ == IntegratorKind::LeapfrogStab && num_levels > 1 && k == num_levels) {
      // nu = 1/4; spans s1 = (1+nu)*delta, s2 = (1-nu)*delta sum to 2*delta
      // exactly, so the wrapping reconstruction is untouched.
      if (first) return {real_t(0.5) * (real_t(1) + kNu) * delta, (real_t(1) + kNu) * delta};
      return {delta, (real_t(1) - kNu) * delta};
    }
    return {first ? real_t(0.5) * delta : delta, delta};
  }

  /// Integrator-owned auxiliary state to carry through checkpoints — empty
  /// for both built-in schemes (their state is exactly (u, v_half)).
  [[nodiscard]] std::vector<real_t> aux_state() const { return {}; }

  /// Restores auxiliary state exported by aux_state(). Both built-ins own
  /// none, so anything non-empty is a cross-scheme mismatch the caller
  /// should have rejected; tolerate it here (restore semantics degrade to
  /// recompute, exactly like import_accumulators).
  void adopt_aux(std::span<const real_t> /*aux*/) {}

  /// The stabilization parameter of the leapfrog-stab scheme.
  static constexpr real_t kNu = real_t(0.25);

  /// "newmark | leapfrog-stab" — for error messages and usage lines.
  [[nodiscard]] static std::string_view names_help() noexcept;

  bool operator==(const Integrator&) const = default;

private:
  explicit Integrator(IntegratorKind k) : kind_(k) {}

  IntegratorKind kind_ = IntegratorKind::Newmark;
};

} // namespace ltswave::core

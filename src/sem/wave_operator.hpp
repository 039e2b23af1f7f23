#pragma once

/// \file wave_operator.hpp
/// Matrix-free application of the SEM stiffness matrix K (paper Eq. 3):
/// acoustic (scalar) and isotropic elastic (3-component) variants.
///
/// There is one apply entry point, apply_add_blocks: out += K (P_k) u over
/// the blocks of a precomputed sem::BatchPlan (one kernel call per block of W
/// elements, lane-interleaved slabs, per-block baked masks with a
/// homogeneous-block fast path). The plan decides what is applied: an
/// unmasked group over all elements is K u; a level-k group over E(k) is the
/// *column-restricted* K P_k u that reads only degrees of freedom belonging
/// to LTS level k (paper Sec. II-C: in the SEM the columns are restricted but
/// the rows still spread into neighbours), and the level groups together sum
/// to K u.
///
/// The per-block arithmetic is dispatched into the order-specialized kernel
/// engine (sem/kernels.hpp); the operators own the gather/scatter against the
/// global vectors and the resolved kernel function pointers. Every operator
/// also exposes a lazily built BatchPlan over all its elements in natural
/// order (full_plan) for measurement code.
///
/// Kernels are written against a caller-owned scratch workspace so that the
/// same operator object can be used concurrently from many threads (one
/// workspace per thread), which the rank-parallel executor relies on.

#include <memory>
#include <span>
#include <vector>

#include "sem/batch_plan.hpp"
#include "sem/kernels.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::sem {

/// Scratch buffers for one concurrent kernel evaluation, sized once per
/// (order, block width) — large enough for a full BatchPlan block slab per
/// buffer, so the same workspace serves every level and every apply without
/// re-derivation. The backing store is over-allocated so that buffer(0)
/// starts on a 64-byte boundary; the per-buffer stride is a whole number of
/// cache lines (block slabs are W*npts doubles with W a multiple of 8), so
/// every block slab stays 64-byte aligned.
class KernelWorkspace {
public:
  explicit KernelWorkspace(const SemSpace& space, int ncomp);

  [[nodiscard]] real_t* buffer(int which) noexcept {
    return aligned_base() + static_cast<std::size_t>(which) * stride_;
  }

private:
  [[nodiscard]] real_t* aligned_base() noexcept {
    auto p = reinterpret_cast<std::uintptr_t>(buf_.data());
    return reinterpret_cast<real_t*>((p + 63u) & ~std::uintptr_t{63u});
  }

  std::size_t stride_;
  std::vector<real_t> buf_;
};

/// Kernel selection policy: Auto resolves the compile-time specialization for
/// the space's order (falling back to the generic kernel for orders beyond
/// kernels::kMaxSpecializedNodes1d); Generic forces the runtime-n1 kernel —
/// used by tests to cross-validate the specializations.
enum class KernelMode { Auto, Generic };

/// Abstract stiffness operator; `ncomp` field components per global node,
/// fields stored interleaved (value of component c at node g is u[g*ncomp+c]).
class WaveOperator {
public:
  virtual ~WaveOperator() = default;

  [[nodiscard]] virtual int ncomp() const noexcept = 0;
  [[nodiscard]] const SemSpace& space() const noexcept { return *space_; }

  /// The stiffness apply: out += K (P_k) u over plan blocks [b0, b1).
  /// Column restriction is baked into the plan per block (level-k groups
  /// carry masks only on mixed blocks; homogeneous blocks take the plain
  /// gather); padded tail lanes are computed but never scattered. The plan
  /// must be built over this operator's space with matching ncomp.
  virtual void apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1, const real_t* u,
                                real_t* out, KernelWorkspace& ws) const = 0;

  /// All-elements unmasked BatchPlan in natural element order — K u over
  /// every element. Built lazily on first call and then kept for the
  /// operator's lifetime, so it is a second resident metric copy for any
  /// solver that holds its own plan: only measurement code may use it — the
  /// LTS engine (the "newmark" backend included) applies K u through its own
  /// plan. Not thread-safe on the *first* call: callers run on the
  /// driving thread while any worker pool is idle.
  [[nodiscard]] const BatchPlan& full_plan() const;

  [[nodiscard]] KernelWorkspace make_workspace() const {
    return KernelWorkspace(*space_, ncomp());
  }

protected:
  explicit WaveOperator(const SemSpace& space) : space_(&space) {}

private:
  const SemSpace* space_;
  /// Lazily materialized by full_plan(). Shared so operator copies stay
  /// cheap and keep working.
  mutable std::shared_ptr<const BatchPlan> full_plan_;
};

/// Scalar acoustic wave: rho u_tt = div(kappa grad u), kappa = rho vp^2.
class AcousticOperator final : public WaveOperator {
public:
  explicit AcousticOperator(const SemSpace& space, KernelMode mode = KernelMode::Auto);

  [[nodiscard]] int ncomp() const noexcept override { return 1; }
  void apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1, const real_t* u,
                        real_t* out, KernelWorkspace& ws) const override;

private:
  std::vector<real_t> kappa_; // per element
  kernels::AcousticBlockFn block_kernel_;
  kernels::AcousticBlockAffineFn affine_kernel_;
};

/// Isotropic elastic wave (paper Eq. 1-2 with isotropic C):
/// rho u_tt = div sigma, sigma = lambda tr(eps) I + 2 mu eps.
class ElasticOperator final : public WaveOperator {
public:
  explicit ElasticOperator(const SemSpace& space, KernelMode mode = KernelMode::Auto);

  [[nodiscard]] int ncomp() const noexcept override { return 3; }
  void apply_add_blocks(const BatchPlan& plan, index_t b0, index_t b1, const real_t* u,
                        real_t* out, KernelWorkspace& ws) const override;

private:
  std::vector<real_t> lambda_; // per element
  std::vector<real_t> mu_;     // per element
  kernels::ElasticBlockFn block_kernel_;
  kernels::ElasticBlockAffineFn affine_kernel_;
};

} // namespace ltswave::sem

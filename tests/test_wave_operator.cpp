// Stiffness-operator tests: symmetry, positive semidefiniteness, null spaces
// (constants / rigid motions), interior equilibrium for linear fields, and —
// critical for LTS — completeness of the column-masked applies:
// sum over levels of K P_k u == K u.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/lts_levels.hpp"
#include "mesh/generators.hpp"
#include "sem/wave_operator.hpp"

namespace ltswave::sem {
namespace {

std::vector<real_t> random_field(std::size_t n, Rng& rng) {
  std::vector<real_t> u(n);
  for (auto& x : u) x = rng.uniform_real(-1, 1);
  return u;
}

real_t dot(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  real_t s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// K u over every element, through the operator's full-mesh plan.
template <class Op>
std::vector<real_t> apply_full(const Op& op, const std::vector<real_t>& u) {
  std::vector<real_t> out(u.size(), 0.0);
  auto ws = op.make_workspace();
  const BatchPlan& plan = op.full_plan();
  op.apply_add_blocks(plan, 0, plan.num_blocks(), u.data(), out.data(), ws);
  return out;
}

struct OperatorCase {
  bool elastic;
  bool warped;
};

class WaveOperatorTest : public testing::TestWithParam<OperatorCase> {
protected:
  void SetUp() override {
    mesh::Material mat;
    mat.vp = 1.7;
    mat.vs = 0.9;
    mat.rho = 1.3;
    mesh_ = mesh::make_uniform_box(3, 2, 2, {1.0, 0.8, 0.9}, mat);
    if (GetParam().warped) {
      warp_nodes(mesh_, [](real_t& x, real_t& y, real_t& z) {
        x += 0.04 * std::sin(3 * y + z);
        z += 0.03 * std::cos(2 * x);
      });
    }
    space_ = std::make_unique<SemSpace>(mesh_, 4);
    if (GetParam().elastic)
      op_ = std::make_unique<ElasticOperator>(*space_);
    else
      op_ = std::make_unique<AcousticOperator>(*space_);
    ndof_ = static_cast<std::size_t>(space_->num_global_nodes()) * static_cast<std::size_t>(op_->ncomp());
  }

  mesh::HexMesh mesh_;
  std::unique_ptr<SemSpace> space_;
  std::unique_ptr<WaveOperator> op_;
  std::size_t ndof_ = 0;
};

TEST_P(WaveOperatorTest, Symmetry) {
  Rng rng(42);
  for (int trial = 0; trial < 3; ++trial) {
    const auto a = random_field(ndof_, rng);
    const auto b = random_field(ndof_, rng);
    const real_t aKb = dot(a, apply_full(*op_, b));
    const real_t bKa = dot(b, apply_full(*op_, a));
    EXPECT_NEAR(aKb, bKa, 1e-9 * std::max(std::abs(aKb), 1.0));
  }
}

TEST_P(WaveOperatorTest, PositiveSemidefinite) {
  Rng rng(7);
  for (int trial = 0; trial < 5; ++trial) {
    const auto u = random_field(ndof_, rng);
    EXPECT_GE(dot(u, apply_full(*op_, u)), -1e-9);
  }
}

TEST_P(WaveOperatorTest, NullSpaceContainsConstantsOrTranslations) {
  const int nc = op_->ncomp();
  for (int c = 0; c < nc; ++c) {
    std::vector<real_t> u(ndof_, 0.0);
    for (gindex_t g = 0; g < space_->num_global_nodes(); ++g)
      u[static_cast<std::size_t>(g) * static_cast<std::size_t>(nc) + static_cast<std::size_t>(c)] = 1.0;
    const auto ku = apply_full(*op_, u);
    for (real_t v : ku) EXPECT_NEAR(v, 0.0, 1e-9);
  }
}

TEST_P(WaveOperatorTest, MaskedAppliesSumToFullApply) {
  // Assign synthetic multi-level structure and verify
  // sum_k K P_k u over E(k) == K u. This is the exact identity the LTS
  // solver relies on (sum_k P_k = I, Eq. 15).
  Rng rng(3);
  const auto u = random_field(ndof_, rng);

  // Levels from geometry: elements in the left half are level 2.
  std::vector<level_t> elem_level(static_cast<std::size_t>(mesh_.num_elems()), 1);
  for (index_t e = 0; e < mesh_.num_elems(); ++e)
    if (mesh_.centroid(e)[0] < 0.5) elem_level[static_cast<std::size_t>(e)] = 2;

  core::LevelAssignment levels;
  levels.num_levels = 2;
  levels.dt = 1e-3;
  levels.elem_level = elem_level;
  levels.level_counts.assign(2, 0);
  for (level_t l : elem_level) ++levels.level_counts[static_cast<std::size_t>(l - 1)];
  ASSERT_GT(levels.level_counts[0], 0);
  ASSERT_GT(levels.level_counts[1], 0);

  const auto st = core::build_lts_structure(*space_, levels);

  // One level-k group over E(k) per level, applied group by group.
  std::vector<BatchPlan::Group> groups;
  for (level_t k = 1; k <= 2; ++k)
    groups.push_back({st.eval_elems[static_cast<std::size_t>(k - 1)], k, st.node_level});
  const BatchPlan plan(*space_, op_->ncomp(), std::move(groups));
  std::vector<real_t> sum(ndof_, 0.0);
  auto ws = op_->make_workspace();
  for (std::size_t g = 0; g < plan.num_groups(); ++g) {
    const auto range = plan.group_blocks(g);
    op_->apply_add_blocks(plan, range.first, range.last, u.data(), sum.data(), ws);
  }

  const auto full = apply_full(*op_, u);
  for (std::size_t i = 0; i < ndof_; ++i)
    EXPECT_NEAR(sum[i], full[i], 1e-10 * std::max(1.0, std::abs(full[i]))) << "dof " << i;
}

INSTANTIATE_TEST_SUITE_P(Cases, WaveOperatorTest,
                         testing::Values(OperatorCase{false, false}, OperatorCase{false, true},
                                         OperatorCase{true, false}, OperatorCase{true, true}),
                         [](const testing::TestParamInfo<OperatorCase>& info) {
                           std::string s = info.param.elastic ? "Elastic" : "Acoustic";
                           s += info.param.warped ? "Warped" : "Brick";
                           return s;
                         });

TEST(AcousticOperator, InteriorEquilibriumForLinearField) {
  // For constant kappa and a globally linear field, div(kappa grad u) = 0, so
  // interior rows of K u vanish (boundary rows hold the surface flux).
  const auto m = mesh::make_uniform_box(3, 3, 3);
  SemSpace space(m, 4);
  AcousticOperator op(space);
  const std::size_t n = static_cast<std::size_t>(space.num_global_nodes());
  std::vector<real_t> u(n);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    u[static_cast<std::size_t>(g)] = 2 * x[0] - 3 * x[1] + 0.5 * x[2] + 1.0;
  }
  const auto ku = apply_full(op, u);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    const bool interior = x[0] > 1e-9 && x[0] < 1 - 1e-9 && x[1] > 1e-9 && x[1] < 1 - 1e-9 &&
                          x[2] > 1e-9 && x[2] < 1 - 1e-9;
    if (interior) {
      EXPECT_NEAR(ku[static_cast<std::size_t>(g)], 0.0, 1e-9);
    }
  }
}

TEST(ElasticOperator, RigidRotationIsStressFree) {
  // u = W x with antisymmetric W has zero strain: K u == 0 everywhere.
  const auto m = mesh::make_uniform_box(2, 2, 2);
  SemSpace space(m, 3);
  ElasticOperator op(space);
  const std::size_t ndof = static_cast<std::size_t>(space.num_global_nodes()) * 3;
  std::vector<real_t> u(ndof);
  for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
    const auto x = space.node_coord(g);
    // W = [[0,a,b],[-a,0,c],[-b,-c,0]]
    const real_t a = 0.3, b = -0.7, c = 0.2;
    u[static_cast<std::size_t>(g) * 3 + 0] = a * x[1] + b * x[2];
    u[static_cast<std::size_t>(g) * 3 + 1] = -a * x[0] + c * x[2];
    u[static_cast<std::size_t>(g) * 3 + 2] = -b * x[0] - c * x[1];
  }
  const auto ku = apply_full(op, u);
  for (real_t v : ku) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(ElasticOperator, RejectsNonPhysicalModuli) {
  mesh::Material bad;
  bad.vp = 1.0;
  bad.vs = 1.0; // lambda + 2 mu = rho (vp^2 - 2 vs^2) + 2 rho vs^2 -> vp^2 rho > 0 fine;
  // make lambda + 2mu <= 0 impossible via vp=0 instead:
  bad.vp = 0.0;
  const auto m = mesh::make_uniform_box(1, 1, 1, {1, 1, 1}, bad);
  EXPECT_THROW(
      {
        SemSpace space(m, 2);
        ElasticOperator op(space);
      },
      CheckFailure);
}

} // namespace
} // namespace ltswave::sem

// SemSpace tests: global numbering correctness on conforming meshes
// (including rotated element orientations exercising the canonical face/edge
// maps), element metrics (against an exact affine map, and the plan's
// corner affinity test against the numeric metric test), and the lumped mass
// matrix.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <set>

#include "mesh/generators.hpp"
#include "scenarios/scenario.hpp"
#include "sem/batch_plan.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::sem {
namespace {

class SpaceOrder : public testing::TestWithParam<int> {};

TEST_P(SpaceOrder, StructuredBoxNodeCount) {
  const int N = GetParam();
  const index_t nx = 3, ny = 2, nz = 2;
  const auto m = mesh::make_uniform_box(nx, ny, nz);
  SemSpace space(m, N);
  // Conforming tensor grid: (N*nx+1)(N*ny+1)(N*nz+1) unique nodes.
  const gindex_t expected = static_cast<gindex_t>(N * nx + 1) * (N * ny + 1) * (N * nz + 1);
  EXPECT_EQ(space.num_global_nodes(), expected);
}

TEST_P(SpaceOrder, QuadratureVolumeMatchesBox) {
  const auto m = mesh::make_uniform_box(2, 3, 2, {2.0, 1.0, 1.5});
  SemSpace space(m, GetParam());
  EXPECT_NEAR(space.quadrature_volume(), 3.0, 1e-10);
}

TEST_P(SpaceOrder, MassSumsToRhoVolume) {
  mesh::Material mat;
  mat.rho = 2.5;
  const auto m = mesh::make_uniform_box(2, 2, 2, {1.0, 1.0, 1.0}, mat);
  SemSpace space(m, GetParam());
  real_t total = 0;
  for (real_t v : space.mass()) total += v;
  EXPECT_NEAR(total, 2.5, 1e-10);
}

TEST_P(SpaceOrder, MassPositiveOnWarpedMesh) {
  auto m = mesh::make_trench_mesh({.n = 6, .nz = 4, .squeeze = 4.0, .trench_halfwidth = 0.1,
                                   .depth_power = 2.0, .mat = {}});
  SemSpace space(m, GetParam());
  for (real_t v : space.mass()) EXPECT_GT(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Orders, SpaceOrder, testing::Values(1, 2, 3, 4, 5));

TEST(SemSpace, SharedFaceNodesHaveConsistentCoordinates) {
  // On a conforming mesh, every global node must map to a single physical
  // location; verify by recomputing per-element node positions and comparing.
  auto m = mesh::make_embedding_mesh({.n = 5, .squeeze = 3.0, .radius = 0.4,
                                      .center = {0.5, 0.5, 0.5}, .mat = {}});
  SemSpace space(m, 4);
  const int npts = space.nodes_per_elem();
  std::vector<char> seen(static_cast<std::size_t>(space.num_global_nodes()), 0);
  for (index_t e = 0; e < space.num_elems(); ++e) {
    const gindex_t* l2g = space.elem_nodes(e);
    for (int q = 0; q < npts; ++q) seen[static_cast<std::size_t>(l2g[q])] = 1;
  }
  // Every global node is referenced by at least one element.
  for (char s : seen) EXPECT_TRUE(s);
}

TEST(SemSpace, RotatedNeighborSharesFaceNodes) {
  // Two unit cubes sharing the x=1 face, with the second element's corner
  // ordering rotated 90 degrees about the x axis. The canonical face map must
  // still identify the 2 elements' face nodes, giving the conforming count.
  std::vector<real_t> coords;
  auto push = [&](real_t x, real_t y, real_t z) {
    coords.push_back(x);
    coords.push_back(y);
    coords.push_back(z);
  };
  // 12 nodes of a 2x1x1 two-cube strip.
  for (int ix = 0; ix <= 2; ++ix)
    for (int iy = 0; iy <= 1; ++iy)
      for (int iz = 0; iz <= 1; ++iz) push(ix, iy, iz);
  auto id = [&](int ix, int iy, int iz) { return static_cast<index_t>(iz + 2 * (iy + 2 * ix)); };

  // Element 0: standard orientation (corner = i + 2j + 4k).
  std::vector<index_t> conn = {id(0, 0, 0), id(1, 0, 0), id(0, 1, 0), id(1, 1, 0),
                               id(0, 0, 1), id(1, 0, 1), id(0, 1, 1), id(1, 1, 1)};
  // Element 1: local frame rotated about x: local y' = global z, z' = -global y.
  // Map local (i,j,k) -> global node (1+i, 1-k, j).
  for (int c = 0; c < 8; ++c) {
    const int i = c & 1, j = (c >> 1) & 1, k = (c >> 2) & 1;
    conn.push_back(id(1 + i, 1 - k, j));
  }
  mesh::HexMesh m(coords, conn, {mesh::Material{}, mesh::Material{}});
  m.validate();

  const int order = 4;
  SemSpace space(m, order);
  // Conforming count: two cubes share one (order+1)^2 face.
  const gindex_t per_cube = static_cast<gindex_t>(order + 1) * (order + 1) * (order + 1);
  const gindex_t shared = static_cast<gindex_t>(order + 1) * (order + 1);
  EXPECT_EQ(space.num_global_nodes(), 2 * per_cube - shared);

  // The shared nodes must agree geometrically: nodes of element 0 on x=1 and
  // element 1 nodes at x=1 are the same set of global indices.
  std::set<gindex_t> face0, face1;
  const auto& ref = space.ref();
  for (int b = 0; b <= order; ++b)
    for (int a = 0; a <= order; ++a) {
      face0.insert(space.elem_nodes(0)[ref.local_index(order, a, b)]);
      face1.insert(space.elem_nodes(1)[ref.local_index(0, a, b)]);
    }
  EXPECT_EQ(face0, face1);
}

/// One hexahedron mapped affinely, x = A xi + b, with corner c at
/// xi = (+-1, +-1, +-1) (bit 0 = xi, 1 = eta, 2 = zeta).
mesh::HexMesh affine_hex(const real_t (&A)[3][3], const real_t (&b)[3], mesh::Material mat) {
  std::vector<real_t> coords;
  std::vector<index_t> conn;
  for (int c = 0; c < 8; ++c) {
    const real_t xi[3] = {(c & 1) ? 1.0 : -1.0, (c & 2) ? 1.0 : -1.0, (c & 4) ? 1.0 : -1.0};
    for (int d = 0; d < 3; ++d)
      coords.push_back(A[d][0] * xi[0] + A[d][1] * xi[1] + A[d][2] * xi[2] + b[d]);
    conn.push_back(c);
  }
  return mesh::HexMesh(coords, conn, {mat});
}

TEST(SemSpace, ElementMetricsOnAffineElementMatchTheLinearMap) {
  // x = A xi + b: J = A at every point, so jinv = A^-1, gmat = w det A
  // A^-1 A^-T and wjinv = w det A A^-1 exactly (up to rounding).
  const real_t A[3][3] = {{0.8, 0.1, -0.05}, {0.2, 0.6, 0.1}, {-0.1, 0.05, 0.5}};
  const real_t b[3] = {0.3, -0.2, 1.1};
  mesh::Material mat;
  mat.rho = 1.7;
  const auto m = affine_hex(A, b, mat);
  const real_t detA = A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1]) -
                      A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0]) +
                      A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]);
  ASSERT_GT(detA, 0);
  // A^-1 by the cyclic cofactor formula: Ainv[r][d] = C[d][r] / det A.
  real_t Ainv[3][3];
  for (int r = 0; r < 3; ++r)
    for (int d = 0; d < 3; ++d)
      Ainv[r][d] = (A[(d + 1) % 3][(r + 1) % 3] * A[(d + 2) % 3][(r + 2) % 3] -
                    A[(d + 1) % 3][(r + 2) % 3] * A[(d + 2) % 3][(r + 1) % 3]) /
                   detA;

  for (int order : {1, 3, 4}) {
    SemSpace space(m, order);
    const int n1 = order + 1;
    const auto& w = space.ref().weights();
    std::vector<SemSpace::PointMetrics> pts(static_cast<std::size_t>(space.nodes_per_elem()));
    space.element_metrics(0, pts);
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j)
        for (int i = 0; i < n1; ++i) {
          const auto& pm = pts[static_cast<std::size_t>(space.ref().local_index(i, j, k))];
          const real_t wd = w[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(j)] *
                            w[static_cast<std::size_t>(k)] * detA;
          EXPECT_NEAR(pm.det, detA, 1e-14);
          for (int r = 0; r < 3; ++r)
            for (int d = 0; d < 3; ++d) {
              EXPECT_NEAR(pm.jinv[r * 3 + d], Ainv[r][d], 1e-14);
              EXPECT_NEAR(pm.wjinv[r * 3 + d], wd * Ainv[r][d], 1e-14);
            }
          int plane = 0;
          for (int r = 0; r < 3; ++r)
            for (int s = r; s < 3; ++s) {
              const real_t g = wd * (Ainv[r][0] * Ainv[s][0] + Ainv[r][1] * Ainv[s][1] +
                                     Ainv[r][2] * Ainv[s][2]);
              EXPECT_NEAR(pm.gmat[plane++], g, 1e-14);
            }
        }
    // The geometry the space keeps: volume and mass sums.
    EXPECT_NEAR(space.quadrature_volume(), 8 * detA, 1e-14);
    real_t total = 0;
    for (real_t v : space.mass()) total += v;
    EXPECT_NEAR(total, mat.rho * 8 * detA, 1e-14);
  }
}

TEST(SemSpace, ElementMetricsOnStretchedBrick) {
  // A single brick [0,2]x[0,1]x[0,0.5]: jinv diagonal = (1, 2, 4) since
  // xi = x - 1 on [-1,1] etc. A prefix request evaluates only those points.
  const auto m = mesh::make_uniform_box(1, 1, 1, {2.0, 1.0, 0.5});
  SemSpace space(m, 3);
  std::vector<SemSpace::PointMetrics> pts(6);
  space.element_metrics(0, pts);
  const real_t* ji = pts[5].jinv;
  EXPECT_NEAR(ji[0], 1.0, 1e-12);
  EXPECT_NEAR(ji[4], 2.0, 1e-12);
  EXPECT_NEAR(ji[8], 4.0, 1e-12);
  EXPECT_NEAR(ji[1], 0.0, 1e-12);
  EXPECT_NEAR(pts[5].det, 0.125, 1e-14);
}

/// The numeric affinity test the plan used before the corner test, kept as
/// its oracle: evaluate the metrics at every point and require the planes
/// the physics streams to be w_q-separable (gmat; wjinv) or constant (jinv)
/// within 64 ulp of the whole tensor's magnitude.
bool numeric_affine(const SemSpace& space, index_t e, int ncomp,
                    std::vector<SemSpace::PointMetrics>& pts) {
  const int n1 = space.ref().nodes_1d();
  const int npts = space.nodes_per_elem();
  const auto& w1 = space.ref().weights();
  std::vector<real_t> w3(static_cast<std::size_t>(npts));
  for (int k = 0; k < n1; ++k)
    for (int j = 0; j < n1; ++j)
      for (int i = 0; i < n1; ++i)
        w3[static_cast<std::size_t>((k * n1 + j) * n1 + i)] =
            w1[static_cast<std::size_t>(i)] * w1[static_cast<std::size_t>(j)] *
            w1[static_cast<std::size_t>(k)];
  space.element_metrics(e, pts);
  const real_t tol = 64 * std::numeric_limits<real_t>::epsilon();
  const auto value = [&](int which, int p, int q) {
    const auto& pm = pts[static_cast<std::size_t>(q)];
    return which == 0 ? pm.gmat[p] : which == 1 ? pm.jinv[p] : pm.wjinv[p];
  };
  const auto scale = [&](int which, int nplanes) {
    real_t s = 0;
    for (int q = 0; q < npts; ++q)
      for (int p = 0; p < nplanes; ++p) s = std::max(s, std::abs(value(which, p, q)));
    return std::max(s, real_t{1e-300});
  };
  const auto separable = [&](int which, int p, real_t sc) {
    const real_t c = value(which, p, 0) / w3[0];
    for (int q = 1; q < npts; ++q)
      if (std::abs(value(which, p, q) - w3[static_cast<std::size_t>(q)] * c) > tol * sc)
        return false;
    return true;
  };
  const auto constant = [&](int which, int p, real_t sc) {
    for (int q = 1; q < npts; ++q)
      if (std::abs(value(which, p, q) - value(which, p, 0)) > tol * sc) return false;
    return true;
  };
  if (ncomp == 1) {
    const real_t sc = scale(0, 6) / w3[0];
    for (int p = 0; p < 6; ++p)
      if (!separable(0, p, sc)) return false;
    return true;
  }
  const real_t jsc = scale(1, 9), wsc = scale(2, 9) / w3[0];
  for (int p = 0; p < 9; ++p)
    if (!constant(1, p, jsc) || !separable(2, p, wsc)) return false;
  return true;
}

TEST(SemSpace, CornerAffineTestAgreesWithNumericOracleOnScenarioMeshes) {
  // BatchPlan::elem_affine decides the compact-vs-full metric layout from
  // the corners alone; on every registered mesh it must classify each
  // element exactly as the numeric metric test does, for both physics.
  for (const auto& name : scenarios::names()) {
    const auto spec = scenarios::get(name);
    const auto m = spec.build_mesh();
    SemSpace space(m, spec.order);
    std::vector<SemSpace::PointMetrics> pts(static_cast<std::size_t>(space.nodes_per_elem()));
    index_t affine = 0, disagree = 0;
    for (index_t e = 0; e < space.num_elems(); ++e) {
      const bool corner = BatchPlan::elem_affine(space, e);
      affine += corner ? 1 : 0;
      for (const int ncomp : {1, 3})
        if (corner != numeric_affine(space, e, ncomp, pts)) ++disagree;
    }
    EXPECT_EQ(disagree, 0) << name << ": " << affine << " of " << space.num_elems()
                           << " elements affine by the corner test";
  }
}

TEST(SemSpace, NearestNodeFindsCorner) {
  const auto m = mesh::make_uniform_box(2, 2, 2);
  SemSpace space(m, 2);
  const gindex_t g = space.nearest_node({0.0, 0.0, 0.0});
  const auto x = space.node_coord(g);
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  EXPECT_NEAR(x[2], 0.0, 1e-12);
}

TEST(SemSpace, NearestNodeMatchesBruteForce) {
  // The grid-indexed search must agree with an exhaustive scan, including for
  // queries outside the mesh bounding box and on an anisotropic warped mesh.
  auto m = mesh::make_uniform_box(4, 3, 2, {2.0, 1.0, 0.4});
  warp_nodes(m, [](real_t& x, real_t& y, real_t& z) {
    x += 0.03 * std::sin(5 * y);
    z += 0.02 * std::cos(4 * x + y);
  });
  SemSpace space(m, 3);

  auto brute = [&](std::array<real_t, 3> x) {
    gindex_t best = 0;
    real_t best_d = std::numeric_limits<real_t>::max();
    for (gindex_t g = 0; g < space.num_global_nodes(); ++g) {
      const auto p = space.node_coord(g);
      const real_t d = (p[0] - x[0]) * (p[0] - x[0]) + (p[1] - x[1]) * (p[1] - x[1]) +
                       (p[2] - x[2]) * (p[2] - x[2]);
      if (d < best_d) {
        best_d = d;
        best = g;
      }
    }
    return best;
  };

  std::mt19937 rng(123);
  std::uniform_real_distribution<real_t> ux(-0.5, 2.5), uy(-0.5, 1.5), uz(-0.5, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    const std::array<real_t, 3> x = {ux(rng), uy(rng), uz(rng)};
    const gindex_t got = space.nearest_node(x);
    const gindex_t want = brute(x);
    // Ties (equidistant nodes) may resolve differently; compare distances.
    const auto pg = space.node_coord(got);
    const auto pw = space.node_coord(want);
    const real_t dg = (pg[0] - x[0]) * (pg[0] - x[0]) + (pg[1] - x[1]) * (pg[1] - x[1]) +
                      (pg[2] - x[2]) * (pg[2] - x[2]);
    const real_t dw = (pw[0] - x[0]) * (pw[0] - x[0]) + (pw[1] - x[1]) * (pw[1] - x[1]) +
                      (pw[2] - x[2]) * (pw[2] - x[2]);
    EXPECT_NEAR(dg, dw, 1e-12) << "query " << x[0] << "," << x[1] << "," << x[2];
  }
}

TEST(SemSpace, RejectsInvertedElement) {
  // Swap two corners to invert the reference orientation.
  std::vector<real_t> coords = {0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0,
                                0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1};
  std::vector<index_t> conn = {1, 0, 3, 2, 5, 4, 7, 6}; // mirrored in x
  mesh::HexMesh m(coords, conn, {mesh::Material{}});
  EXPECT_THROW(SemSpace(m, 2), CheckFailure);
}

} // namespace
} // namespace ltswave::sem

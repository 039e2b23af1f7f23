// Hex-mesh and generator tests: structural invariants, adjacency, geometry,
// and the refinement topology of the four paper benchmark meshes.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <set>

#include "mesh/generators.hpp"
#include "mesh/mesh_io.hpp"

namespace ltswave::mesh {
namespace {

TEST(UniformBox, CountsAndVolume) {
  const auto m = make_uniform_box(3, 4, 5);
  EXPECT_EQ(m.num_elems(), 3 * 4 * 5);
  EXPECT_EQ(m.num_nodes(), 4 * 5 * 6);
  m.validate();
  real_t vol = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) vol += m.volume(e);
  EXPECT_NEAR(vol, 1.0, 1e-12);
}

TEST(UniformBox, FaceNeighborCounts) {
  const auto m = make_uniform_box(3, 3, 3);
  int boundary_faces = 0;
  for (index_t e = 0; e < m.num_elems(); ++e)
    for (int f = 0; f < kFacesPerElem; ++f)
      if (m.neighbor(e, static_cast<Face>(f)) == kInvalidIndex) ++boundary_faces;
  EXPECT_EQ(boundary_faces, 6 * 3 * 3); // 6 sides x 9 faces each
}

TEST(UniformBox, NeighborsAreMutual) {
  const auto m = make_uniform_box(4, 3, 2);
  for (index_t e = 0; e < m.num_elems(); ++e)
    for (int f = 0; f < kFacesPerElem; ++f) {
      const index_t u = m.neighbor(e, static_cast<Face>(f));
      if (u == kInvalidIndex) continue;
      bool found = false;
      for (int g = 0; g < kFacesPerElem; ++g) found |= (m.neighbor(u, static_cast<Face>(g)) == e);
      EXPECT_TRUE(found) << "edge " << e << "<->" << u;
    }
}

TEST(UniformBox, NodeToElemAdjacency) {
  const auto m = make_uniform_box(2, 2, 2);
  const auto& n2e = m.node_to_elem();
  // The center node of a 2x2x2 box touches all 8 elements.
  int max_deg = 0;
  for (index_t n = 0; n < m.num_nodes(); ++n) max_deg = std::max(max_deg, static_cast<int>(n2e.size(n)));
  EXPECT_EQ(max_deg, 8);
  // Every element appears exactly 8 times in total.
  EXPECT_EQ(n2e.adj.size(), static_cast<std::size_t>(8 * m.num_elems()));
}

TEST(UniformBox, CharLengthAndCflDt) {
  Material mat;
  mat.vp = 2.0;
  const auto m = make_uniform_box(4, 2, 2, {1.0, 1.0, 1.0}, mat);
  // dx = 0.25 is the smallest edge.
  EXPECT_NEAR(m.char_length(0), 0.25, 1e-12);
  EXPECT_NEAR(m.cfl_dt(0, 0.5), 0.5 * 0.25 / 2.0, 1e-12);
}

TEST(HexMesh, ValidateRejectsDegenerates) {
  // Two corners collapsed onto one node.
  std::vector<real_t> coords = {0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0,
                                0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 1};
  std::vector<index_t> conn = {0, 1, 2, 3, 4, 5, 6, 6}; // repeated corner
  EXPECT_THROW(HexMesh(coords, conn, {Material{}}).validate(), CheckFailure);
}

TEST(HexMesh, BoundingBox) {
  const auto m = make_uniform_box(2, 2, 2, {2.0, 3.0, 4.0});
  const auto bb = m.bounding_box();
  EXPECT_NEAR(bb[3], 2.0, 1e-12);
  EXPECT_NEAR(bb[4], 3.0, 1e-12);
  EXPECT_NEAR(bb[5], 4.0, 1e-12);
}

TEST(Warp, PreservesConnectivityAndConformity) {
  auto m = make_uniform_box(3, 3, 3);
  warp_nodes(m, [](real_t& x, real_t& y, real_t&) {
    x += 0.05 * std::sin(y * 3);
    y += 0.03 * std::cos(x * 2);
  });
  m.validate();
  EXPECT_EQ(m.num_elems(), 27);
}

class GeneratorTest : public testing::TestWithParam<int> {};

TEST(Trench, RefinementIsLocalizedAtSurfaceStrip) {
  TrenchSpec spec;
  spec.n = 16;
  spec.squeeze = 8.0;
  const auto m = make_trench_mesh(spec);
  m.validate();
  // Size ratio across the mesh should reach ~squeeze.
  real_t hmin = 1e30, hmax = 0;
  index_t argmin = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const real_t h = m.char_length(e);
    if (h < hmin) {
      hmin = h;
      argmin = e;
    }
    hmax = std::max(hmax, h);
  }
  EXPECT_GT(hmax / hmin, 4.0);
  // The smallest element sits near the surface (z close to top) and near the
  // trench axis x ~ 0.5.
  const auto c = m.centroid(argmin);
  EXPECT_GT(c[2], 0.4);
  EXPECT_NEAR(c[0], 0.5, 0.15);
}

TEST(TrenchBig, DeeperSqueezeThanTrench) {
  const auto big = make_trench_big_mesh(16);
  big.validate();
  real_t hmin = 1e30, hmax = 0;
  for (index_t e = 0; e < big.num_elems(); ++e) {
    hmin = std::min(hmin, big.char_length(e));
    hmax = std::max(hmax, big.char_length(e));
  }
  EXPECT_GT(hmax / hmin, 12.0);
}

TEST(Embedding, RefinementIsLocalizedAtCenter) {
  EmbeddingSpec spec;
  spec.n = 12;
  const auto m = make_embedding_mesh(spec);
  m.validate();
  real_t hmin = 1e30;
  index_t argmin = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) {
    const real_t h = m.char_length(e);
    if (h < hmin) {
      hmin = h;
      argmin = e;
    }
  }
  const auto c = m.centroid(argmin);
  const real_t d = std::hypot(c[0] - spec.center[0], c[1] - spec.center[1], c[2] - spec.center[2]);
  EXPECT_LT(d, spec.radius);
}

TEST(Crust, ThinSurfaceLayerEverywhere) {
  CrustSpec spec;
  spec.n = 10;
  spec.squeeze = 2.0;
  const auto m = make_crust_mesh(spec);
  m.validate();
  // Top-layer elements are uniformly squeezed; the geometric relief spreads
  // the nominal factor-2 squeeze over ~1.5 layers, so the realized edge-length
  // ratio sits a bit below 2 but clearly above 1.
  real_t hmin = 1e30, hmax = 0;
  for (index_t e = 0; e < m.num_elems(); ++e) {
    hmin = std::min(hmin, m.char_length(e));
    hmax = std::max(hmax, m.char_length(e));
  }
  EXPECT_GT(hmax / hmin, 1.4);
  EXPECT_LT(hmax / hmin, 4.0);
}

TEST(Strip, QuasiOneDimensional) {
  const auto m = make_strip_mesh(12, 0.5, 2.0);
  m.validate();
  EXPECT_EQ(m.num_elems(), 12);
  // Fine cells on the left are half the width of the coarse ones.
  const real_t h0 = m.char_length(0);
  const real_t h11 = m.char_length(11);
  EXPECT_NEAR(h11 / h0, 2.0, 1e-9);
}

TEST(Strip, GradesTheJumpThroughPowerOfTwoWidths) {
  // squeeze 8: fine cells at w/8, one grading cell each at w/4 and w/2, and
  // the coarse cells at w — nx stays the total.
  const auto m = make_strip_mesh(12, 0.25, 8.0);
  m.validate();
  ASSERT_EQ(m.num_elems(), 12);
  const real_t w = m.char_length(11);
  const real_t expected[] = {0.125, 0.125, 0.125, 0.25, 0.5, 1, 1, 1, 1, 1, 1, 1};
  for (index_t e = 0; e < 12; ++e)
    EXPECT_NEAR(m.char_length(e) / w, expected[e], 1e-12) << "element " << e;
  // Total length is still 1.
  real_t len = 0;
  for (index_t e = 0; e < 12; ++e) len += m.char_length(e);
  EXPECT_NEAR(len, 1.0, 1e-12);
  // No room for 1 fine, 2 grading and a coarse cell; no finite grading.
  EXPECT_THROW((void)make_strip_mesh(3, 0.25, 8.0), CheckFailure);
  EXPECT_THROW((void)make_strip_mesh(12, 0.25, std::numeric_limits<real_t>::infinity()),
               CheckFailure);
}

TEST(MeshIo, SaveLoadRoundTrip) {
  auto orig = make_trench_mesh({.n = 6, .nz = 4, .squeeze = 4.0, .trench_halfwidth = 0.08,
                                .depth_power = 2.0, .transition = 0.2, .mat = {}});
  const std::string path = testing::TempDir() + "/ltswave_roundtrip.mesh";
  save_mesh(path, orig);
  const auto loaded = load_mesh(path);
  ASSERT_EQ(loaded.num_nodes(), orig.num_nodes());
  ASSERT_EQ(loaded.num_elems(), orig.num_elems());
  EXPECT_EQ(loaded.connectivity(), orig.connectivity());
  for (index_t n = 0; n < orig.num_nodes(); ++n)
    for (int d = 0; d < 3; ++d) EXPECT_DOUBLE_EQ(loaded.node(n)[d], orig.node(n)[d]);
  for (index_t e = 0; e < orig.num_elems(); ++e) {
    EXPECT_DOUBLE_EQ(loaded.material(e).vp, orig.material(e).vp);
    EXPECT_DOUBLE_EQ(loaded.char_length(e), orig.char_length(e));
  }
  std::remove(path.c_str());
}

TEST(MeshIo, LoadRejectsMalformedFiles) {
  const std::string path = testing::TempDir() + "/ltswave_bad.mesh";
  {
    std::ofstream out(path);
    out << "not-a-mesh 7\n";
  }
  EXPECT_THROW(load_mesh(path), CheckFailure);
  {
    std::ofstream out(path);
    out << "ltswave-mesh 1\n4 1\n0 0 0\n"; // truncated
  }
  EXPECT_THROW(load_mesh(path), CheckFailure);
  EXPECT_THROW(load_mesh(testing::TempDir() + "/does_not_exist.mesh"), CheckFailure);
  std::remove(path.c_str());
}

TEST(MeshIo, WritesValidVtk) {
  const auto m = make_uniform_box(2, 2, 2);
  std::vector<index_t> lvl(static_cast<std::size_t>(m.num_elems()), 1);
  const std::string path = testing::TempDir() + "/ltswave_mesh.vtk";
  write_vtk(path, m, {make_cell_field("level", lvl)});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("vtk DataFile"), std::string::npos);
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("CELL_DATA 8"), std::string::npos);
  std::remove(path.c_str());
}

} // namespace
} // namespace ltswave::mesh

#include "sem/sem_space.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace ltswave::sem {

namespace {

struct PairHash {
  std::size_t operator()(const std::pair<index_t, index_t>& p) const {
    return static_cast<std::size_t>(p.first) * 0x9e3779b97f4a7c15ULL + static_cast<std::size_t>(p.second);
  }
};

struct QuadKey {
  std::array<index_t, 4> n; // sorted
  bool operator==(const QuadKey& o) const { return n == o.n; }
};
struct QuadHash {
  std::size_t operator()(const QuadKey& k) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (index_t v : k.n) {
      h ^= static_cast<std::uint64_t>(v) + 0x9e3779b97f4a7c15ULL;
      h *= 0x100000001b3ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Canonical in-face coordinates of a face grid point.
///
/// The quad grid has global corner ids g = {g00, g10, g01, g11} at (u,v) in
/// {0,1}^2 and a point at integer coords (a,b), 0..N. The canonical frame is
/// anchored at the smallest corner id with its first axis pointing to the
/// smaller of the two adjacent corners; both elements sharing the face compute
/// identical canonical coordinates regardless of their local orientations
/// (GLL points are symmetric, so flipped coordinates land on grid points).
std::pair<int, int> canonical_face_coord(const std::array<index_t, 4>& g, int a, int b, int N) {
  const index_t g00 = g[0], g10 = g[1], g01 = g[2], g11 = g[3];
  index_t mn = std::min(std::min(g00, g10), std::min(g01, g11));
  if (mn == g00) {
    return (g10 < g01) ? std::make_pair(a, b) : std::make_pair(b, a);
  }
  if (mn == g10) {
    // neighbours of g10: g00 (coord N-a), g11 (coord b)
    return (g00 < g11) ? std::make_pair(N - a, b) : std::make_pair(b, N - a);
  }
  if (mn == g01) {
    // neighbours of g01: g00 (coord N-b), g11 (coord a)
    return (g00 < g11) ? std::make_pair(N - b, a) : std::make_pair(a, N - b);
  }
  // mn == g11; neighbours: g01 (coord N-a), g10 (coord N-b)
  return (g01 < g10) ? std::make_pair(N - a, N - b) : std::make_pair(N - b, N - a);
}

} // namespace

SemSpace::SemSpace(const mesh::HexMesh& m, int order) : mesh_(&m), ref_(order) {
  LTS_CHECK_MSG(m.num_elems() > 0, "empty mesh");
  build_numbering();
  build_geometry();
}

void SemSpace::build_numbering() {
  const auto& m = *mesh_;
  const int N = ref_.order();
  const int n1 = ref_.nodes_1d();
  const int npts = ref_.nodes_per_elem();
  const index_t ne = m.num_elems();
  const index_t nv = m.num_nodes();

  // Entity discovery: unique edges (sorted corner pairs) and faces (sorted
  // corner quads) with stable ids in first-seen order.
  std::unordered_map<std::pair<index_t, index_t>, index_t, PairHash> edge_ids;
  std::unordered_map<QuadKey, index_t, QuadHash> face_ids;
  edge_ids.reserve(static_cast<std::size_t>(ne) * 4);
  face_ids.reserve(static_cast<std::size_t>(ne) * 3);

  auto edge_id = [&](index_t a, index_t b) -> index_t {
    auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    auto [it, inserted] = edge_ids.try_emplace(key, static_cast<index_t>(edge_ids.size()));
    (void)inserted;
    return it->second;
  };
  auto face_id = [&](std::array<index_t, 4> q) -> index_t {
    std::sort(q.begin(), q.end());
    auto [it, inserted] = face_ids.try_emplace(QuadKey{q}, static_cast<index_t>(face_ids.size()));
    (void)inserted;
    return it->second;
  };

  // First pass: count entities so block offsets are known.
  for (index_t e = 0; e < ne; ++e) {
    const index_t* c = m.corners(e);
    for (int base : {0, 2, 4, 6}) edge_id(c[base], c[base | 1]);     // x edges
    for (int base : {0, 1, 4, 5}) edge_id(c[base], c[base | 2]);     // y edges
    for (int base : {0, 1, 2, 3}) edge_id(c[base], c[base | 4]);     // z edges
    for (const auto& fc : mesh::kFaceCorners)
      face_id({c[fc[0]], c[fc[1]], c[fc[2]], c[fc[3]]});
  }
  const auto n_edges = static_cast<gindex_t>(edge_ids.size());
  const auto n_faces = static_cast<gindex_t>(face_ids.size());
  const int ni = N - 1; // interior nodes per direction

  const gindex_t edge_base = nv;
  const gindex_t face_base = edge_base + n_edges * ni;
  const gindex_t cell_base = face_base + n_faces * static_cast<gindex_t>(ni) * ni;
  num_global_ = cell_base + static_cast<gindex_t>(ne) * ni * ni * ni;

  // Second pass: assign local -> global per node class.
  local_to_global_.assign(static_cast<std::size_t>(ne) * static_cast<std::size_t>(npts), -1);

  // Face (u,v) axes expressed as local (i,j,k) assignments, matching
  // mesh::kFaceCorners ordering (see reference_element local numbering).
  auto face_point_local = [&](int f, int a, int b) -> int {
    switch (f) {
      case 0: return ref_.local_index(0, a, b); // XMin: u=y, v=z
      case 1: return ref_.local_index(N, a, b); // XMax
      case 2: return ref_.local_index(a, 0, b); // YMin: u=x, v=z
      case 3: return ref_.local_index(a, N, b); // YMax
      case 4: return ref_.local_index(a, b, 0); // ZMin: u=x, v=y
      default: return ref_.local_index(a, b, N); // ZMax
    }
  };

  for (index_t e = 0; e < ne; ++e) {
    const index_t* c = m.corners(e);
    gindex_t* l2g = local_to_global_.data() + static_cast<std::size_t>(e) * static_cast<std::size_t>(npts);

    // Vertices.
    for (int corner = 0; corner < 8; ++corner)
      l2g[ref_.corner_local_index(corner)] = c[corner];

    // Edges: for each of the 12 edges, interior points t = 1..N-1 measured
    // from the edge's first local corner; canonical direction is from the
    // smaller global id.
    auto assign_edge = [&](int c0, int c1, auto&& local_of_t) {
      const index_t ga = c[c0], gb = c[c1];
      const index_t id = edge_id(ga, gb);
      for (int t = 1; t < N; ++t) {
        const int tc = (ga < gb) ? t : N - t;
        l2g[local_of_t(t)] = edge_base + static_cast<gindex_t>(id) * ni + (tc - 1);
      }
    };
    for (int base : {0, 2, 4, 6}) { // x edges: (i varies)
      const int j = (base & 2) ? N : 0, k = (base & 4) ? N : 0;
      assign_edge(base, base | 1, [&](int t) { return ref_.local_index(t, j, k); });
    }
    for (int base : {0, 1, 4, 5}) { // y edges
      const int i = (base & 1) ? N : 0, k = (base & 4) ? N : 0;
      assign_edge(base, base | 2, [&](int t) { return ref_.local_index(i, t, k); });
    }
    for (int base : {0, 1, 2, 3}) { // z edges
      const int i = (base & 1) ? N : 0, j = (base & 2) ? N : 0;
      assign_edge(base, base | 4, [&](int t) { return ref_.local_index(i, j, t); });
    }

    // Faces.
    for (int f = 0; f < mesh::kFacesPerElem; ++f) {
      const auto& fc = mesh::kFaceCorners[static_cast<std::size_t>(f)];
      const std::array<index_t, 4> g = {c[fc[0]], c[fc[1]], c[fc[2]], c[fc[3]]};
      const index_t id = face_id(g);
      for (int b = 1; b < N; ++b)
        for (int a = 1; a < N; ++a) {
          const auto [ca, cb] = canonical_face_coord(g, a, b, N);
          const gindex_t off = static_cast<gindex_t>(cb - 1) * ni + (ca - 1);
          l2g[face_point_local(f, a, b)] =
              face_base + static_cast<gindex_t>(id) * ni * ni + off;
        }
    }

    // Cell interiors.
    for (int k = 1; k < N; ++k)
      for (int j = 1; j < N; ++j)
        for (int i = 1; i < N; ++i) {
          const gindex_t off = (static_cast<gindex_t>(k - 1) * ni + (j - 1)) * ni + (i - 1);
          l2g[ref_.local_index(i, j, k)] =
              cell_base + static_cast<gindex_t>(e) * ni * ni * ni + off;
        }

    for (int q = 0; q < npts; ++q)
      LTS_DCHECK(l2g[q] >= 0 && l2g[q] < num_global_);
    (void)n1;
  }
}

void SemSpace::element_metrics(index_t e, std::span<PointMetrics> pts) const {
  const auto& m = *mesh_;
  const int n1 = ref_.nodes_1d();
  LTS_DCHECK(pts.size() <= static_cast<std::size_t>(nodes_per_elem()));
  const auto& xi = ref_.points();
  const auto& w = ref_.weights();
  const index_t* c = m.corners(e);
  std::size_t q = 0;
  for (int k = 0; k < n1; ++k)
    for (int j = 0; j < n1; ++j)
      for (int i = 0; i < n1; ++i, ++q) {
        if (q == pts.size()) return;
        const real_t X = xi[static_cast<std::size_t>(i)], Y = xi[static_cast<std::size_t>(j)], Z = xi[static_cast<std::size_t>(k)];
        // Trilinear map and its Jacobian from the 8 corners.
        real_t pos[3] = {0, 0, 0};
        real_t J[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
        for (int corner = 0; corner < 8; ++corner) {
          const real_t sx = (corner & 1) ? 1.0 : -1.0;
          const real_t sy = (corner & 2) ? 1.0 : -1.0;
          const real_t sz = (corner & 4) ? 1.0 : -1.0;
          const real_t fx = (1 + sx * X) / 2, fy = (1 + sy * Y) / 2, fz = (1 + sz * Z) / 2;
          const real_t shape = fx * fy * fz;
          const real_t dN[3] = {sx / 2 * fy * fz, fx * sy / 2 * fz, fx * fy * sz / 2};
          const real_t* xc = m.node(c[corner]);
          for (int d = 0; d < 3; ++d) {
            pos[d] += shape * xc[d];
            for (int r = 0; r < 3; ++r) J[d][r] += xc[d] * dN[r];
          }
        }
        const real_t det = J[0][0] * (J[1][1] * J[2][2] - J[1][2] * J[2][1]) -
                           J[0][1] * (J[1][0] * J[2][2] - J[1][2] * J[2][0]) +
                           J[0][2] * (J[1][0] * J[2][1] - J[1][1] * J[2][0]);
        LTS_CHECK_MSG(det > 0, "inverted element " << e << " at quad point " << q);
        PointMetrics& pm = pts[q];
        // inv(J): row r, col d = d xi_r / d x_d = cofactor(J)^T / det.
        real_t* ji = pm.jinv;
        ji[0 * 3 + 0] = (J[1][1] * J[2][2] - J[1][2] * J[2][1]) / det;
        ji[0 * 3 + 1] = (J[0][2] * J[2][1] - J[0][1] * J[2][2]) / det;
        ji[0 * 3 + 2] = (J[0][1] * J[1][2] - J[0][2] * J[1][1]) / det;
        ji[1 * 3 + 0] = (J[1][2] * J[2][0] - J[1][0] * J[2][2]) / det;
        ji[1 * 3 + 1] = (J[0][0] * J[2][2] - J[0][2] * J[2][0]) / det;
        ji[1 * 3 + 2] = (J[0][2] * J[1][0] - J[0][0] * J[1][2]) / det;
        ji[2 * 3 + 0] = (J[1][0] * J[2][1] - J[1][1] * J[2][0]) / det;
        ji[2 * 3 + 1] = (J[0][1] * J[2][0] - J[0][0] * J[2][1]) / det;
        ji[2 * 3 + 2] = (J[0][0] * J[1][1] - J[0][1] * J[1][0]) / det;

        // Fused metrics for the kernel engine: the symmetric
        // G = wdet * Jinv Jinv^T (acoustic) and wdet * Jinv (elastic flux
        // factor).
        const real_t wq = w[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(j)] * w[static_cast<std::size_t>(k)];
        const real_t wd = wq * det;
        int plane = 0;
        for (int r = 0; r < 3; ++r)
          for (int s = r; s < 3; ++s) {
            pm.gmat[plane] = wd * (ji[r * 3] * ji[s * 3] + ji[r * 3 + 1] * ji[s * 3 + 1] +
                                   ji[r * 3 + 2] * ji[s * 3 + 2]);
            ++plane;
          }
        for (int t = 0; t < 9; ++t) pm.wjinv[t] = wd * ji[t];
        for (int d = 0; d < 3; ++d) pm.pos[d] = pos[d];
        pm.det = det;
      }
}

void SemSpace::build_geometry() {
  const auto& m = *mesh_;
  const int n1 = ref_.nodes_1d();
  const int npts = ref_.nodes_per_elem();
  const auto& w = ref_.weights();

  coords_.assign(static_cast<std::size_t>(num_global_) * 3, 0.0);
  mass_.assign(static_cast<std::size_t>(num_global_), 0.0);

  // The metrics are evaluated here only for det and positions (and the
  // inverted-element check) and then dropped: the kernels read them from
  // BatchPlan slabs, which recompute them per plan element.
  std::vector<PointMetrics> pts(static_cast<std::size_t>(npts));
  for (index_t e = 0; e < m.num_elems(); ++e) {
    element_metrics(e, pts);
    const gindex_t* l2g = elem_nodes(e);
    const real_t rho = m.material(e).rho;
    for (int k = 0; k < n1; ++k)
      for (int j = 0; j < n1; ++j)
        for (int i = 0; i < n1; ++i) {
          const int q = ref_.local_index(i, j, k);
          const PointMetrics& pm = pts[static_cast<std::size_t>(q)];
          const real_t wq = w[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(j)] * w[static_cast<std::size_t>(k)];
          quad_volume_ += wq * pm.det;
          const gindex_t g = l2g[q];
          coords_[static_cast<std::size_t>(g) * 3 + 0] = pm.pos[0];
          coords_[static_cast<std::size_t>(g) * 3 + 1] = pm.pos[1];
          coords_[static_cast<std::size_t>(g) * 3 + 2] = pm.pos[2];
          mass_[static_cast<std::size_t>(g)] += rho * wq * pm.det;
        }
  }

  inv_mass_.resize(mass_.size());
  for (std::size_t g = 0; g < mass_.size(); ++g) {
    LTS_CHECK_MSG(mass_[g] > 0, "non-positive lumped mass at node " << g);
    inv_mass_[g] = 1.0 / mass_[g];
  }

  build_node_grid();
}

void SemSpace::build_node_grid() {
  // Coarse uniform grid over the node bounding box, ~8 nodes per cell on
  // average; O(num_nodes) to build, near-O(1) per nearest_node query.
  std::array<real_t, 3> hi = {coords_[0], coords_[1], coords_[2]};
  grid_lo_ = hi;
  for (gindex_t g = 0; g < num_global_; ++g) {
    const std::size_t b = static_cast<std::size_t>(g) * 3;
    for (int d = 0; d < 3; ++d) {
      grid_lo_[static_cast<std::size_t>(d)] = std::min(grid_lo_[static_cast<std::size_t>(d)], coords_[b + static_cast<std::size_t>(d)]);
      hi[static_cast<std::size_t>(d)] = std::max(hi[static_cast<std::size_t>(d)], coords_[b + static_cast<std::size_t>(d)]);
    }
  }
  const int dim = std::max(1, static_cast<int>(std::cbrt(static_cast<double>(num_global_) / 8.0)));
  std::size_t ncells = 1;
  for (int d = 0; d < 3; ++d) {
    const real_t ext = hi[static_cast<std::size_t>(d)] - grid_lo_[static_cast<std::size_t>(d)];
    grid_dims_[static_cast<std::size_t>(d)] = ext > 0 ? dim : 1;
    grid_cell_[static_cast<std::size_t>(d)] =
        ext > 0 ? ext / grid_dims_[static_cast<std::size_t>(d)] : real_t{1};
    ncells *= static_cast<std::size_t>(grid_dims_[static_cast<std::size_t>(d)]);
  }

  auto cell_of = [&](gindex_t g, int d) {
    const real_t rel = (coords_[static_cast<std::size_t>(g) * 3 + static_cast<std::size_t>(d)] -
                        grid_lo_[static_cast<std::size_t>(d)]) / grid_cell_[static_cast<std::size_t>(d)];
    return std::clamp(static_cast<int>(rel), 0, grid_dims_[static_cast<std::size_t>(d)] - 1);
  };
  auto cell_id = [&](int cx, int cy, int cz) {
    return (static_cast<std::size_t>(cz) * static_cast<std::size_t>(grid_dims_[1]) + static_cast<std::size_t>(cy)) *
               static_cast<std::size_t>(grid_dims_[0]) + static_cast<std::size_t>(cx);
  };

  grid_start_.assign(ncells + 1, 0);
  for (gindex_t g = 0; g < num_global_; ++g)
    ++grid_start_[cell_id(cell_of(g, 0), cell_of(g, 1), cell_of(g, 2)) + 1];
  for (std::size_t c = 0; c < ncells; ++c) grid_start_[c + 1] += grid_start_[c];
  grid_nodes_.resize(static_cast<std::size_t>(num_global_));
  std::vector<std::size_t> cursor(grid_start_.begin(), grid_start_.end() - 1);
  for (gindex_t g = 0; g < num_global_; ++g)
    grid_nodes_[cursor[cell_id(cell_of(g, 0), cell_of(g, 1), cell_of(g, 2))]++] = g;
}

gindex_t SemSpace::nearest_node(std::array<real_t, 3> x) const {
  // Expanding-ring search outward from the query's (clamped) cell. A node in
  // a cell whose index differs by rho >= 1 along some axis is at least
  // (rho - 1) * cell_extent away along that axis, so once the best distance
  // beats that bound the search is complete.
  std::array<int, 3> c0;
  for (int d = 0; d < 3; ++d) {
    const real_t rel = (x[static_cast<std::size_t>(d)] - grid_lo_[static_cast<std::size_t>(d)]) /
                       grid_cell_[static_cast<std::size_t>(d)];
    c0[static_cast<std::size_t>(d)] = std::clamp(static_cast<int>(rel), 0, grid_dims_[static_cast<std::size_t>(d)] - 1);
  }
  const real_t min_cell = std::min({grid_cell_[0], grid_cell_[1], grid_cell_[2]});
  const int max_ring = std::max({grid_dims_[0], grid_dims_[1], grid_dims_[2]});

  gindex_t best = 0;
  real_t best_d = std::numeric_limits<real_t>::max();
  auto scan_cell = [&](int cx, int cy, int cz) {
    const std::size_t c =
        (static_cast<std::size_t>(cz) * static_cast<std::size_t>(grid_dims_[1]) + static_cast<std::size_t>(cy)) *
            static_cast<std::size_t>(grid_dims_[0]) + static_cast<std::size_t>(cx);
    for (std::size_t i = grid_start_[c]; i < grid_start_[c + 1]; ++i) {
      const gindex_t g = grid_nodes_[i];
      const std::size_t b = static_cast<std::size_t>(g) * 3;
      const real_t dx = coords_[b] - x[0], dy = coords_[b + 1] - x[1], dz = coords_[b + 2] - x[2];
      const real_t d = dx * dx + dy * dy + dz * dz;
      if (d < best_d) {
        best_d = d;
        best = g;
      }
    }
  };

  for (int ring = 0; ring <= max_ring; ++ring) {
    if (best_d < std::numeric_limits<real_t>::max() && ring > 1) {
      const real_t reach = static_cast<real_t>(ring - 1) * min_cell;
      if (reach * reach > best_d) break;
    }
    const int xlo = std::max(0, c0[0] - ring), xhi = std::min(grid_dims_[0] - 1, c0[0] + ring);
    const int ylo = std::max(0, c0[1] - ring), yhi = std::min(grid_dims_[1] - 1, c0[1] + ring);
    const int zlo = std::max(0, c0[2] - ring), zhi = std::min(grid_dims_[2] - 1, c0[2] + ring);
    for (int cz = zlo; cz <= zhi; ++cz)
      for (int cy = ylo; cy <= yhi; ++cy)
        for (int cx = xlo; cx <= xhi; ++cx) {
          const int cheb = std::max({std::abs(cx - c0[0]), std::abs(cy - c0[1]), std::abs(cz - c0[2])});
          if (cheb == ring) scan_cell(cx, cy, cz);
        }
  }
  return best;
}

real_t SemSpace::quadrature_volume() const { return quad_volume_; }

} // namespace ltswave::sem

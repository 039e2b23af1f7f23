#include "mesh/generators.hpp"

#include <cmath>

namespace ltswave::mesh {

HexMesh make_structured(const std::vector<real_t>& xs, const std::vector<real_t>& ys,
                        const std::vector<real_t>& zs,
                        const std::function<Material(real_t, real_t, real_t)>& material_of) {
  LTS_CHECK_MSG(xs.size() >= 2 && ys.size() >= 2 && zs.size() >= 2,
                "need at least one element per axis");
  const auto nx = static_cast<index_t>(xs.size() - 1);
  const auto ny = static_cast<index_t>(ys.size() - 1);
  const auto nz = static_cast<index_t>(zs.size() - 1);
  const auto nnx = nx + 1, nny = ny + 1, nnz = nz + 1;

  std::vector<real_t> coords;
  coords.reserve(static_cast<std::size_t>(nnx) * nny * nnz * 3);
  for (index_t k = 0; k < nnz; ++k)
    for (index_t j = 0; j < nny; ++j)
      for (index_t i = 0; i < nnx; ++i) {
        coords.push_back(xs[static_cast<std::size_t>(i)]);
        coords.push_back(ys[static_cast<std::size_t>(j)]);
        coords.push_back(zs[static_cast<std::size_t>(k)]);
      }

  auto node_id = [&](index_t i, index_t j, index_t k) -> index_t {
    return i + nnx * (j + nny * k);
  };

  std::vector<index_t> conn;
  conn.reserve(static_cast<std::size_t>(nx) * ny * nz * 8);
  std::vector<Material> mats;
  mats.reserve(static_cast<std::size_t>(nx) * ny * nz);
  for (index_t k = 0; k < nz; ++k)
    for (index_t j = 0; j < ny; ++j)
      for (index_t i = 0; i < nx; ++i) {
        // corner c = di + 2*dj + 4*dk matches HexMesh local numbering
        for (int dk = 0; dk < 2; ++dk)
          for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di) conn.push_back(node_id(i + di, j + dj, k + dk));
        if (material_of) {
          const real_t cx = (xs[static_cast<std::size_t>(i)] + xs[static_cast<std::size_t>(i) + 1]) / 2;
          const real_t cy = (ys[static_cast<std::size_t>(j)] + ys[static_cast<std::size_t>(j) + 1]) / 2;
          const real_t cz = (zs[static_cast<std::size_t>(k)] + zs[static_cast<std::size_t>(k) + 1]) / 2;
          mats.push_back(material_of(cx, cy, cz));
        } else {
          mats.push_back(Material{});
        }
      }
  return HexMesh(std::move(coords), std::move(conn), std::move(mats));
}

namespace {
std::vector<real_t> linspace(real_t lo, real_t hi, index_t n_cells) {
  std::vector<real_t> v(static_cast<std::size_t>(n_cells) + 1);
  for (index_t i = 0; i <= n_cells; ++i)
    v[static_cast<std::size_t>(i)] = lo + (hi - lo) * static_cast<real_t>(i) / static_cast<real_t>(n_cells);
  return v;
}

/// Smooth bump in [0,1]: 1 at t=0, 0 for |t|>=1, C^1.
real_t bump(real_t t) {
  const real_t a = std::abs(t);
  if (a >= 1.0) return 0.0;
  const real_t c = std::cos(0.5 * M_PI * a);
  return c * c;
}
} // namespace

HexMesh make_uniform_box(index_t nx, index_t ny, index_t nz, std::array<real_t, 3> extent,
                         Material mat) {
  auto m = make_structured(linspace(0, extent[0], nx), linspace(0, extent[1], ny),
                           linspace(0, extent[2], nz),
                           [mat](real_t, real_t, real_t) { return mat; });
  return m;
}

void warp_nodes(HexMesh& m, const std::function<void(real_t&, real_t&, real_t&)>& warp) {
  // HexMesh exposes coords immutably; rebuild through the constructor so the
  // lazy caches are invalidated consistently.
  std::vector<real_t> coords = m.coords();
  for (std::size_t n = 0; n + 2 < coords.size(); n += 3)
    warp(coords[n], coords[n + 1], coords[n + 2]);
  m = HexMesh(std::move(coords), std::vector<index_t>(m.connectivity()),
              std::vector<Material>(m.materials()));
}

namespace {
/// Vertical squeeze with geometric relief: remaps depth d >= 0 so that local
/// spacing grows geometrically from h/S at the surface back to the unchanged
/// h, doubling every `octave` depth units:
///   g(d) = (1/S) 2^{d/octave}  for d <= d* = octave*log2(S),  1 beyond;
///   d'   = integral of g  (closed form below).
/// Every refinement level therefore occupies ~octave/h element layers — the
/// graded "doubling layer" structure real hex meshers produce. Deep elements
/// are never stretched; the mesh bottom rises under the squeezed column (a
/// non-flat basin, as conforming meshes of real topography have), so the far
/// field keeps the coarsest CFL step.
real_t squeeze_depth(real_t d, real_t s, real_t octave) {
  const real_t dstar = octave * std::log2(s);
  const real_t c = octave / std::log(2.0) / s; // integral scale of 2^{d/octave}/S
  if (d <= dstar) return c * (std::exp2(d / octave) - 1.0);
  return c * (s - 1.0) + (d - dstar);
}
} // namespace

HexMesh make_trench_mesh(const TrenchSpec& spec) {
  LTS_CHECK(spec.squeeze >= 1.0 && spec.n >= 4);
  const index_t nz = spec.nz > 0 ? spec.nz : std::max<index_t>(4, spec.n / 2);
  HexMesh m = make_uniform_box(spec.n, spec.n, nz, {1.0, 1.0, 0.5}, spec.mat);
  const real_t ztop = 0.5;
  const real_t xc = 0.5;
  // The bump support sets how wide the lateral transition band is; several
  // element widths are required so that intermediate p-levels appear.
  const real_t support = std::max(spec.trench_halfwidth * 4, spec.transition);
  // Depth per size doubling: `depth_power` element layers per octave.
  const real_t layer_h = 0.5 / static_cast<real_t>(nz);
  const real_t octave = std::max(spec.depth_power, real_t(1.5)) * layer_h;
  warp_nodes(m, [&](real_t& x, real_t&, real_t& z) {
    const real_t lateral = bump((x - xc) / support);
    const real_t s = 1.0 + (spec.squeeze - 1.0) * lateral;
    if (s <= 1.0 + 1e-12) return;
    const real_t d = ztop - z;
    z = ztop - squeeze_depth(d, s, octave);
  });
  return m;
}

HexMesh make_trench_big_mesh(index_t n) {
  TrenchSpec spec;
  spec.n = n;
  spec.squeeze = 32.0;
  spec.depth_power = 3.0;
  spec.trench_halfwidth = 0.02;
  spec.transition = 0.1;
  return make_trench_mesh(spec);
}

HexMesh make_embedding_mesh(const EmbeddingSpec& spec) {
  LTS_CHECK(spec.squeeze >= 1.0 && spec.n >= 4);
  HexMesh m = make_uniform_box(spec.n, spec.n, spec.n, {1.0, 1.0, 1.0}, spec.mat);
  // Radial contraction with exponential relief: r' = squeeze_depth(r, S, L)
  // compresses a ball of ~L around the centre by 1/S without stretching the
  // shell. The far field would receive a constant inward shift
  // delta = (1-1/S) L; a smooth taper returns that shift to zero towards the
  // domain boundary, at the price of a mild (delta / taper-width) stretch —
  // kept small so the far field stays in the coarsest level.
  const real_t L = spec.radius / 3.0;
  const real_t delta = (1.0 - 1.0 / spec.squeeze) * L;
  const real_t r1 = spec.radius;       // taper starts
  const real_t r2 = 3.0 * spec.radius; // shift fully released
  warp_nodes(m, [&](real_t& x, real_t& y, real_t& z) {
    const real_t dx = x - spec.center[0], dy = y - spec.center[1], dz = z - spec.center[2];
    const real_t r = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (r == 0.0) return;
    real_t shift = r - squeeze_depth(r, spec.squeeze, L); // inward displacement
    if (r > r1) {
      const real_t t = std::min<real_t>(1.0, (r - r1) / (r2 - r1));
      shift *= bump(t);
    }
    const real_t scale = (r - shift) / r;
    x = spec.center[0] + dx * scale;
    y = spec.center[1] + dy * scale;
    z = spec.center[2] + dz * scale;
  });
  (void)delta;
  return m;
}

HexMesh make_crust_mesh(const CrustSpec& spec) {
  LTS_CHECK(spec.squeeze >= 1.0 && spec.n >= 4);
  const index_t nz = spec.nz > 0 ? spec.nz : std::max<index_t>(4, spec.n / 2);
  HexMesh m = make_uniform_box(spec.n, spec.n, nz, {1.0, 1.0, 0.5}, spec.mat);
  const real_t ztop = 0.5; // box is {1, 1, 0.5} so dz ~ dx at nz ~ n/2
  // Uniform squeeze across the entire surface; only the top layer(s) end up
  // below the coarse CFL threshold, matching the crust mesh's small 2-level
  // speedup. ~1.5 layers per octave keeps the refined skin thin.
  const real_t layer_h = 0.5 / static_cast<real_t>(nz);
  const real_t trans_depth = 1.5 * layer_h;
  warp_nodes(m, [&](real_t& x, real_t& y, real_t& z) {
    real_t zz = ztop - squeeze_depth(ztop - z, spec.squeeze, trans_depth);
    if (spec.topo_amp > 0) {
      const real_t topo = spec.topo_amp * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
      zz += topo * std::max<real_t>(0.0, zz / ztop); // fades to 0 at the bottom
    }
    z = zz;
  });
  return m;
}

HexMesh make_strip_mesh(index_t nx, real_t fine_frac, real_t squeeze) {
  LTS_CHECK(nx >= 2 && fine_frac > 0 && fine_frac < 1 && squeeze >= 1 &&
            std::isfinite(squeeze));
  // Fine cells of width w/squeeze on the left fraction, coarse width w on the
  // right, and between them one grading cell at each power-of-two multiple
  // of the fine width below w (relative widths 2/squeeze, 4/squeeze, ...),
  // so every LTS level between the finest and the coarsest holds an element.
  // The grading cells come out of the coarse count: nx stays the total.
  std::vector<real_t> grade;
  for (real_t r = 2 / squeeze; r < 1; r *= 2) grade.push_back(r);
  const auto n_fine = static_cast<index_t>(std::round(static_cast<real_t>(nx) * fine_frac));
  const index_t n_coarse = nx - n_fine - static_cast<index_t>(grade.size());
  LTS_CHECK_MSG(n_fine >= 1 && n_coarse >= 1,
                "strip of " << nx << " cells has no room for " << n_fine << " fine, "
                            << grade.size() << " grading and a coarse cell");
  real_t units = static_cast<real_t>(n_coarse) + static_cast<real_t>(n_fine) / squeeze;
  for (const real_t r : grade) units += r;
  const real_t w_coarse = 1.0 / units;
  std::vector<real_t> xs = {0.0};
  for (index_t i = 0; i < n_fine; ++i) xs.push_back(xs.back() + w_coarse / squeeze);
  for (const real_t r : grade) xs.push_back(xs.back() + w_coarse * r);
  for (index_t i = 0; i < n_coarse; ++i) xs.push_back(xs.back() + w_coarse);
  const std::vector<real_t> y = {0.0, w_coarse}, z = {0.0, w_coarse};
  return make_structured(xs, y, z);
}

} // namespace ltswave::mesh

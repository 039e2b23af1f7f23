#pragma once

/// \file generators.hpp
/// Parametric builders for the paper's four benchmark meshes (Sec. IV-A,
/// Fig. 4/5): trench, trench-big, embedding, crust — plus uniform boxes and a
/// quasi-1D strip used to reproduce the Fig. 1 timeline.
///
/// The paper's meshes come from external meshers; we reproduce their
/// refinement *topology* with conforming structured grids deformed by smooth
/// coordinate warps. A "squeeze" warp compresses node spacing locally, which
/// is precisely the mechanism the paper cites for the CFL bottleneck ("a small
/// element on a squeezed surface feature determines the time step for the
/// entire mesh"). Warping a structured grid keeps the mesh conforming while
/// producing a graded, multi-level element-size census.

#include <functional>

#include "mesh/hex_mesh.hpp"

namespace ltswave::mesh {

/// Tensor-product structured mesh from explicit grid-line coordinates.
/// Produces (xs-1)*(ys-1)*(zs-1) elements. `material_of` may be null for a
/// uniform default material.
HexMesh make_structured(const std::vector<real_t>& xs, const std::vector<real_t>& ys,
                        const std::vector<real_t>& zs,
                        const std::function<Material(real_t, real_t, real_t)>& material_of = {});

/// Uniform box with nx*ny*nz elements over [0,ext]^3 extents.
HexMesh make_uniform_box(index_t nx, index_t ny, index_t nz,
                         std::array<real_t, 3> extent = {1, 1, 1},
                         Material mat = {});

/// Applies an in-place smooth warp to every node of the mesh. The warp must be
/// injective on the mesh domain (it is the caller's responsibility to keep
/// elements from inverting).
void warp_nodes(HexMesh& m, const std::function<void(real_t&, real_t&, real_t&)>& warp);

/// ---- Benchmark meshes -----------------------------------------------------

/// Common scaling knob: `n` is the resolution of the base grid along the
/// longest axis; element counts grow ~ n^3. Defaults are chosen so that the
/// level census approaches the paper's theoretical speedups (Fig. 5).
struct TrenchSpec {
  index_t n = 24;          ///< base resolution (elements along x and y)
  index_t nz = 0;          ///< vertical layers; 0 -> n/2
  real_t squeeze = 8.0;    ///< max vertical compression at the trench axis (2^{levels-1})
  real_t trench_halfwidth = 0.05; ///< lateral half-width of the squeezed band (fraction of x-extent)
  real_t depth_power = 2.0;       ///< squeeze relaxation exponent with depth
  real_t transition = 0.25;       ///< lateral support of the squeeze bump (fraction of x-extent)
  Material mat = {};
};

/// Long strip of refinement along y on the surface — the paper's "trench"
/// benchmark (two internal topographies meeting in a row of pinched elements).
HexMesh make_trench_mesh(const TrenchSpec& spec = {});

/// The 26M-element "Trench Big" variant: same topology, deeper squeeze
/// (6 levels in the paper). Convenience wrapper with squeeze=32.
HexMesh make_trench_big_mesh(index_t n = 40);

struct EmbeddingSpec {
  index_t n = 20;         ///< base resolution per axis
  real_t squeeze = 8.0;   ///< radial compression at the feature centre
  real_t radius = 0.35;   ///< influence radius of the refined feature (fraction of extent)
  std::array<real_t, 3> center = {0.5, 0.5, 0.35};
  Material mat = {};
};

/// Localized small-scale feature embedded in a coarse volume — the paper's
/// simplest refinement example ("embedding").
HexMesh make_embedding_mesh(const EmbeddingSpec& spec = {});

struct CrustSpec {
  index_t n = 24;        ///< lateral resolution
  index_t nz = 0;        ///< vertical layers; 0 -> n (deep mesh)
  real_t squeeze = 2.0;  ///< surface-layer compression (2 levels in the paper)
  real_t topo_amp = 0.0; ///< optional gentle surface topography amplitude
  Material mat = {};
};

/// Thin squeezed surface layer across the whole domain — the paper's "crust"
/// benchmark. Large number of small elements at the surface limits the
/// theoretical LTS speedup (1.9x in the paper).
HexMesh make_crust_mesh(const CrustSpec& spec = {});

/// Quasi-1D strip (nx x 1 x 1 elements) with the leftmost `fine_frac` portion
/// squeezed by `squeeze`; reproduces the Fig. 1 illustration (4 elements,
/// coarse/fine halves) at any resolution. The fine-to-coarse jump is graded
/// through one cell at each intermediate power-of-two width (one cell of
/// half the coarse width at squeeze 4, none at squeeze 2), taken from the
/// coarse cells, so every LTS level in between is populated.
HexMesh make_strip_mesh(index_t nx, real_t fine_frac = 0.5, real_t squeeze = 2.0);

} // namespace ltswave::mesh

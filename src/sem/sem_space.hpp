#pragma once

/// \file sem_space.hpp
/// Global spectral-element discretization of a conforming hex mesh:
/// continuous global GLL-node numbering (vertex/edge/face/interior entities),
/// node coordinates, and the diagonal (lumped) global mass matrix (paper
/// Sec. I-B).
///
/// The per-quadrature-point geometric factors the stiffness kernels consume
/// are not stored here: element_metrics() evaluates them from the mesh
/// corners on demand, and sem::BatchPlan calls it while filling its block
/// slabs — the one resident copy of the metrics.
///
/// Unlike DG codes, the SEM *shares* nodes between neighbouring elements; this
/// sharing is exactly what complicates LTS (paper Sec. II-C) and what the
/// level/halo machinery in src/core handles.

#include <array>
#include <span>
#include <vector>

#include "mesh/hex_mesh.hpp"
#include "sem/reference_element.hpp"

namespace ltswave::sem {

class SemSpace {
public:
  /// Builds the discretization. Throws if an element's trilinear geometry is
  /// inverted (non-positive Jacobian at a quadrature point).
  SemSpace(const mesh::HexMesh& mesh, int order);

  [[nodiscard]] const mesh::HexMesh& mesh() const noexcept { return *mesh_; }
  [[nodiscard]] const ReferenceElement& ref() const noexcept { return ref_; }
  [[nodiscard]] int order() const noexcept { return ref_.order(); }
  [[nodiscard]] int nodes_per_elem() const noexcept { return ref_.nodes_per_elem(); }

  [[nodiscard]] gindex_t num_global_nodes() const noexcept { return num_global_; }
  [[nodiscard]] index_t num_elems() const noexcept { return mesh_->num_elems(); }

  /// Element-local -> global node map; length nodes_per_elem().
  [[nodiscard]] const gindex_t* elem_nodes(index_t e) const {
    return local_to_global_.data() + static_cast<std::size_t>(e) * static_cast<std::size_t>(nodes_per_elem());
  }

  /// Physical coordinates of global node g (xyz).
  [[nodiscard]] std::array<real_t, 3> node_coord(gindex_t g) const {
    const std::size_t b = static_cast<std::size_t>(g) * 3;
    return {coords_[b], coords_[b + 1], coords_[b + 2]};
  }

  /// Global node nearest to a physical point. Served by a coarse uniform-grid
  /// spatial index (built once at construction) with an expanding-ring
  /// search, so source/receiver placement stays fast on large meshes.
  [[nodiscard]] gindex_t nearest_node(std::array<real_t, 3> x) const;

  /// Geometric factors of the trilinear element map at one quadrature point.
  struct PointMetrics {
    real_t pos[3];   ///< physical position of the point
    real_t det;      ///< Jacobian determinant (> 0)
    real_t jinv[9];  ///< inverse Jacobian, row-major: (r,d) = d xi_r / d x_d
    /// Fused acoustic metric G = wdet * Jinv Jinv^T in the order G00, G01,
    /// G02, G11, G12, G22 (wdet = quadrature weight * det).
    real_t gmat[6];
    real_t wjinv[9]; ///< wdet * Jinv, the elastic flux factor (row-major)
  };

  /// Evaluates the metrics of element e at its first pts.size() quadrature
  /// points, in local order q = i + n1 * (j + n1 * k). Pure function of the
  /// mesh geometry: repeated calls give bitwise identical values. Throws if
  /// the Jacobian is non-positive at an evaluated point.
  void element_metrics(index_t e, std::span<PointMetrics> pts) const;

  /// Diagonal global mass matrix (length num_global_nodes()); strictly
  /// positive. Shared by all field components.
  [[nodiscard]] const std::vector<real_t>& mass() const noexcept { return mass_; }

  /// 1 / mass, precomputed (used on every right-hand-side evaluation).
  [[nodiscard]] const std::vector<real_t>& inv_mass() const noexcept { return inv_mass_; }

  /// Total mesh volume as integrated by the quadrature (for sanity tests).
  [[nodiscard]] real_t quadrature_volume() const;

private:
  void build_numbering();
  void build_geometry();
  void build_node_grid();

  const mesh::HexMesh* mesh_;
  ReferenceElement ref_;
  std::vector<gindex_t> local_to_global_;
  gindex_t num_global_ = 0;
  std::vector<real_t> coords_; // 3 * num_global_
  std::vector<real_t> mass_;
  std::vector<real_t> inv_mass_;
  real_t quad_volume_ = 0;

  // Coarse uniform grid over the node cloud for nearest_node queries.
  std::array<int, 3> grid_dims_ = {1, 1, 1};
  std::array<real_t, 3> grid_lo_ = {0, 0, 0};
  std::array<real_t, 3> grid_cell_ = {1, 1, 1};
  std::vector<std::size_t> grid_start_; // CSR offsets, dims product + 1
  std::vector<gindex_t> grid_nodes_;    // node ids bucketed by cell
};

} // namespace ltswave::sem

#pragma once

/// \file lts_levels.hpp
/// LTS level machinery (paper Sec. II):
///  * per-element CFL steps (Eq. 7) binned into power-of-two levels (Eq. 16),
///  * the speedup model (Eq. 9, generalized to N levels),
///  * per-GLL-node levels (a node belongs to the finest level among the
///    elements sharing it — the SEM node-sharing subtlety of Sec. II-C),
///  * the evaluation/update sets the production solver needs:
///      E(k)  = elements carrying at least one level-k node (own + halo),
///      rho_n = finest level whose evaluation touches node n,
///      S(k)  = nodes updated at level k's rate (rho_n == k).
///    Every row set is stored as sorted runs of consecutive global node ids.

#include <cstddef>
#include <span>
#include <vector>

#include "mesh/hex_mesh.hpp"
#include "sem/sem_space.hpp"

namespace ltswave::core {

/// Element -> level binning for a mesh.
struct LevelAssignment {
  level_t num_levels = 1;
  real_t dt = 0;                    ///< coarsest (global) step Delta-t
  std::vector<level_t> elem_level;  ///< 1-based level per element
  std::vector<index_t> level_counts; ///< elements per level (size num_levels)

  /// p_k for level k (1-based).
  [[nodiscard]] std::int64_t rate(level_t k) const { return level_rate(k); }
};

/// Bins elements into levels: dt_e = courant * h_e / vp_e, the coarsest level
/// uses dt = max_e dt_e, and element e joins the smallest level k with
/// dt / 2^{k-1} <= dt_e. If more than `max_levels` would be needed, dt is
/// reduced so exactly max_levels remain (the finest elements stay stable).
LevelAssignment assign_levels(const mesh::HexMesh& m, real_t courant, level_t max_levels = 12);

/// Uniform (non-LTS) assignment: every element in level 1 with the globally
/// smallest stable step (the reference scheme's Delta-t_min).
LevelAssignment assign_single_level(const mesh::HexMesh& m, real_t courant);

/// Paper Eq. 9 generalized: speedup = (p_N * E_total) / sum_k p_k * E_k.
double theoretical_speedup(const LevelAssignment& levels);

/// Element applies per LTS cycle under the ideal model (no halo): sum_k p_k*E_k.
std::int64_t model_applies_per_cycle(const LevelAssignment& levels);

/// Node level: max level over elements sharing the node (finest wins).
std::vector<level_t> compute_node_levels(const sem::SemSpace& space,
                                         std::span<const level_t> elem_level);

/// A half-open range [begin, end) of consecutive global rows.
struct RowRun {
  gindex_t begin = 0;
  gindex_t end = 0;
  bool operator==(const RowRun&) const = default;
};

/// A row set as its maximal runs: sorted, non-empty, never touching (each
/// run ends strictly before the next begins). Per-row arrays that shadow a
/// row set are indexed by position: the running row count over the runs.
using RowRuns = std::vector<RowRun>;

/// Appends row g, which must exceed every row already in `runs`.
inline void append_row(RowRuns& runs, gindex_t g) {
  if (!runs.empty() && runs.back().end == g)
    ++runs.back().end;
  else
    runs.push_back({g, g + 1});
}

/// Number of rows in `runs`.
[[nodiscard]] std::size_t row_count(const RowRuns& runs) noexcept;

/// Position of row g in `runs` (rows before it), or -1 when g is absent.
[[nodiscard]] std::ptrdiff_t row_position(const RowRuns& runs, gindex_t g) noexcept;

/// Calls f(j, g) for every row g of `runs` in ascending order, j being its
/// position.
template <class F>
void for_each_row(const RowRuns& runs, F&& f) {
  std::size_t j = 0;
  for (const RowRun& run : runs)
    for (gindex_t g = run.begin; g < run.end; ++g) f(j++, g);
}

/// Evaluation/update sets for the production LTS solver.
struct LtsStructure {
  level_t num_levels = 1;
  std::vector<level_t> node_level; ///< per global node
  std::vector<level_t> node_rho;   ///< updater level per global node (>= node_level)

  /// eval_elems[k-1] = E(k): elements with at least one level-k node.
  std::vector<std::vector<index_t>> eval_elems;
  /// eval_rows[k-1]: the nodes of E(k) elements (rows written by the level-k
  /// force evaluation). Since rho_n >= k on them, eval_rows(k) is S(k) plus
  /// its part of R(k+1), and eval_rows(N) == S(N).
  std::vector<RowRuns> eval_rows;
  /// update_rows[k-1] = S(k): nodes with rho == k.
  std::vector<RowRuns> update_rows;
  /// recon_rows[k-1] = R(k+1): nodes with rho >= k+1 (empty for k == N).
  std::vector<RowRuns> recon_rows;

  /// Actual element applies per cycle: sum_k p_k * |E(k)| (includes halo).
  [[nodiscard]] std::int64_t applies_per_cycle() const;
};

LtsStructure build_lts_structure(const sem::SemSpace& space, const LevelAssignment& levels);

} // namespace ltswave::core

#pragma once

/// \file newmark_reference.hpp
/// Global explicit Newmark (paper Eq. 5-6) at any step, for tests: the
/// reference LTS transcription on a one-level census whose dt is the step
/// under test. With one level the recursion is exactly the global Newmark
/// scheme, so this is the dense reference the LTS engine is compared with.

#include "core/lts_newmark.hpp"

namespace ltswave::core {

class NewmarkReference {
public:
  NewmarkReference(const mesh::HexMesh& m, const sem::WaveOperator& op, real_t dt)
      : levels_(at_step(m, dt)),
        structure_(build_lts_structure(op.space(), levels_)),
        ref_(op, levels_, structure_) {}
  NewmarkReference(const NewmarkReference&) = delete; // ref_ points into levels_
  NewmarkReference& operator=(const NewmarkReference&) = delete;

  LtsNewmarkReference* operator->() { return &ref_; }

private:
  LevelAssignment levels_;
  LtsStructure structure_;
  LtsNewmarkReference ref_;

  static LevelAssignment at_step(const mesh::HexMesh& m, real_t dt) {
    LevelAssignment lv = assign_single_level(m, 1.0);
    lv.dt = dt;
    return lv;
  }
};

} // namespace ltswave::core

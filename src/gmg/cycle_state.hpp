// Per-solve state of the multigrid cycle (gmg/cycle.hpp): the
// communication-avoiding ghost bookkeeping of every level and the
// bottom CG's per-component scratch. The solvers own one each; a
// recording (gmg/schedule_audit.hpp) builds its own from the canonical
// post-set_rhs state.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace gmg {

/// Communication-avoiding bookkeeping of one level.
struct GhostState {
  /// Ghost cell layers of x still valid (0 = exchange before the next
  /// applyOp).
  index_t margin = 0;
  /// Whether b's ghosts are current (the redundant ghost-region sweeps
  /// read b there too).
  bool b_valid = false;
};

/// Everything a cycle carries between calls: per-level ghost state and
/// the bottom CG's per-component scratch (sized once, reused).
struct CycleState {
  std::vector<GhostState> ghosts;
  std::vector<real_t> cg_rr;
  std::vector<std::uint8_t> cg_live;

  CycleState() = default;
  CycleState(int levels, int k)
      : ghosts(static_cast<std::size_t>(levels)),
        cg_rr(static_cast<std::size_t>(k)),
        cg_live(static_cast<std::size_t>(k)) {}

  /// The state set_rhs leaves: the finest x freshly zeroed (its ghost
  /// zeros are valid to brick depth), every b interior-written or
  /// zeroed with stale ghosts, the coarse margins spent.
  void after_set_rhs(index_t fine_ghost_depth) {
    for (GhostState& g : ghosts) g = GhostState{};
    ghosts.front().margin = fine_ghost_depth;
  }
  /// The caller wrote the finest level's x and/or b directly: their
  /// ghosts are stale.
  void fine_written() { ghosts.front() = GhostState{}; }
};

}  // namespace gmg

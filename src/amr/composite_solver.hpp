// Composite-grid solve over an AmrHierarchy (DESIGN.md §17): a
// local-defect-correction / MLAT-style cycle, written once as a stage
// sequence that the solver runs and the schedule recording records.
// Each composite cycle
//   1. solves A_H e = r_comp on the coarse composite grid with a
//      fixed number of V-cycles of the existing GmgSolver (so the
//      collective schedule is rank-aligned by construction),
//   2. applies the correction to the composite solution and,
//      piecewise-constant prolonged, to the patch,
//   3. smooths the patch with Dirichlet closure: interface ghosts
//      prolonged from the corrected coarse solution and frozen for
//      the sweep block, fine–fine ghosts re-exchanged per sweep,
//   4. slaves the covered coarse solution to the restricted patch,
// and then recomputes the composite residual: masked coarse
// operator on uncovered bricks, reflux at the coarse–fine interface,
// restricted patch residual on covered bricks.
#pragma once

#include <vector>

#include "amr/hierarchy.hpp"
#include "check/schedule.hpp"

namespace gmg::amr {

struct CompositeResult {
  int cycles = 0;
  real_t initial_residual = 0;
  real_t final_residual = 0;
  bool converged = false;
  double seconds = 0;
  std::vector<real_t> history;  // residual norm after each cycle
};

class CompositeSolver {
 public:
  explicit CompositeSolver(AmrHierarchy& hier) : h_(hier) {}

  /// Cycle until the composite residual max-norm drops below
  /// tolerance * (initial norm) or max_cycles is reached. Collective.
  CompositeResult solve(comm::Communicator& comm);

  /// Recompute the global composite residual max-norm (and, as a
  /// byproduct, the hierarchy's rH/patch-r fields). Collective.
  real_t composite_residual(comm::Communicator& comm);

 private:
  AmrHierarchy& h_;
};

/// Record the planned composite schedule (DESIGN.md §18) through the
/// solver's own stage sequence: the initial composite residual, then
/// one full cycle (correction solve, correction application, patch
/// smooth, slave restriction, closing residual). The patch part appears
/// as synthetic level index solver().num_levels(); the embedded
/// correction V-cycles are recorded by the solver's cycle.
check::Schedule record_composite_schedule(const AmrHierarchy& h);

/// Record and statically verify; throws gmg::Error naming the
/// offending step pair. Called from the AmrHierarchy constructor when
/// check::verify_schedule_enabled().
void verify_composite_schedule(const AmrHierarchy& h);

}  // namespace gmg::amr

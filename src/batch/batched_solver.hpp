// Multi-RHS batched geometric multigrid (DESIGN.md §15): one V-cycle
// schedule driven over K independent systems that share a hierarchy's
// geometry and operator. Everything but the storage is the solo
// solver's, at width K: the cycle (gmg/cycle.hpp) run by the solo run
// executor (gmg/level_run.hpp), the set_rhs body, the solve loop with
// its per-component retirement, and the recorded schedule
// (record_solver_schedule at width K). This class keeps the K-lane
// field set — AoSoA batched storage (brick/batched_array.hpp), with
// ONE stretched-shape ghost exchange round per sweep moving all K
// components of every aggregated field — and the per-component
// solution snapshots. Every launch is the solo kernel instantiated for
// K lanes per cell (gmg/operators.hpp).
//
// Correctness bar: a K-way batched solve is BITWISE identical to K
// solo GmgSolver::solve runs with the same hierarchy and inputs —
// same iterates, same residual histories, same cycle counts. Every lane
// gets the solo per-element arithmetic, and the '+'-reductions run the
// solo chunk plan over each lane's gathered slice. Per-component
// divergence (one system converging first, a deadline hitting one
// request) is handled by *retiring* components — the solve loop
// snapshots their solution the moment their solo twin's loop would
// have exited — while the shared schedule keeps running for the rest.
// Retired components keep being smoothed (masking the main kernels
// would change nothing for the live ones and cost extra branches);
// only the masked bottom-CG updates freeze per component, because the
// solo CG exits its own iteration loop mid-cycle.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "brick/batched_array.hpp"
#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "gmg/cycle_state.hpp"
#include "gmg/solver.hpp"

namespace gmg::batch {

/// Per-component solve parameters {tolerance, max_vcycles, control}:
/// the solve loop's own spec.
using BatchSolveSpec = SolveSpec;

/// Drives K systems through one cycle schedule over a solo hierarchy.
/// The base GmgSolver contributes everything per-level that is shared
/// across the batch — geometry, stencil coefficients, the variable-
/// coefficient operator and its diagonal, brick partitions — and is
/// not mutated (its own fields stay untouched). The BatchedSolver owns
/// the K-component field set and its stretched exchange engines.
class BatchedSolver {
 public:
  /// Build the K-component twin of `base`'s hierarchy. Requires
  /// 1 <= k <= kMaxBatch.
  BatchedSolver(GmgSolver& base, int k);

  BatchedSolver(const BatchedSolver&) = delete;
  BatchedSolver& operator=(const BatchedSolver&) = delete;

  int batch() const { return k_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Initialize component c's RHS on the finest level for every
  /// component (fs.size() == batch()) and reset the whole field set:
  /// GmgSolver::set_rhs's body (set_rhs_fields) at width K.
  void set_rhs(
      const std::vector<std::function<real_t(real_t, real_t, real_t)>>& fs);

  /// Run the solve loop (solve_loop, gmg/cycle.hpp) until every
  /// component has retired (converged, exhausted its cycle budget, or
  /// been cancelled). results[c] is bitwise what GmgSolver::solve would
  /// have returned for component c alone, except `seconds`, which
  /// reports time from batch start to that component's retirement.
  std::vector<SolveResult> solve(comm::Communicator& comm,
                                 const std::vector<BatchSolveSpec>& specs);

  /// Interior extent of the finest level (snapshot geometry).
  Vec3 solution_extent() const;
  /// Component c's solution, captured at its retirement, in
  /// for_each(Box::from_extent(solution_extent())) iteration order.
  const std::vector<real_t>& solution(int c) const {
    return solutions_[static_cast<std::size_t>(c)];
  }

  /// The hierarchy the batch rides on (geometry, operator, options).
  const GmgSolver& base() const { return base_; }

 private:
  /// The K-component twins of MgLevel's per-solve fields plus the
  /// stretched exchange engine. Everything else (geometry, coefficients)
  /// is read from base_.level(l).
  struct BatchLevel {
    BatchedBrickedArray x, b, Ax, r, p;
    std::unique_ptr<comm::BrickExchange> exchange;
  };

  /// Capture component c's fine-level solution into solutions_[c].
  void snapshot_solution(int c);

  GmgSolver& base_;
  int k_;
  std::vector<BatchLevel> levels_;
  std::vector<std::vector<real_t>> solutions_;
  /// The cycle's ghost bookkeeping (in base cells) and bottom-CG scratch.
  CycleState cycle_;
};

}  // namespace gmg::batch

// Multi-RHS batched geometric multigrid (DESIGN.md §15): one V-cycle
// schedule driven over K independent systems that share a hierarchy's
// geometry and operator. The schedule is the solo solver's own cycle
// (gmg/cycle.hpp) run over K components; fields live in AoSoA batched
// storage (batched_array.hpp), every kernel is the K-systems twin of
// the solo one (batched_kernels.hpp), and ONE stretched-shape ghost
// exchange round per sweep moves all K components of every aggregated
// field.
//
// Correctness bar: a K-way batched solve is BITWISE identical to K
// solo GmgSolver::solve runs with the same hierarchy and inputs —
// same iterates, same residual histories, same cycle counts. The
// schedule is value-neutral by construction (see batched_kernels.hpp);
// per-component divergence (one system converging first, a deadline
// hitting one request) is handled by *retiring* components — capturing
// their solution snapshot the moment their solo twin's cycle loop
// would have exited — while the shared schedule keeps running for the
// rest. Retired components keep being smoothed (masking the main
// kernels would change nothing for the live ones and cost extra
// branches); only the masked bottom-CG updates freeze per component,
// because the solo CG exits its own iteration loop mid-cycle.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "batch/batched_array.hpp"
#include "brick/brick_arena.hpp"
#include "check/schedule.hpp"
#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "gmg/cycle_state.hpp"
#include "gmg/solver.hpp"

namespace gmg::batch {

/// Per-component solve parameters — the batched counterpart of
/// (GmgSolver::set_solve_params, SolveControl).
struct BatchSolveSpec {
  real_t tolerance = 1e-10;
  int max_vcycles = 100;
  /// Optional external cancel/deadline hook for this component; the
  /// check is collective at cycle boundaries, exactly like the solo
  /// solve loop's.
  const SolveControl* control = nullptr;
};

/// Drives K systems through one cycle schedule over a solo hierarchy.
/// The base GmgSolver contributes everything per-level that is shared
/// across the batch — geometry, stencil coefficients, the variable-
/// coefficient operator and its diagonal, brick partitions — and is
/// not mutated (its own fields stay untouched). The BatchedSolver owns
/// the K-component field set and its stretched exchange engines.
class BatchedSolver {
 public:
  /// Build the K-component twin of `base`'s hierarchy. With `arena`,
  /// field storage is checked out of the pool (and returned on
  /// destruction) instead of allocated. Requires k >= 1 and
  /// !base.options().use_generated_kernels (the generated kernels are
  /// emitted for solo layout only).
  BatchedSolver(GmgSolver& base, int k, BrickArena* arena = nullptr);
  ~BatchedSolver();

  BatchedSolver(const BatchedSolver&) = delete;
  BatchedSolver& operator=(const BatchedSolver&) = delete;

  int batch() const { return k_; }
  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Initialize component c's RHS on the finest level for every
  /// component (fs.size() == batch()) and reset the whole field set,
  /// mirroring GmgSolver::set_rhs state exactly per component.
  void set_rhs(
      const std::vector<std::function<real_t(real_t, real_t, real_t)>>& fs);

  /// Run the shared cycle schedule until every component has retired
  /// (converged, exhausted its cycle budget, or been cancelled).
  /// results[c] is bitwise what GmgSolver::solve would have returned
  /// for component c alone, except `seconds`, which reports time from
  /// batch start to that component's retirement.
  std::vector<SolveResult> solve(comm::Communicator& comm,
                                 const std::vector<BatchSolveSpec>& specs);

  /// Interior extent of the finest level (snapshot geometry).
  Vec3 solution_extent() const;
  /// Component c's solution, captured at its retirement, in
  /// for_each(Box::from_extent(solution_extent())) iteration order.
  const std::vector<real_t>& solution(int c) const {
    return solutions_[static_cast<std::size_t>(c)];
  }

  /// The live batched fine-level solution field (testing hook).
  BatchedBrickedArray& solution_field() { return levels_.front().x; }

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
  /// The batched run executor of the cycle (defined in the .cpp).
  class Run;

  /// Capture component c's fine-level solution into solutions_[c].
  void snapshot_solution(int c);

  bool needs_p() const {
    return base_.options().smoother == Smoother::kChebyshev ||
           base_.options().bottom == BottomSolverType::kConjugateGradient;
  }

  GmgSolver& base_;
  int k_;
  BrickArena* arena_;
  std::vector<BatchLevel> levels_;
  std::vector<std::vector<real_t>> solutions_;
  /// The cycle's ghost bookkeeping (in base cells) and bottom-CG scratch.
  CycleState cycle_;
  OverlapStream overlap_{"batch.compute"};
};

/// Record the planned batched schedule through the batched run's own
/// cycle (gmg/cycle.hpp, Record executor): an initial convergence
/// check, one full cycle with every component active, the
/// representative retirement of component 0, and a second cycle over
/// the survivors — proving that shrinking the active set can never
/// reorder or resurrect a collective.
check::Schedule record_batched_schedule(const BatchedSolver& bs);

/// Record and statically verify; throws gmg::Error naming the
/// offending step pair. Called from the BatchedSolver constructor when
/// check::verify_schedule_enabled().
void verify_batched_schedule(const BatchedSolver& bs);

}  // namespace gmg::batch

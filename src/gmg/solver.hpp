// Geometric multigrid solver with fine-grain data blocking — the
// paper's core contribution (Algorithms 1 and 2), extended with the
// variants §IX lists as future work: alternative smoothers (weighted
// Jacobi, Chebyshev), a conjugate-gradient bottom solver, W-cycles,
// full multigrid (FMG), and a 4th-order (radius-2) operator.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "comm/simmpi.hpp"
#include "exec/runtime.hpp"
#include "gmg/cycle_state.hpp"
#include "gmg/level.hpp"

namespace gmg {

/// Smoothing operator (paper §IV-C uses point Jacobi; §IX lists
/// alternatives as future work).
enum class Smoother {
  kJacobi,      // x += gamma (Ax - b), gamma = -jacobi_weight/diag
  kRedBlackGS,  // red-black Gauss-Seidel (two colored half-sweeps)
  kChebyshev,   // polynomial smoother on D^-1 A eigenvalue bounds
};

enum class CycleType { kV, kW };

enum class BottomSolverType {
  kSmooth,             // bottom_smooths sweeps of the configured smoother
  kConjugateGradient,  // matrix-free CG with global reductions
};

struct GmgOptions {
  /// Total number of grids in the V-cycle (the artifact's -l flag);
  /// the coarsest grid (index levels-1) hosts the bottom solver.
  /// Clamped so the coarsest subdomain still holds one whole brick.
  int levels = 6;
  /// Smoothing iterations per level per sweep (paper: 12).
  int smooths = 12;
  /// Bottom-solver budget: sweeps of the smoother (paper: 100 point-
  /// Jacobi iterations) or CG iterations.
  int bottom_smooths = 100;
  /// Convergence: max-norm of the residual (paper: 1e-10).
  real_t tolerance = 1e-10;
  /// Safety limit on V-cycles (the artifact's -n flag).
  int max_vcycles = 100;

  BrickShape brick = BrickShape::cube(8);
  /// Deep-ghost communication-avoiding smoothing (paper §V): exchange
  /// once per brick-depth/radius sweeps, computing redundantly into
  /// the ghost region along the axes that have remote neighbors (a
  /// self-periodic axis wraps onto owned bricks and saves no message,
  /// so sweeps never grow along it — DESIGN.md §11). Off = exchange
  /// before every applyOp (Algorithm 2 as literally written).
  bool communication_avoiding = true;
  comm::BrickExchangeMode exchange_mode = comm::BrickExchangeMode::kPackFree;

  /// Upper bound on how many compatible requests the serve tier's
  /// coalescer may fuse into one batched solve through this hierarchy
  /// (src/batch). 1 = no coalescing; at most kMaxBatch
  /// (brick/batched_array.hpp), the widest batch the kernels are built
  /// for. Not part of the hierarchy cache key: batching reuses the solo
  /// hierarchy's geometry unchanged.
  int max_batch = 1;

  /// The operator solved is A = identity_coef * I + laplacian_coef *
  /// Laplacian_h. The paper's model problem is (0, 1); an implicit
  /// heat step (I - nu*dt*Laplacian) u = rhs uses (1, -nu*dt).
  real_t identity_coef = 0.0;
  real_t laplacian_coef = 1.0;
  /// Laplacian discretization: 1 = the paper's 2nd-order 7-point
  /// star; 2 = 4th-order 13-point star (radius 2).
  int operator_radius = 1;

  Smoother smoother = Smoother::kJacobi;
  /// Jacobi damping; the default 0.5 is the paper's point Jacobi
  /// (gamma = -1/(2 diag)).
  real_t jacobi_weight = 0.5;
  /// Chebyshev smoothing interval on the spectrum of D^-1 A:
  /// [lambda_max * min_frac, lambda_max].
  real_t cheby_lambda_max = 1.9;
  real_t cheby_min_frac = 0.125;

  CycleType cycle = CycleType::kV;
  BottomSolverType bottom = BottomSolverType::kSmooth;
  real_t bottom_cg_tolerance = 1e-12;
};

struct SolveResult {
  int vcycles = 0;
  real_t final_residual = 0;
  bool converged = false;
  /// The solve stopped early because its SolveControl was cancelled or
  /// its deadline passed (see GmgSolver::solve).
  bool cancelled = false;
  double seconds = 0;
  /// Residual max-norm before the first cycle and after each cycle.
  std::vector<real_t> history;
};

/// External control of an in-flight solve (the serve layer's
/// cancellation/deadline hook). One instance may be shared by every
/// rank of a solve: the abort decision is made *collectively* — each
/// rank contributes its local view through an allreduce once per cycle
/// — so all ranks leave the cycle loop together and no rank blocks in
/// a collective its peers never enter.
struct SolveControl {
  std::atomic<bool> cancel{false};
  /// Absolute deadline on the trace::now_ns() clock; 0 = none.
  std::uint64_t deadline_ns = 0;
};

/// One component's solve parameters, as the solve loop
/// (gmg/cycle.hpp) reads them: a lone solve has one, a K-way batched
/// solve one per component.
struct SolveSpec {
  real_t tolerance = 1e-10;
  int max_vcycles = 100;
  /// Optional cancel/deadline hook, checked collectively at cycle
  /// boundaries.
  const SolveControl* control = nullptr;
};

class GmgSolver {
 public:
  /// Build the hierarchy for this rank of `decomp`. The physical
  /// domain is the unit cube; h at the finest level is
  /// 1/global_extent.x.
  GmgSolver(const GmgOptions& opts, const CartDecomp& decomp, int rank);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  int bottom_level() const { return num_levels() - 1; }
  MgLevel& level(int l) { return levels_[static_cast<std::size_t>(l)]; }
  const MgLevel& level(int l) const {
    return levels_[static_cast<std::size_t>(l)];
  }
  const GmgOptions& options() const { return opts_; }
  int rank() const { return rank_; }
  /// The decomposition this hierarchy was built for (kept by value so
  /// batched twins — src/batch — can build their own stretched-shape
  /// exchange engines against the same rank geometry).
  const CartDecomp& decomp() const { return decomp_; }

  /// Per-request solve parameters that do not affect hierarchy setup
  /// (the serve layer reuses one cached hierarchy across requests with
  /// different accuracy targets).
  void set_solve_params(real_t tolerance, int max_vcycles) {
    opts_.tolerance = tolerance;
    opts_.max_vcycles = max_vcycles;
  }

  /// Initialize b on the finest level from a function of physical
  /// cell-center coordinates in [0,1)^3, and reset x to zero.
  void set_rhs(const std::function<real_t(real_t, real_t, real_t)>& f);

  /// Switch to the variable-coefficient operator
  /// A = identity_coef*I + div(beta grad .) with the cell-centered
  /// coefficient beta(x,y,z) > 0. The coefficient is evaluated on the
  /// finest level, volume-average restricted down the hierarchy, and
  /// its ghosts exchanged (hence the communicator). Requires
  /// operator_radius == 1.
  void set_coefficient(comm::Communicator& comm,
                       const std::function<real_t(real_t, real_t, real_t)>& f);

  /// Algorithm 1: cycle until the global residual max-norm drops
  /// below tolerance — the one-component call of the solve loop
  /// (solve_loop, gmg/cycle.hpp). With `control`, the loop additionally
  /// stops — collectively, at a cycle boundary — once the cancel flag
  /// is set or the deadline has passed on any rank (result.cancelled).
  /// The solver is re-entrant across calls: set_rhs() + solve() on a
  /// once-built hierarchy is bitwise identical to a fresh solver.
  SolveResult solve(comm::Communicator& comm,
                    const SolveControl* control = nullptr);

  /// One multigrid cycle rooted at the finest level (V or W according
  /// to options().cycle).
  void vcycle(comm::Communicator& comm);

  /// Full multigrid: restrict the RHS down the hierarchy, solve the
  /// coarsest, and work upward using prolonged solutions as initial
  /// guesses with one cycle per level. Typically reaches
  /// discretization accuracy in a single pass; follow with solve()
  /// for tighter algebraic tolerances.
  void fmg(comm::Communicator& comm);

  /// Global max-norm of the finest-level residual (collective).
  real_t residual_norm(comm::Communicator& comm);
  /// Global L2 norm of the finest-level residual (collective).
  /// Recomputes Ax; call after residual_norm or a cycle.
  real_t residual_norm_l2(comm::Communicator& comm);

  /// Tell the cycle that the caller wrote the finest level's x and/or b
  /// directly (between set_rhs and solve, or between solves): their
  /// ghosts are stale, so the next sweep or convergence check exchanges
  /// first.
  void fine_fields_written() { cycle_.fine_written(); }

  const BrickedArray& solution() const { return levels_.front().x; }
  BrickedArray& solution() { return levels_.front().x; }

 private:
  /// Resolve every level's KernelPlan (kernel bindings + fusion
  /// predicate). Called from the constructor and again from
  /// set_coefficient.
  void resolve_kernel_plans();

  GmgOptions opts_;
  CartDecomp decomp_;
  int rank_;
  std::vector<MgLevel> levels_;
  /// The cycle's ghost bookkeeping and bottom-CG scratch (gmg/cycle.hpp).
  CycleState cycle_;
};

}  // namespace gmg

// Geometric multigrid solver with fine-grain data blocking — the
// paper's core contribution (Algorithms 1 and 2), extended with the
// variants §IX lists as future work: alternative smoothers (weighted
// Jacobi, Chebyshev), a conjugate-gradient bottom solver, W-cycles,
// full multigrid (FMG), and a 4th-order (radius-2) operator.
#pragma once

#include <atomic>
#include <functional>
#include <vector>

#include "brick/brick_arena.hpp"
#include "comm/simmpi.hpp"
#include "exec/engine.hpp"
#include "exec/runtime.hpp"
#include "gmg/cycle_state.hpp"
#include "gmg/level.hpp"
#include "perf/profiler.hpp"

namespace gmg {

/// Smoothing operator (paper §IV-C uses point Jacobi; §IX lists
/// alternatives as future work).
enum class Smoother {
  kPointJacobi,    // x += gamma (Ax - b), gamma = -1/(2 diag)
  kWeightedJacobi, // same with a configurable weight
  kChebyshev,      // polynomial smoother on D^-1 A eigenvalue bounds
  kRedBlackGS,     // red-black Gauss-Seidel (two colored half-sweeps)
};

enum class CycleType { kV, kW };

enum class BottomSolverType {
  kSmooth,             // the paper's 100 point-Jacobi iterations
  kConjugateGradient,  // matrix-free CG with global reductions
};

struct GmgOptions {
  /// Total number of grids in the V-cycle (the artifact's -l flag);
  /// the coarsest grid (index levels-1) hosts the bottom solver.
  /// Clamped so the coarsest subdomain still holds one whole brick.
  int levels = 6;
  /// Smoothing iterations per level per sweep (paper: 12).
  int smooths = 12;
  /// Bottom-solver budget: point-Jacobi iterations (paper: 100) or CG
  /// iterations.
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

  /// Overlap compute with the ghost exchange (DESIGN.md §10): each
  /// exchange runs split-phase, with the stencil applied over the
  /// interior brick partition on an exec::Engine worker while the
  /// messages fly, then over the surface shell once finish() returns.
  /// Bitwise identical to the blocking path: a region split only
  /// reorders work that never reads what it writes — the whole one-pass
  /// Jacobi sweep (x' goes to a separate buffer), Chebyshev's operator
  /// application, the red GS half-sweep. No effect on ranks with no
  /// remote neighbor.
  bool overlap = true;
  /// Levels with fewer interior (non-surface) bricks than this fall
  /// back to the blocking exchange even when `overlap` is on: on the
  /// coarse grids there is next to no interior work to hide the
  /// messages behind, so the split-phase machinery is pure overhead.
  int overlap_min_interior_bricks = 4;
  /// Second overlap cutoff, in work-vs-traffic terms: split-phase
  /// engages only where the interior field bytes (the compute hidden
  /// behind the messages) are at least this multiple of the remote
  /// payload bytes one exchange round moves. The brick-count floor
  /// above catches tiny coarse grids; this ratio catches the
  /// surface-dominated shapes in between, where the safe interior is a
  /// sliver and the split-phase machinery (stream submit, shell sweep
  /// bookkeeping, event wait) costs more than the messages it hides.
  /// Overlap is value-neutral (DESIGN.md §10), so this is purely a
  /// performance knob; 0 disables the ratio test. The default was set
  /// by measurement on fig8's 8-rank 64^3 problem: its split-phase
  /// levels sit at interior/payload ratios of 0.44 (L0) and 0.05 (L1)
  /// and hide 35–53% of the *visible* exchange wait there, yet the
  /// wall clock runs a consistent ~6–10% *slower* than blocking —
  /// with host-parallelism oversubscribed, the hidden wait is cost
  /// moved, not removed, and the split/submit/wait machinery is a
  /// pure add. 8.0 keeps split-phase for the regime where interior
  /// arithmetic genuinely dwarfs the traffic (roughly >=64^3 per rank
  /// at brick 4^3), and turns small-subdomain solves — including
  /// everything the serve tier batches — back into the cheaper
  /// blocking exchange. Set to 0 to measure raw split-phase behavior
  /// (what fig8 --overlap=on reports per level).
  double overlap_min_compute_bytes_ratio = 8.0;
  /// Upper bound on how many compatible requests the serve tier's
  /// coalescer may fuse into one batched solve through this hierarchy
  /// (src/batch). 1 = no coalescing. Not part of the hierarchy cache
  /// key: batching reuses the solo hierarchy's geometry unchanged.
  int max_batch = 1;

  /// The operator solved is A = identity_coef * I + laplacian_coef *
  /// Laplacian_h. The paper's model problem is (0, 1); an implicit
  /// heat step (I - nu*dt*Laplacian) u = rhs uses (1, -nu*dt).
  real_t identity_coef = 0.0;
  real_t laplacian_coef = 1.0;
  /// Laplacian discretization: 1 = the paper's 2nd-order 7-point
  /// star; 2 = 4th-order 13-point star (radius 2).
  int operator_radius = 1;

  Smoother smoother = Smoother::kPointJacobi;
  real_t jacobi_weight = 0.5;  // used by kWeightedJacobi
  /// Chebyshev smoothing interval on the spectrum of D^-1 A:
  /// [lambda_max * min_frac, lambda_max].
  real_t cheby_lambda_max = 1.9;
  real_t cheby_min_frac = 0.125;

  CycleType cycle = CycleType::kV;
  BottomSolverType bottom = BottomSolverType::kSmooth;
  real_t bottom_cg_tolerance = 1e-12;

  /// Route applyOp through the stencilgen-emitted kernels
  /// (src/dsl/generated/) instead of the hand-written ones — the
  /// "everything through the code generator" configuration BrickLib
  /// itself runs in. Constant-coefficient operators only.
  bool use_generated_kernels = false;

  /// Cross-stage kernel fusion for the V-cycle descent (DESIGN.md
  /// §16): where the smoother permits it, the final smooth + residual
  /// + restriction run as ONE pass over each fine brick, and
  /// residual_norm fuses the residual with its max-norm reduction.
  /// Jacobi/weighted Jacobi fuse fully; red-black GS fuses its
  /// residual+restriction tail; Chebyshev falls back to the split
  /// schedule (its recurrence consumes r every sweep). Value-neutral:
  /// fused results are bitwise identical to the split path. The
  /// GMG_FUSE_STAGES environment variable ("0" disables) overrides
  /// this at construction, mirroring GMG_EXEC_WORKERS.
  bool fuse_stages = true;
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
  /// below tolerance. With `control`, the loop additionally stops —
  /// collectively, at a cycle boundary — once the cancel flag is set
  /// or the deadline has passed on any rank (result.cancelled). The
  /// solver is re-entrant across calls: set_rhs() + solve() on a
  /// once-built hierarchy is bitwise identical to a fresh solver.
  SolveResult solve(comm::Communicator& comm,
                    const SolveControl* control = nullptr);

  /// Hand every per-solve field (x, b, Ax, r, and the Chebyshev/CG
  /// direction p) of every level to `arena`, leaving the hierarchy a
  /// storage-less skeleton: geometry, stencil coefficients, exchange
  /// engines, cached iteration plans, and the variable-coefficient
  /// operator (coef/diag) stay resident. The serve layer parks cached
  /// hierarchies this way so idle entries hold no field memory.
  void detach_field_storage(BrickArena& arena);

  /// Re-acquire the detached fields from `arena` (zeroed, so a
  /// following set_rhs()/solve() behaves exactly like a fresh solver).
  /// No-op when storage is already attached.
  void attach_field_storage(BrickArena& arena);

  /// Whether the per-solve fields are currently detached.
  bool storage_detached() const { return storage_detached_; }

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

  perf::Profiler& profiler() { return profiler_; }
  const perf::Profiler& profiler() const { return profiler_; }

 private:
  /// Resolve every level's KernelPlan (kernel bindings + fusion
  /// predicate). Called from the constructor and again from
  /// set_coefficient.
  void resolve_kernel_plans();

  /// Whether the configured smoother/bottom solver needs the p field.
  bool needs_p() const {
    return opts_.smoother == Smoother::kChebyshev ||
           opts_.bottom == BottomSolverType::kConjugateGradient;
  }

  GmgOptions opts_;
  CartDecomp decomp_;
  int rank_;
  bool storage_detached_ = false;
  std::vector<MgLevel> levels_;
  perf::Profiler profiler_;
  /// The cycle's ghost bookkeeping and bottom-CG scratch (gmg/cycle.hpp).
  CycleState cycle_;
  OverlapStream overlap_{"gmg.compute"};
};

}  // namespace gmg

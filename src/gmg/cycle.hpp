// The multigrid cycle, written once (DESIGN.md §18). Cycle<Exec> holds
// every schedule decision of a solve: the communication-avoiding margin
// algebra and exchange aggregation, the Jacobi, Chebyshev and red-black
// Gauss-Seidel sweeps, the bottom smoother and the masked bottom CG,
// the V/W cycle, FMG and the convergence norm. It issues each launch,
// exchange and reduction through an executor, of which there are two:
//
//   * LevelRun<Level> (level_run.hpp): runs it over a field set — the
//     GmgSolver's own levels or a batched solve's K-lane levels —
//     through each level's KernelPlan and the one K-generic kernel
//     set, each phase timed as one levelled trace span (gmg/phase.hpp);
//   * Record (schedule_audit.hpp): emits a check::ScheduleStep per
//     launch instead of running it, so the §18 verifier proves the
//     schedule the solvers issue.
//
// Geometry, options and kernel plans come from the GmgSolver's
// levels (a batched solve shares its base hierarchy's); the per-level
// ghost state lives in a CycleState the caller owns, so a recording can
// start from the canonical post-set_rhs state without touching a live
// solver. The executor contract, level index first throughout:
//
//   k()                                   components (1 solo, K batched)
//   timed(l, phase, fn)                   fn as one phase (gmg/phase.hpp)
//   exchange(l, fields)                   one blocking ghost round
//   apply(l, out, in, box)                out = A in
//   jacobi(l, box, descent)               one Jacobi sweep into the
//                                         spare buffer (Ax's storage);
//                                         a descent sweep also writes r
//                                         and restricts it
//   swap(l)                               x and Ax trade storage
//   gs_color(l, color, box), residual(l, box),
//   residual_restrict(l), restriction(l, fine), init_zero_x(l, stored),
//   interp_increment(l), interp_trilinear(l), cheby_p(l, box, beta),
//   axpy_p(l, alpha, box), copy(l, dst, src)
//   dot(l, a, b, c), axpy_interior(l, y, a, x, c),
//   xpay_interior(l, y, x, beta, c)      per-component bottom-CG ops
//   max_norm(c)                           finest-level local norm
//   residual_max_norm()                   fused residual + max-norm
//                                         (one component)
//   norm2_sq()                            for residual_norm_l2 (solo)
//   next_group(), allreduce_sum/max(local, op, l, c, group, masked)
//   cg_iterations(budget)                 bottom-CG iteration cap
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "brick/batched_array.hpp"
#include "common/timer.hpp"
#include "gmg/cycle_state.hpp"
#include "gmg/operators.hpp"
#include "gmg/phase.hpp"
#include "gmg/solver.hpp"
#include "trace/trace.hpp"

namespace gmg {

/// A per-level solve field as the cycle names it.
enum class Fld : std::uint8_t { kX, kB, kAx, kR, kP };

/// Field `f` of a level's solve fields (members x, b, Ax, r, p — the
/// solo MgLevel or a batched level).
template <class Level>
auto& field(Level& L, Fld f) {
  switch (f) {
    case Fld::kX: return L.x;
    case Fld::kB: return L.b;
    case Fld::kAx: return L.Ax;
    case Fld::kR: return L.r;
    case Fld::kP: return L.p;
  }
  return L.x;
}

/// Up to three fields aggregated into one exchange round.
struct FieldSet {
  Fld f[3] = {Fld::kX, Fld::kX, Fld::kX};
  int n = 0;
  FieldSet() = default;
  explicit FieldSet(Fld a) { add(a); }
  void add(Fld a) { f[n++] = a; }
};

template <class Exec>
class Cycle {
 public:
  Cycle(const GmgSolver& s, Exec& ex, CycleState& st)
      : s_(s), o_(s.options()), ex_(ex), st_(st) {}

  /// One V (or W) cycle from the finest level.
  void vcycle() { cycle_at(0); }

  /// Full multigrid: restrict the RHS down the hierarchy, solve the
  /// coarsest, and work upward with prolonged initial guesses and one
  /// cycle per level.
  void fmg() {
    const int bot = s_.bottom_level();
    for (int l = 0; l < bot; ++l) {
      ex_.timed(l, Phase::kRestriction, [&] { ex_.restriction(l, Fld::kB); });
      st_.ghosts[idx(l + 1)].b_valid = false;
    }
    ex_.init_zero_x(bot, stored_cells(bot));
    st_.ghosts[idx(bot)].margin = lev(bot).shape.bx;
    bottom_solve();
    for (int l = bot - 1; l >= 0; --l) {
      // Trilinear prolongation reads one coarse ghost layer.
      GhostState& cg = st_.ghosts[idx(l + 1)];
      if (cg.margin < 1) {
        ex_.timed(l + 1, Phase::kExchange,
                  [&] { ex_.exchange(l + 1, FieldSet(Fld::kX)); });
        cg.margin = lev(l + 1).shape.bx;
      }
      ex_.timed(l, Phase::kInterpIncrement, [&] { ex_.interp_trilinear(l); });
      st_.ghosts[idx(l)].margin = 0;
      cycle_at(l);
    }
  }

  /// Convergence check: res[c] = the global max-norm of the finest
  /// residual of every component c with active[c] set, reduced in
  /// component order (retired components are skipped consistently on
  /// every rank, keeping the collective sequence rank-uniform).
  void residual_norms(const std::uint8_t* active, real_t* res) {
    const MgLevel& fine = lev(0);
    const Box in = fine.interior();
    apply_fresh(0, in);
    const int group = ex_.next_group();
    if (ex_.k() == 1) {
      // One norm: the residual and its max-norm in one pass, bitwise
      // identical to the split pair (fused_kernels.hpp).
      real_t local = 0;
      ex_.timed(0, Phase::kMaxNorm, [&] { local = ex_.residual_max_norm(); });
      res[0] = ex_.allreduce_max(local, "allreduce.max_norm", 0, 0, group,
                                 /*masked=*/true);
      return;
    }
    ex_.timed(0, Phase::kResidual, [&] { ex_.residual(0, in); });
    for (int c = 0; c < ex_.k(); ++c) {
      if (active[c] == 0) continue;
      real_t local = 0;
      ex_.timed(0, Phase::kMaxNorm, [&] { local = ex_.max_norm(c); });
      res[c] = ex_.allreduce_max(local, "allreduce.max_norm", 0, c, group,
                                 /*masked=*/true);
    }
  }

  /// Every stored cell of level l — the interior grown by the ghost
  /// depth along the axes the grid does not wrap: what init_zero
  /// writes.
  Box stored_cells(int l) const {
    return lev(l).grid->grow_unwrapped(lev(l).interior(), lev(l).shape.bx);
  }

  /// Whether `control` stops component c, decided collectively: every
  /// rank reduces its local view (cancel flag set or deadline passed)
  /// through one max-allreduce, so all ranks leave together and none
  /// blocks in a cycle collective its peers never enter.
  bool stop_requested(const SolveControl& control, int c) {
    const bool local = control.cancel.load(std::memory_order_relaxed) ||
                       (control.deadline_ns != 0 &&
                        trace::now_ns() >= control.deadline_ns);
    return ex_.allreduce_max(local ? 1.0 : 0.0, "allreduce.control", 0, c,
                             ex_.next_group(), false) > 0.0;
  }

  /// Global L2 norm of the finest residual (one component; collective).
  real_t residual_norm_l2() {
    const MgLevel& fine = lev(0);
    if (st_.ghosts[0].margin < fine.radius) exchange_for_smooth(0);
    ex_.apply(0, Fld::kAx, Fld::kX, fine.interior());
    ex_.residual(0, fine.interior());
    return ex_.allreduce_sum(ex_.norm2_sq(), "allreduce.norm2", 0, 0,
                             ex_.next_group(), false);
  }

 private:
  static std::size_t idx(int l) { return static_cast<std::size_t>(l); }
  const MgLevel& lev(int l) const { return s_.level(l); }
  bool ca() const { return o_.communication_avoiding; }

  /// One aggregated blocking ghost round at level l: x always, b when
  /// its ghosts are stale under CA, p for the CA Chebyshev recurrence —
  /// the paper's message aggregation across fields.
  void exchange_for_smooth(int l) {
    GhostState& g = st_.ghosts[idx(l)];
    FieldSet fs(Fld::kX);
    if (ca() && !g.b_valid) {
      fs.add(Fld::kB);
      g.b_valid = true;
    }
    if (ca() && o_.smoother == Smoother::kChebyshev) fs.add(Fld::kP);
    ex_.timed(l, Phase::kExchange, [&] { ex_.exchange(l, fs); });
    g.margin = lev(l).shape.bx;
  }

  /// Ax = A x over `box` with x's ghosts refreshed first when spent.
  void apply_fresh(int l, const Box& box) {
    if (st_.ghosts[idx(l)].margin < lev(l).radius) exchange_for_smooth(l);
    ex_.timed(l, Phase::kApplyOp,
              [&] { ex_.apply(l, Fld::kAx, Fld::kX, box); });
  }

  /// The exchange a Jacobi or Chebyshev sweep needs, and the region it
  /// then covers: under CA it exchanges only when the margin is spent
  /// or b's ghosts are stale, and grows the sweep into the still-valid
  /// ghost layers; without CA it exchanges before every sweep.
  Box prepare_sweep(int l) {
    const MgLevel& L = lev(l);
    GhostState& g = st_.ghosts[idx(l)];
    if (!ca()) {
      exchange_for_smooth(l);
      g.margin = 0;
      return L.interior();
    }
    if (g.margin < L.radius || !g.b_valid) exchange_for_smooth(l);
    return L.grid->grow_unwrapped(L.interior(), g.margin - L.radius);
  }

  /// One smoothing block. On the descent (a level with a coarser one
  /// below) the block also leaves the residual restricted into the
  /// coarse RHS where the plan fuses the restriction; Chebyshev leaves
  /// it to the caller.
  void smooth_level(int l, int iterations, bool descent) {
    switch (o_.smoother) {
      case Smoother::kJacobi:
        jacobi_sweeps(l, iterations, descent);
        break;
      case Smoother::kChebyshev:
        chebyshev_sweeps(l, iterations);
        break;
      case Smoother::kRedBlackGS:
        gs_sweeps(l, iterations, descent);
        break;
    }
  }

  void jacobi_sweeps(int l, int iterations, bool descent) {
    for (int it = 0; it < iterations; ++it) {
      const Box active = prepare_sweep(l);
      // One sweep writes x' into the spare buffer (Ax's storage), so it
      // never writes what it reads. Only a descent block's last sweep
      // writes r, and folds its restriction into the coarse RHS in the
      // same pass: nothing reads an earlier sweep's residual.
      const bool last = descent && it == iterations - 1;
      ex_.timed(l, last ? Phase::kFusedDescent : Phase::kJacobiSweep,
                [&] { ex_.jacobi(l, active, last); });
      ex_.swap(l);
      if (ca()) st_.ghosts[idx(l)].margin -= lev(l).radius;
    }
  }

  void chebyshev_sweeps(int l, int iterations) {
    // No descent fusion: the recurrence consumes r on every sweep and
    // updates x after it, so the caller keeps the split restriction
    // (the plan's fuses_restriction is off for Chebyshev).
    const real_t lambda_max = o_.cheby_lambda_max;
    const real_t lambda_min = lambda_max * o_.cheby_min_frac;
    const real_t theta = 0.5 * (lambda_max + lambda_min);
    const real_t delta = 0.5 * (lambda_max - lambda_min);
    real_t alpha_ch = 0.0;
    for (int it = 0; it < iterations; ++it) {
      const Box active = prepare_sweep(l);
      ex_.timed(l, Phase::kApplyOp,
                [&] { ex_.apply(l, Fld::kAx, Fld::kX, active); });
      ex_.timed(l, Phase::kSmoothResidual, [&] {
        ex_.residual(l, active);
        // Chebyshev recurrence on the diagonally preconditioned residual
        // (D^-1 A has spectrum in [lambda_min, lambda_max]).
        real_t beta_ch;
        if (it == 0) {
          beta_ch = 0.0;
          alpha_ch = 1.0 / theta;
        } else {
          beta_ch = 0.25 * (delta * alpha_ch) * (delta * alpha_ch);
          alpha_ch = 1.0 / (theta - beta_ch / alpha_ch);
        }
        ex_.cheby_p(l, active, beta_ch);
        ex_.axpy_p(l, alpha_ch, active);
      });
      if (ca()) st_.ghosts[idx(l)].margin -= lev(l).radius;
    }
  }

  void gs_sweeps(int l, int iterations, bool descent) {
    const MgLevel& L = lev(l);
    GMG_REQUIRE(L.radius == 1 && !L.varcoef,
                "red-black Gauss-Seidel supports the constant-coefficient "
                "7-point operator only");
    GhostState& g = st_.ghosts[idx(l)];
    const Box interior = L.interior();
    for (int it = 0; it < iterations; ++it) {
      if (!ca()) {
        // Without deep ghosts the black half-sweep needs the red-updated
        // neighbor values: exchange before each half-sweep.
        for (int c = 0; c < 2; ++c) {
          exchange_for_smooth(l);
          ex_.timed(l, Phase::kSmooth, [&] { ex_.gs_color(l, c, interior); });
        }
        g.margin = 0;
        continue;
      }
      // A full red+black iteration consumes two ghost layers.
      if (g.margin < 2 || !g.b_valid) exchange_for_smooth(l);
      const Box red_box = L.grid->grow_unwrapped(interior, g.margin - 1);
      const Box black_box = L.grid->grow_unwrapped(interior, g.margin - 2);
      ex_.timed(l, Phase::kSmooth, [&] {
        ex_.gs_color(l, 0, red_box);
        ex_.gs_color(l, 1, black_box);
      });
      g.margin -= 2;
    }
    if (!descent) return;
    // GS updates in place and leaves no residual: the descent tail
    // computes r and its restriction into the coarse RHS in one pass
    // per brick.
    apply_fresh(l, interior);
    ex_.timed(l, Phase::kFusedDescent, [&] { ex_.residual_restrict(l); });
  }

  void bottom_solve() {
    const int l = s_.bottom_level();
    if (o_.bottom == BottomSolverType::kSmooth) {
      smooth_level(l, o_.bottom_smooths, /*descent=*/false);
    } else {
      ex_.timed(l, Phase::kBottomSolve, [&] { bottom_cg(l); });
    }
  }

  /// Matrix-free conjugate gradient on the coarsest grid, masked per
  /// component: per-component scalars, and a component freezes where a
  /// lone CG would have left its loop (rr <= stop, or a pAp breakdown).
  /// Exchanges and the operator keep running over every component — a
  /// frozen component's p never changes, so re-exchanging and
  /// re-applying it perturbs nothing — while the updates skip frozen
  /// components, leaving their x, r, p at the lone exit state. Every
  /// freeze derives from allreduced scalars, so all ranks agree on the
  /// collective sequence. At one component this is plain CG. The
  /// periodic operator is singular with a constant null space; the RHS
  /// reaching the bottom is a restricted residual (mean zero), so the
  /// Krylov iteration stays in range(A).
  void bottom_cg(int l) {
    const MgLevel& L = lev(l);
    GhostState& g = st_.ghosts[idx(l)];
    const Box interior = L.interior();
    // r = b - A x (x may be nonzero on the second visit of a W-cycle).
    if (g.margin < L.radius) {
      ex_.exchange(l, FieldSet(Fld::kX));
      g.margin = L.shape.bx;
    }
    ex_.apply(l, Fld::kAx, Fld::kX, interior);
    ex_.residual(l, interior);
    ex_.copy(l, Fld::kP, Fld::kR);

    const real_t stop = o_.bottom_cg_tolerance * o_.bottom_cg_tolerance;
    const int k = ex_.k();
    real_t* rr = st_.cg_rr.data();
    std::uint8_t* live = st_.cg_live.data();
    int nlive = 0;
    const int entry = ex_.next_group();
    for (int c = 0; c < k; ++c) {
      rr[c] = ex_.allreduce_sum(ex_.dot(l, Fld::kR, Fld::kR, c),
                                "allreduce.dot_rr", l, c, entry, false);
      live[c] = rr[c] > stop ? 1 : 0;
      nlive += live[c];
    }
    const int iterations = ex_.cg_iterations(o_.bottom_smooths);
    for (int it = 0; it < iterations && nlive > 0; ++it) {
      ex_.exchange(l, FieldSet(Fld::kP));
      ex_.apply(l, Fld::kAx, Fld::kP, interior);  // Ax := A p
      const int group = ex_.next_group();
      for (int c = 0; c < k; ++c) {
        if (live[c] == 0) continue;
        const real_t pAp =
            ex_.allreduce_sum(ex_.dot(l, Fld::kP, Fld::kAx, c),
                              "allreduce.dot_pAp", l, c, group, false);
        if (pAp == 0.0) {
          live[c] = 0;
          --nlive;
          continue;
        }
        const real_t a = rr[c] / pAp;
        ex_.axpy_interior(l, Fld::kX, a, Fld::kP, c);
        ex_.axpy_interior(l, Fld::kR, -a, Fld::kAx, c);
        const real_t rr_new =
            ex_.allreduce_sum(ex_.dot(l, Fld::kR, Fld::kR, c),
                              "allreduce.dot_rr", l, c, group, false);
        ex_.xpay_interior(l, Fld::kP, Fld::kR, rr_new / rr[c], c);
        rr[c] = rr_new;
        if (!(rr[c] > stop)) {
          live[c] = 0;
          --nlive;
        }
      }
    }
    g.margin = 0;  // x changed; ghosts are stale
  }

  void cycle_at(int l) {
    if (l == s_.bottom_level()) {
      bottom_solve();
      return;
    }
    const MgLevel& L = lev(l);
    const MgLevel& coarse = lev(l + 1);
    GhostState& cg = st_.ghosts[idx(l + 1)];

    // Descent: where the plan fuses, the smoothing block also
    // restricts r into the coarse RHS (one pass instead of three stages
    // — DESIGN.md §16); otherwise restriction runs as its own pass.
    smooth_level(l, o_.smooths, /*descent=*/true);
    if (!L.plan.fuses_restriction) {
      ex_.timed(l, Phase::kRestriction, [&] { ex_.restriction(l, Fld::kR); });
    }
    cg.b_valid = false;
    ex_.timed(l + 1, Phase::kInitZero,
              [&] { ex_.init_zero_x(l + 1, stored_cells(l + 1)); });
    cg.margin = coarse.shape.bx;  // zero ghosts are valid

    cycle_at(l + 1);
    if (o_.cycle == CycleType::kW) cycle_at(l + 1);

    ex_.timed(l, Phase::kInterpIncrement, [&] { ex_.interp_increment(l); });
    st_.ghosts[idx(l)].margin = 0;  // interior changed; ghosts are stale
    // The ascent leaves no residual: the next descent or convergence
    // check rewrites r before anything reads it.
    smooth_level(l, o_.smooths, /*descent=*/false);
  }

  const GmgSolver& s_;
  const GmgOptions& o_;
  Exec& ex_;
  CycleState& st_;
};

// ---- the solve driver, written once for every batch width ------------
//
// GmgSolver (its MgLevels, K = 1 at compile time) and BatchedSolver
// (K-lane levels riding a solo hierarchy) share these: the per-solve
// field set, the set_rhs body and the convergence-and-retirement loop.

/// Whether a solve with options `o` needs the p field (the Chebyshev
/// recurrence or the bottom CG).
inline bool needs_p(const GmgOptions& o) {
  return o.smoother == Smoother::kChebyshev ||
         o.bottom == BottomSolverType::kConjugateGradient;
}

/// Call fn(field) on each per-solve field of level L a solve with
/// options `o` uses: x, b, Ax, r, and p when needs_p(o).
template <class Level, class Fn>
void for_each_solve_field(const GmgOptions& o, Level& L, Fn&& fn) {
  for (const Fld f : {Fld::kX, Fld::kB, Fld::kAx, Fld::kR, Fld::kP}) {
    if (f != Fld::kP || needs_p(o)) fn(field(L, f));
  }
}

/// Set up a solve of `levels` (the solve fields of `s`'s hierarchy)
/// for the RHS fs[c] of each component c: each fs[c] is evaluated at
/// the fine level's cell centres, x is zeroed on every level and b
/// below the fine one, and the ghost state is reset to match. p is
/// zeroed too: the first Chebyshev sweep reads it before writing
/// (cheby_p_update computes p = r/D + beta*p even when beta == 0), so a
/// value left by the previous solve, or an Inf that 0*p turns into NaN,
/// would leak in. Ax and r are always written before their first read.
template <class Level>
void set_rhs_fields(
    const GmgSolver& s, std::vector<Level>& levels, CycleState& st,
    const std::function<real_t(real_t, real_t, real_t)>* fs) {
  Level& fine = levels.front();
  const int width = batch_width(fine.b);
  s.level(0).for_each_cell_centre(
      [&](index_t i, index_t j, index_t k, real_t px, real_t py, real_t pz) {
        for (int c = 0; c < width; ++c)
          component(fine.b, i, j, k, c) = fs[c](px, py, pz);
      });
  init_zero(storage(fine.x));
  for (std::size_t l = 1; l < levels.size(); ++l) {
    init_zero(storage(levels[l].x));
    init_zero(storage(levels[l].b));
  }
  st.after_set_rhs(s.level(0).shape.bx);
  if (needs_p(s.options())) {
    for (Level& L : levels) init_zero(storage(L.p));
  }
}

/// Algorithm 1 for specs.size() components riding one cycle schedule:
/// cycle until each component's global residual max-norm is at most its
/// tolerance or is not finite, or it has spent its cycle cap, or its
/// SolveControl stops it. A non-finite norm (a NaN or Inf in the data;
/// the norm kernels count a NaN as +inf) retires unconverged at once:
/// no cycle brings it back. A component that stops *retires*: its
/// result is final and
/// retire(c) runs (the batched solver snapshots its solution there),
/// while the schedule keeps running for the rest. Each component exits
/// where a lone solve's loop would — the loop-condition check, then the
/// collective control check, then the cycle and its norms — so a K-way
/// solve is K lone solves, result for result, and the one-component
/// call is GmgSolver::solve. `span` names each cycle's trace span.
/// result.seconds runs to the component's retirement.
template <class Exec, class Retire>
std::vector<SolveResult> solve_loop(Cycle<Exec>& cycle,
                                    const std::vector<SolveSpec>& specs,
                                    const char* span, Retire&& retire) {
  Timer timer;
  const std::size_t k = specs.size();
  std::vector<SolveResult> results(k);
  std::vector<std::uint8_t> active(k, 1);
  std::vector<real_t> res(k, 0.0);
  std::size_t live = k;
  const auto stop = [&](std::size_t c) {
    SolveResult& r = results[c];
    r.final_residual = res[c];
    r.converged =
        !r.cancelled && std::isfinite(res[c]) && res[c] <= specs[c].tolerance;
    r.seconds = timer.elapsed();
    active[c] = 0;
    --live;
    retire(static_cast<int>(c));
  };
  const auto retire_finished = [&] {
    for (std::size_t c = 0; c < k; ++c) {
      if (active[c] &&
          !(std::isfinite(res[c]) && res[c] > specs[c].tolerance &&
            results[c].vcycles < specs[c].max_vcycles))
        stop(c);
    }
  };
  cycle.residual_norms(active.data(), res.data());
  for (std::size_t c = 0; c < k; ++c) results[c].history.push_back(res[c]);
  retire_finished();
  while (live > 0) {
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c] || specs[c].control == nullptr) continue;
      if (cycle.stop_requested(*specs[c].control, static_cast<int>(c))) {
        results[c].cancelled = true;
        stop(c);
      }
    }
    if (live == 0) break;
    {
      trace::TraceSpan cycle_span(span);
      cycle.vcycle();
    }
    cycle.residual_norms(active.data(), res.data());
    for (std::size_t c = 0; c < k; ++c) {
      if (!active[c]) continue;
      results[c].history.push_back(res[c]);
      ++results[c].vcycles;
    }
    retire_finished();
  }
  return results;
}

}  // namespace gmg

// The multigrid cycle, written once (DESIGN.md §18). Cycle<Exec> holds
// every schedule decision of a solve: the communication-avoiding margin
// algebra and exchange aggregation, the split-phase decision and its
// safe box, the Jacobi, Chebyshev and red-black Gauss-Seidel sweeps,
// the bottom smoother and the masked bottom CG, the V/W cycle, FMG and
// the convergence norm. It issues each launch, exchange and reduction
// through an executor, of which there are three:
//
//   * SoloRun (solver.cpp): GmgSolver's fields through the level's
//     KernelPlan bindings, timed by the solver's profiler;
//   * BatchedRun (batch/batched_solver.cpp): the K-component fields and
//     the batched kernels;
//   * Record (schedule_audit.hpp): emits a check::ScheduleStep per
//     launch instead of running it, so the §18 verifier proves the
//     schedule the solvers issue.
//
// Geometry, options and fusion predicates come from the GmgSolver's
// levels (a batched solve shares its base hierarchy's); the per-level
// ghost state lives in a CycleState the caller owns, so a recording can
// start from the canonical post-set_rhs state without touching a live
// solver. The executor contract, level index first throughout:
//
//   k()                                   components (1 solo, K batched)
//   timed(l, phase, fn)                   fn under a profiler phase
//   exchange(l, fields), begin(l, fields) blocking / split-phase round
//   finish(l, active, safe, phase, kernel)
//                                         complete a begun round around
//                                         kernel(box, partial)
//   apply(l, out, in, box, partial)       out = A in
//   jacobi(l, box, residual, restrict, partial)
//                                         one Jacobi sweep into the
//                                         spare buffer (Ax's storage)
//   swap(l)                               x and Ax trade storage
//   gs_color(l, color, box, partial), residual(l, box),
//   residual_restrict(l), restriction(l, fine), init_zero_x(l, stored),
//   interp_increment(l), interp_trilinear(l), cheby_p(l, box, beta),
//   axpy_p(l, alpha, box), copy(l, dst, src)
//   dot(l, a, b, c), axpy_interior(l, y, a, x, c),
//   xpay_interior(l, y, x, beta, c)      per-component bottom-CG ops
//   max_norm(c)                           finest-level local norm
//   norm2_sq()                            for residual_norm_l2 (solo)
//   fuses_norm(), residual_max_norm()     optional fused residual +
//                                         max-norm (one component)
//   next_group(), allreduce_sum/max(local, op, l, c, group, masked)
//   cg_iterations(budget)                 bottom-CG iteration cap
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "gmg/cycle_state.hpp"
#include "gmg/solver.hpp"
#include "perf/profiler.hpp"

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

/// Complete a begun exchange on `ex` while `kernel` runs over `safe` on
/// the overlap stream; after finish(), run `kernel` over the shell of
/// `active` outside `safe` on this thread while the interior task
/// drains (DESIGN.md §10). With a profiler, the finish is timed under
/// kExchange and both kernel parts under `phase`. Shared by the run
/// executors.
void finish_exchange_overlapped(comm::Communicator& comm,
                                comm::BrickExchange& ex, OverlapStream& os,
                                perf::Profiler* prof, int level,
                                const Box& active, const Box& safe,
                                perf::Phase phase,
                                const std::function<void(const Box&)>& kernel);

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
      ex_.timed(l, perf::Phase::kRestriction,
                [&] { ex_.restriction(l, Fld::kB); });
      st_.ghosts[idx(l + 1)].b_valid = false;
    }
    ex_.init_zero_x(bot, stored_cells(bot));
    st_.ghosts[idx(bot)].margin = lev(bot).shape.bx;
    bottom_solve();
    for (int l = bot - 1; l >= 0; --l) {
      // Trilinear prolongation reads one coarse ghost layer.
      GhostState& cg = st_.ghosts[idx(l + 1)];
      if (cg.margin < 1) {
        ex_.timed(l + 1, perf::Phase::kExchange,
                  [&] { ex_.exchange(l + 1, FieldSet(Fld::kX)); });
        cg.margin = lev(l + 1).shape.bx;
      }
      ex_.timed(l, perf::Phase::kInterpIncrement,
                [&] { ex_.interp_trilinear(l); });
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
    if constexpr (requires { ex_.residual_max_norm(); }) {
      if (fine.plan.fuse_norm && ex_.fuses_norm()) {
        // Fused residual + max-norm: one pass instead of two, bitwise
        // identical to the split pair (fused_kernels.hpp).
        real_t local = 0;
        ex_.timed(0, perf::Phase::kMaxNorm,
                  [&] { local = ex_.residual_max_norm(); });
        res[0] = ex_.allreduce_max(local, "allreduce.max_norm", 0, 0, group,
                                   /*masked=*/true);
        return;
      }
    }
    ex_.timed(0, perf::Phase::kResidual, [&] { ex_.residual(0, in); });
    for (int c = 0; c < ex_.k(); ++c) {
      if (active[c] == 0) continue;
      real_t local = 0;
      ex_.timed(0, perf::Phase::kMaxNorm, [&] { local = ex_.max_norm(c); });
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

  /// Global L2 norm of the finest residual (one component; collective).
  real_t residual_norm_l2() {
    const MgLevel& fine = lev(0);
    if (st_.ghosts[0].margin < fine.radius) exchange_for_smooth(0, false);
    ex_.apply(0, Fld::kAx, Fld::kX, fine.interior(), false);
    ex_.residual(0, fine.interior());
    return ex_.allreduce_sum(ex_.norm2_sq(), "allreduce.norm2", 0, 0,
                             ex_.next_group(), false);
  }

 private:
  static std::size_t idx(int l) { return static_cast<std::size_t>(l); }
  const MgLevel& lev(int l) const { return s_.level(l); }
  bool ca() const { return o_.communication_avoiding; }

  /// Whether level l's exchanges run split-phase: overlap on, a remote
  /// neighbor, enough interior bricks, and interior field bytes at
  /// least overlap_min_compute_bytes_ratio times the remote payload.
  /// Both sides scale with the batch width, so the decision is
  /// K-invariant and read off the solo hierarchy. Value-neutral either
  /// way (DESIGN.md §10).
  bool use_overlap(int l) const {
    const MgLevel& L = lev(l);
    if (!(o_.overlap && L.has_remote &&
          static_cast<int>(L.part.interior.size()) >=
              o_.overlap_min_interior_bricks)) {
      return false;
    }
    if (o_.overlap_min_compute_bytes_ratio > 0.0) {
      const double interior_bytes =
          static_cast<double>(L.part.interior.size()) *
          static_cast<double>(L.shape.volume()) * sizeof(real_t);
      const double remote_bytes =
          static_cast<double>(L.exchange->remote_bytes_per_exchange());
      if (interior_bytes < o_.overlap_min_compute_bytes_ratio * remote_bytes)
        return false;
    }
    return true;
  }

  /// The subregion of `active` whose stencil taps touch no remote ghost
  /// brick — safe to compute while the exchange is in flight. Clamped to
  /// the interior-partition cells on sides with a remote neighbor (one
  /// brick of owned surface keeps the taps clear of the in-flight
  /// receive targets); self-periodic axes wrap onto owned bricks and
  /// never grow the active region, so nothing there is in flight.
  Box overlap_safe_box(int l, const Box& active) const {
    const MgLevel& L = lev(l);
    if (L.part.interior_box.empty()) return Box{};
    Box safe = active;
    for (int d = 0; d < 3; ++d) {
      int off[3] = {0, 0, 0};
      off[d] = -1;
      if (L.remote[static_cast<std::size_t>(
              direction_index(off[0], off[1], off[2]))])
        safe.lo[d] = std::max(safe.lo[d], L.part_cells.lo[d]);
      off[d] = 1;
      if (L.remote[static_cast<std::size_t>(
              direction_index(off[0], off[1], off[2]))])
        safe.hi[d] = std::min(safe.hi[d], L.part_cells.hi[d]);
    }
    return safe.empty() ? Box{} : safe;
  }

  /// One aggregated ghost round at level l, blocking or (split) begun:
  /// x always, b when its ghosts are stale under CA, p for the CA
  /// Chebyshev recurrence — the paper's message aggregation across
  /// fields. The margin is claimed at begin time: every consumer of the
  /// ghost layers runs after the round completes.
  void exchange_for_smooth(int l, bool split) {
    GhostState& g = st_.ghosts[idx(l)];
    FieldSet fs(Fld::kX);
    if (ca() && !g.b_valid) {
      fs.add(Fld::kB);
      g.b_valid = true;
    }
    if (ca() && o_.smoother == Smoother::kChebyshev) fs.add(Fld::kP);
    ex_.timed(l, perf::Phase::kExchange, [&] {
      if (split)
        ex_.begin(l, fs);
      else
        ex_.exchange(l, fs);
    });
    g.margin = lev(l).shape.bx;
  }

  /// Run kernel(box, partial) over `active`: split-phase around a begun
  /// exchange, or whole under `phase`.
  template <class Kernel>
  void launch(int l, const Box& active, bool split, perf::Phase phase,
              Kernel&& kernel) {
    if (split) {
      ex_.finish(l, active, overlap_safe_box(l, active), phase, kernel);
    } else {
      ex_.timed(l, phase, [&] { kernel(active, false); });
    }
  }

  /// Ax = A x over `box` with x's ghosts refreshed first when spent.
  void apply_fresh(int l, const Box& box) {
    bool split = false;
    if (st_.ghosts[idx(l)].margin < lev(l).radius) {
      split = use_overlap(l);
      exchange_for_smooth(l, split);
    }
    launch(l, box, split, perf::Phase::kApplyOp,
           [&](const Box& b, bool partial) {
             ex_.apply(l, Fld::kAx, Fld::kX, b, partial);
           });
  }

  /// The exchange a Jacobi or Chebyshev sweep needs, and the region it
  /// then covers: under CA it exchanges only when the margin is spent
  /// or b's ghosts are stale, and grows the sweep into the still-valid
  /// ghost layers; without CA it exchanges before every sweep.
  Box prepare_sweep(int l, bool& split) {
    const MgLevel& L = lev(l);
    GhostState& g = st_.ghosts[idx(l)];
    split = false;
    if (!ca()) {
      split = use_overlap(l);
      exchange_for_smooth(l, split);
      g.margin = 0;
      return L.interior();
    }
    if (g.margin < L.radius || !g.b_valid) {
      split = use_overlap(l);
      exchange_for_smooth(l, split);
    }
    return L.grid->grow_unwrapped(L.interior(), g.margin - L.radius);
  }

  void smooth_level(int l, int iterations, bool with_residual,
                    bool restrict) {
    switch (o_.smoother) {
      case Smoother::kPointJacobi:
      case Smoother::kWeightedJacobi:
        jacobi_sweeps(l, iterations, with_residual, restrict);
        break;
      case Smoother::kChebyshev:
        chebyshev_sweeps(l, iterations);
        break;
      case Smoother::kRedBlackGS:
        gs_sweeps(l, iterations, with_residual, restrict);
        break;
    }
  }

  void jacobi_sweeps(int l, int iterations, bool with_residual,
                     bool restrict) {
    for (int it = 0; it < iterations; ++it) {
      bool split = false;
      const Box active = prepare_sweep(l, split);
      // One sweep writes x' into the spare buffer (Ax's storage), so it
      // never writes what it reads and splits by region as a whole —
      // interior-then-surface order cannot change a value (DESIGN.md
      // §10). Only the block's last sweep writes r, and on a fused
      // descent it also folds the restriction of r into the coarse RHS:
      // nothing reads an earlier sweep's residual.
      const bool residual = with_residual && it == iterations - 1;
      const bool restrict_here = residual && restrict;
      launch(l, active, split,
             restrict_here ? perf::Phase::kFusedDescent
                           : perf::Phase::kJacobiSweep,
             [&](const Box& b, bool partial) {
               ex_.jacobi(l, b, residual, restrict_here, partial);
             });
      ex_.swap(l);
      if (ca()) st_.ghosts[idx(l)].margin -= lev(l).radius;
    }
  }

  void chebyshev_sweeps(int l, int iterations) {
    // No descent fusion: the recurrence consumes r on every sweep and
    // updates x after it, so the caller keeps the split restriction
    // (the plan's fuse_descent is off for Chebyshev).
    const real_t lambda_max = o_.cheby_lambda_max;
    const real_t lambda_min = lambda_max * o_.cheby_min_frac;
    const real_t theta = 0.5 * (lambda_max + lambda_min);
    const real_t delta = 0.5 * (lambda_max - lambda_min);
    real_t alpha_ch = 0.0;
    for (int it = 0; it < iterations; ++it) {
      bool split = false;
      const Box active = prepare_sweep(l, split);
      // Split only the applyOp (DESIGN.md §10); the recurrence reads Ax
      // and runs once over the full region.
      launch(l, active, split, perf::Phase::kApplyOp,
             [&](const Box& b, bool partial) {
               ex_.apply(l, Fld::kAx, Fld::kX, b, partial);
             });
      ex_.timed(l, perf::Phase::kSmoothResidual, [&] {
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

  void gs_sweeps(int l, int iterations, bool with_residual, bool restrict) {
    const MgLevel& L = lev(l);
    GMG_REQUIRE(L.radius == 1 && !L.varcoef,
                "red-black Gauss-Seidel supports the constant-coefficient "
                "7-point operator only");
    GhostState& g = st_.ghosts[idx(l)];
    const Box interior = L.interior();
    const auto color = [&](int c) {
      return [this, l, c](const Box& b, bool partial) {
        ex_.gs_color(l, c, b, partial);
      };
    };
    for (int it = 0; it < iterations; ++it) {
      if (!ca()) {
        // Without deep ghosts the black half-sweep needs the red-updated
        // neighbor values: exchange before each half-sweep. Either half
        // splits cleanly by region (a cell never reads its own parity).
        for (int c = 0; c < 2; ++c) {
          const bool split = use_overlap(l);
          exchange_for_smooth(l, split);
          launch(l, interior, split, perf::Phase::kSmooth, color(c));
        }
        g.margin = 0;
        continue;
      }
      // A full red+black iteration consumes two ghost layers.
      bool split = false;
      if (g.margin < 2 || !g.b_valid) {
        split = use_overlap(l);
        exchange_for_smooth(l, split);
      }
      const Box red_box = L.grid->grow_unwrapped(interior, g.margin - 1);
      const Box black_box = L.grid->grow_unwrapped(interior, g.margin - 2);
      if (split) {
        // A red cell reads only black-parity neighbors, which the red
        // half-sweep never writes — so splitting red by region changes
        // no value. Black needs the red updates everywhere and runs
        // whole, after finish.
        launch(l, red_box, true, perf::Phase::kSmooth, color(0));
        ex_.timed(l, perf::Phase::kSmooth,
                  [&] { ex_.gs_color(l, 1, black_box, false); });
      } else {
        ex_.timed(l, perf::Phase::kSmooth, [&] {
          ex_.gs_color(l, 0, red_box, false);
          ex_.gs_color(l, 1, black_box, false);
        });
      }
      g.margin -= 2;
    }
    if (!with_residual) return;
    // GS updates in place and leaves no fused residual; compute it for
    // the restriction that follows.
    apply_fresh(l, interior);
    if (restrict) {
      // Fused tail: r and its restriction into the coarse RHS in one
      // pass per brick.
      ex_.timed(l, perf::Phase::kFusedDescent,
                [&] { ex_.residual_restrict(l); });
    } else {
      ex_.timed(l, perf::Phase::kResidual, [&] { ex_.residual(l, interior); });
    }
  }

  void bottom_solve() {
    const int l = s_.bottom_level();
    if (o_.bottom == BottomSolverType::kSmooth) {
      smooth_level(l, o_.bottom_smooths, /*with_residual=*/false,
                   /*restrict=*/false);
    } else {
      ex_.timed(l, perf::Phase::kBottomSolve, [&] { bottom_cg(l); });
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
    ex_.apply(l, Fld::kAx, Fld::kX, interior, false);
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
      ex_.apply(l, Fld::kAx, Fld::kP, interior, false);  // Ax := A p
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

    // Descent: where the plan fuses, the final smoothing sweep also
    // restricts r into the coarse RHS (one pass instead of three stages
    // — DESIGN.md §16); otherwise restriction runs as its own pass.
    const bool fuses = L.plan.fuses_restriction();
    smooth_level(l, o_.smooths, /*with_residual=*/true, fuses);
    if (!fuses) {
      ex_.timed(l, perf::Phase::kRestriction,
                [&] { ex_.restriction(l, Fld::kR); });
    }
    cg.b_valid = false;
    ex_.timed(l + 1, perf::Phase::kInitZero,
              [&] { ex_.init_zero_x(l + 1, stored_cells(l + 1)); });
    cg.margin = coarse.shape.bx;  // zero ghosts are valid

    cycle_at(l + 1);
    if (o_.cycle == CycleType::kW) cycle_at(l + 1);

    ex_.timed(l, perf::Phase::kInterpIncrement,
              [&] { ex_.interp_increment(l); });
    st_.ghosts[idx(l)].margin = 0;  // interior changed; ghosts are stale
    // The ascent leaves no residual: the next descent or convergence
    // check rewrites r before anything reads it.
    smooth_level(l, o_.smooths, /*with_residual=*/false, /*restrict=*/false);
  }

  const GmgSolver& s_;
  const GmgOptions& o_;
  Exec& ex_;
  CycleState& st_;
};

}  // namespace gmg

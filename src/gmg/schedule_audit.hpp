// Schedule recording for the solvers (DESIGN.md §18). Record is the
// cycle's third executor (gmg/cycle.hpp): driving Cycle<Record> runs
// the solvers' own schedule logic — the CA margin algebra, the
// aggregated-exchange decisions and the plans' descent schedules —
// against the live MgLevel/KernelPlan
// state, but every launch, exchange and reduction becomes a
// check::ScheduleStep instead of executing. The resulting Schedule is
// the planned launch/exchange sequence of a solve, proven hazard-free
// by check::ScheduleVerifier at setup time (the GmgSolver constructor
// runs verify_solver_schedule before returning).
#pragma once

#include "check/schedule.hpp"
#include "gmg/cycle.hpp"
#include "gmg/solver.hpp"

namespace gmg {

/// Records the cycle's launches against `s`'s levels, over `k`
/// components: what the run executor (level_run.hpp) issues for a solve
/// of that batch width.
class Record {
 public:
  Record(check::ScheduleRecorder& rec, const GmgSolver& s, int k = 1);

  /// Register every solver level's LevelInfo, and the field validity
  /// set_rhs leaves (CycleState::after_set_rhs is the matching ghost
  /// state): the fine x freshly zeroed, the fine b interior-written
  /// with stale ghosts, coarse x/b and every p zeroed; the
  /// variable-coefficient fields were exchanged or ghost-computed at
  /// set_coefficient time.
  void add_levels();

  /// Level L's operator, out = A in, and its Jacobi sweep (the kernels
  /// its KernelPlan runs), recorded as level l — the AMR composite
  /// records its patch, a level outside the solver's, through these.
  check::ScheduleStep& apply(const MgLevel& L, int l, const char* out,
                             const char* in, const Box& box);
  void sweep(const MgLevel& L, int l, const Box& box, bool descent);

  // ---- the executor contract (gmg/cycle.hpp) ----
  int k() const { return k_; }
  template <class Fn>
  void timed(int, Phase, Fn&& fn) {
    fn();
  }
  void exchange(int l, const FieldSet& fs);
  void apply(int l, Fld out, Fld in, const Box& box);
  void jacobi(int l, const Box& box, bool descent);
  void swap(int l) { rec_.swap(l, "x", "Ax"); }
  void gs_color(int l, int color, const Box& box);
  void residual(int l, const Box& box);
  void residual_restrict(int l);
  void restriction(int l, Fld fine);
  void init_zero_x(int l, const Box& stored);
  void interp_increment(int l);
  void interp_trilinear(int l);
  void cheby_p(int l, const Box& box, real_t beta);
  void axpy_p(int l, real_t alpha, const Box& box);
  void copy(int l, Fld dst, Fld src);
  real_t dot(int, Fld, Fld, int) { return 0; }
  void axpy_interior(int l, Fld y, real_t a, Fld x, int c);
  void xpay_interior(int l, Fld y, Fld x, real_t beta, int c);
  real_t residual_max_norm();
  real_t max_norm(int c);
  int next_group() { return rec_.next_reduction_group(); }
  /// Records one collective contribution. The recorded values keep
  /// every bottom-CG component live, so the representative iterations
  /// cover all of them.
  real_t allreduce_sum(real_t, const char* op, int l, int c, int group,
                       bool masked) {
    rec_.reduction(op, l, c, group, masked);
    return 1.0;
  }
  real_t allreduce_max(real_t local, const char* op, int l, int c, int group,
                       bool masked) {
    return allreduce_sum(local, op, l, c, group, masked);
  }
  /// Every bottom-CG iteration has the same launch/exchange/reduction
  /// structure, so two prove the loop body (the real count is
  /// data-dependent and bounded by the budget).
  int cg_iterations(int budget) const { return budget < 2 ? budget : 2; }

  /// Canonical schedule name of a cycle field ("x", "b", "Ax", "r",
  /// "p").
  static const char* name(Fld f);

 private:
  const MgLevel& lev(int l) const { return s_.level(l); }

  check::ScheduleRecorder& rec_;
  const GmgSolver& s_;
  int k_;
};

/// Record the planned schedule of a solve of width `k` from the
/// canonical post-set_rhs state: `cycles` V-cycles with the interleaved
/// convergence checks the solve loop issues — GmgSolver::solve at
/// k = 1, a BatchedSolver of that width otherwise, where component 0
/// retires after the first cycle.
check::Schedule record_solver_schedule(const GmgSolver& s, int cycles = 2,
                                       int k = 1);

/// Record the planned FMG schedule.
check::Schedule record_fmg_schedule(const GmgSolver& s);

/// Record and statically verify both schedules; throws gmg::Error with
/// the offending kernel pair on the first hazard. Called from the
/// GmgSolver constructor (and again after set_coefficient rebinds the
/// kernel plans) when check::verify_schedule_enabled().
void verify_solver_schedule(const GmgSolver& s);

}  // namespace gmg

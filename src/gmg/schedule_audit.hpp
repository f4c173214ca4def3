// Dry-run schedule recording for GmgSolver (DESIGN.md §18). The
// ScheduleWalker replicates the solver's cycle routines — the CA
// margin algebra, the aggregated-exchange decisions, the split-phase
// overlap branches, and the fused-plan capability checks — step for
// step against the live MgLevel/KernelPlan state, but instead of
// launching kernels it records check::ScheduleStep entries. The
// resulting Schedule is the complete planned launch/exchange sequence
// of a solve, proven hazard-free by check::ScheduleVerifier at setup
// time (the GmgSolver constructor runs verify_solver_schedule before
// returning).
//
// The walker is the one place outside solver.cpp that re-states the
// sweep schedules; tests/test_schedule.cpp pins the two together by
// asserting the verifier accepts exactly the configurations whose
// GMG_CHECK-instrumented runs execute clean.
#pragma once

#include <string>

#include "check/schedule.hpp"
#include "gmg/solver.hpp"

namespace gmg {

/// Mirrors one solve's schedule against `s` into a recorder. Keeps its
/// own per-level margin/b_ghosts_valid shadow state so several cycles
/// (or an embedding composite walk — amr/composite_audit.cpp) can be
/// appended with the state carried across.
class ScheduleWalker {
 public:
  ScheduleWalker(check::ScheduleRecorder& rec, const GmgSolver& s);

  /// Register every solver level's LevelInfo with the recorder.
  void add_levels();
  /// Record the canonical post-set_rhs state: fine margin at brick
  /// depth with stale b ghosts, coarse margins spent, x/p fully valid
  /// from init_zero.
  void set_canonical_initial();

  /// Re-establish the fine-level state a composite correction solve
  /// creates (copy_interior into b, init_zero of x) — records the
  /// init_zero/copy steps and resets the walker's fine margin.
  void reset_fine_for_correction(const std::string& rhs_field);

  /// Batch width K: bottom-CG collectives record every component
  /// (unconditional across the batch — retirement-exempt), while
  /// residual_norm's per-component norms follow the retirement-masked
  /// active list. Solo default: K = 1, active = {0}.
  void set_num_components(int k) { num_components_ = k; }
  /// Record Jacobi sweeps the way the batched twin (src/batch) issues
  /// them: applyOp into Ax, then the pointwise stage in place on x —
  /// instead of the solo one-pass sweep into the spare buffer.
  void mirror_in_place_jacobi() { in_place_jacobi_ = true; }
  /// The components residual_norm's retirement-masked reductions
  /// cover; the batched audit shrinks this after recording a retire.
  void set_active_components(std::vector<int> comps) {
    active_components_ = std::move(comps);
  }

  /// One convergence-check pass: exchange-if-needed, applyOp,
  /// residual(+max-norm), allreduce.
  void residual_norm();
  /// One V (or W) cycle from the finest level.
  void vcycle();
  /// The FMG F-cycle: RHS restriction chain, bottom solve, prolonged
  /// initial guesses with one cycle per level.
  void fmg();

  index_t margin(int l) const;

  /// Canonical field name used for solver level fields in recorded
  /// schedules ("x", "b", "Ax", "r", "p", "coef", "diag").
  static std::string field(const char* name) { return name; }

 private:
  struct LevState {
    index_t margin = 0;
    bool b_ghosts_valid = false;
  };

  const MgLevel& lev(int l) const { return s_.level(l); }
  int bottom() const { return s_.bottom_level(); }
  bool ca() const { return s_.options().communication_avoiding; }
  bool cheby() const { return s_.options().smoother == Smoother::kChebyshev; }
  bool varcoef(int l) const { return lev(l).varcoef; }

  std::vector<std::string> smooth_exchange_fields(int l);
  index_t exchange_depth(int l) const;
  void exchange_for_smooth(int l);
  void begin_exchange_for_smooth(int l);
  /// applyOp over `active`, split-phase when the solver would split:
  /// begin, partial pass over the remote-clipped safe box, finish,
  /// then the full-region step. `in`/`out` name the bound fields.
  void apply_op(int l, const Box& active, const char* in, const char* out,
                bool split);
  void record_apply(int l, const Box& active, const char* in, const char* out,
                    bool partial);
  void add_chunk_writes(check::ScheduleStep& step, int l, const Box& active);

  /// One solo Jacobi sweep (or one region of it) as the plan binding
  /// issues it: x read through the stencil, x' written into "Ax".
  void record_sweep(int l, const Box& region, bool residual,
                    bool restrict_to_coarse, bool partial);
  /// The batched twin's pointwise stage, in place on x.
  void record_in_place_smooth(int l, const Box& active, bool with_residual,
                              bool fuse_final);
  void smooth_level(int l, int iterations, bool with_residual,
                    bool restrict_to_coarse);
  void jacobi_sweeps(int l, int iterations, bool with_residual,
                     bool restrict_to_coarse);
  void chebyshev_sweeps(int l, int iterations);
  void gs_sweeps(int l, int iterations, bool with_residual,
                 bool restrict_to_coarse);
  void bottom_solve();
  void bottom_cg(int l);
  void cycle_at(int l);

  check::ScheduleRecorder& rec_;
  const GmgSolver& s_;
  std::vector<LevState> st_;
  int num_components_ = 1;
  std::vector<int> active_components_{0};
  bool in_place_jacobi_ = false;
};

/// Record the planned schedule of `cycles` V-cycles (with the
/// interleaved convergence checks solve() issues) from the canonical
/// post-set_rhs state.
check::Schedule record_solver_schedule(const GmgSolver& s, int cycles = 2);

/// Record the planned FMG schedule.
check::Schedule record_fmg_schedule(const GmgSolver& s);

/// Record and statically verify both schedules; throws gmg::Error with
/// the offending kernel pair on the first hazard. Called from the
/// GmgSolver constructor (and again after set_coefficient rebinds the
/// kernel plans) when check::verify_schedule_enabled().
void verify_solver_schedule(const GmgSolver& s);

}  // namespace gmg

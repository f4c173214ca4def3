#include "amr/composite_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/timer.hpp"
#include "gmg/cycle.hpp"
#include "gmg/operators.hpp"
#include "gmg/schedule_audit.hpp"
#include "trace/trace.hpp"

namespace gmg::amr {

namespace {

/// Which ghost round: the coarse engine's over the composite solution,
/// or the masked fine–fine patch round.
enum class Round { kCoarse, kPatch };

// The composite cycle's stage sequence, written once: CompositeSolver
// runs it through CompositeRun, record_composite_schedule through
// CompositeRecord (the embedded correction V-cycles go through the
// solver's own Cycle there, run or recorded).

/// Ghost protocol: coarse ghosts of xH first (the interface
/// prolongation taps reach one coarse ghost cell where a patch face
/// runs along a rank boundary), then the prolonged interface layer,
/// then the fine–fine round. The coarse residual is masked to the
/// uncovered bricks; refluxing replaces the coarse flux across the
/// interface by the averaged fine flux, and the patch residual is
/// injected into the covered bricks — rH then holds the composite
/// residual everywhere.
template <class X>
real_t composite_residual(X& x, bool part) {
  real_t res = 0;
  x.stage("amr.compositeResidual", [&] {
    x.exchange(Round::kCoarse);
    if (part) {
      x.prolong_ghosts(Fld::kX);
      x.exchange(Round::kPatch);
      x.patch_residual();
    }
    x.masked_residual();
    real_t local = 0;
    if (part) {
      x.reflux_and_inject();
      local = x.patch_norm();
    }
    local = std::max(local, x.coarse_norm());
    res = x.allreduce_max(local);
  });
  return res;
}

/// One composite cycle: the correction solve (from a zero guess, so the
/// fixed V-cycle count is a pure linear operation on rH), the
/// correction applied to the composite solution and, piecewise-constant
/// prolonged, to the patch (R∘P_pc = identity, so the covered coarse
/// cells stay consistent until the patch smooth refines them), the
/// patch smooth with Dirichlet closure — interface ghosts prolonged
/// from the corrected coarse solution and frozen for the sweep block,
/// on both ping-pong buffers; only fine–fine ghosts re-exchanged per
/// sweep — and the covered coarse solution slaved to the restricted
/// patch. Returns the new composite residual norm.
template <class X>
real_t composite_cycle(X& x, const AmrHierarchy& h) {
  const bool part = h.has_part();
  x.stage("amr.correctionSolve", [&] {
    x.reset_correction();
    for (int i = 0; i < h.options().correction_vcycles; ++i) x.vcycle();
  });
  x.correct_coarse();
  if (part) x.correct_patch();
  x.stage("amr.patchSmooth", [&] {
    x.exchange(Round::kCoarse);
    if (part) {
      x.prolong_ghosts(Fld::kX);
      x.prolong_ghosts(Fld::kAx);
    }
    for (int s = 0; s < h.options().patch_smooths; ++s) {
      x.exchange(Round::kPatch);
      if (part) x.patch_sweep();
    }
  });
  if (part) x.restrict_solution();
  return composite_residual(x, part);
}

/// The composite run executor: the hierarchy's composite, solver and
/// patch fields through the interface kernels and the patch's resolved
/// KernelPlan; the correction V-cycles through the solver's own (solo
/// run) cycle.
class CompositeRun {
 public:
  CompositeRun(AmrHierarchy& h, comm::Communicator& comm)
      : h_(h), comm_(comm), S_(h.solver()), L0_(S_.level(0)), P_(h.patch()) {}

  template <class Fn>
  void stage(const char* name, Fn&& fn) {
    trace::TraceSpan span(name);
    fn();
  }
  // Exchange primitive: the only direct exchange-engine calls of the
  // composite path.
  void exchange(Round round) {
    if (round == Round::kCoarse) {
      L0_.exchange->exchange(comm_, h_.xH());
    } else {
      h_.patch_exchange().exchange(comm_, P_.x);
    }
  }
  void prolong_ghosts(Fld f) {
    prolong_interface_ghosts(f == Fld::kX ? P_.x : P_.Ax, h_.xH(),
                             h_.geometry());
  }
  void patch_residual() {
    level_apply(P_, P_.Ax, P_.x, P_.interior());
    residual(P_.r, P_.b, P_.Ax, P_.interior());
  }
  void masked_residual() {
    apply_op(h_.AxH(), h_.xH(), L0_.alpha, L0_.beta, L0_.interior(),
             h_.uncovered());
    residual(h_.rH(), h_.bH(), h_.AxH(), L0_.interior(), h_.uncovered());
  }
  void reflux_and_inject() {
    reflux_residual(h_.rH(), h_.xH(), P_.x, h_.geometry(), L0_.beta);
    restrict_patch(h_.rH(), P_.r, h_.geometry());
  }
  real_t patch_norm() { return max_norm(P_.r); }
  real_t coarse_norm() { return max_norm(h_.rH()); }
  real_t allreduce_max(real_t local) { return comm_.allreduce_max(local); }
  void reset_correction() {
    copy_interior(L0_.b, h_.rH());
    init_zero(L0_.x);
    S_.fine_fields_written();
  }
  void vcycle() { S_.vcycle(comm_); }
  void correct_coarse() { axpy_interior(h_.xH(), real_t{1}, L0_.x); }
  void correct_patch() { amr::correct_patch(P_.x, L0_.x, h_.geometry()); }
  void patch_sweep() {
    level_jacobi(P_, P_.Ax, nullptr, nullptr, P_.x, P_.b, P_.interior());
    std::swap(P_.x, P_.Ax);
  }
  void restrict_solution() { restrict_patch(h_.xH(), P_.x, h_.geometry()); }

 private:
  AmrHierarchy& h_;
  comm::Communicator& comm_;
  GmgSolver& S_;
  MgLevel& L0_;
  MgLevel& P_;
};

/// The composite record executor: the same stages as ScheduleSteps —
/// the masked coarse kernels with their scheduled and covered brick-id
/// sets (so the verifier can prove a masked plan never sweeps a covered
/// brick), the interface kernels spanning the coarse level and the
/// patch (recorded as synthetic level solver().num_levels()), the
/// patch rounds, and the correction V-cycles through Cycle<Record>
/// with the solver levels' ghost state carried across stages.
class CompositeRecord {
 public:
  CompositeRecord(check::ScheduleRecorder& rec, const AmrHierarchy& h)
      : rec_(rec),
        h_(h),
        ex_(rec, h.solver()),
        st_(h.solver().num_levels(), 1),
        cycle_(h.solver(), ex_, st_),
        pl_(h.solver().num_levels()) {
    const MgLevel& L0 = h.solver().level(0);
    interior0_ = L0.interior();
    bx0_ = L0.shape.bx;
    // The patch part's coarse image, in this rank's local coarse
    // coordinates (patch face planes lie strictly inside ranks).
    part_coarse_ = shift(coarsen(h.geometry().part_fine, 2),
                         Vec3{0, 0, 0} - L0.rank_box.lo);
    if (h.has_part()) interior_p_ = h.patch().interior();

    ex_.add_levels();
    st_.after_set_rhs(bx0_);
    if (h.has_part()) {
      check::LevelInfo info;
      info.level = pl_;
      info.interior = interior_p_;
      info.ghost_depth = h.patch().shape.bx;
      rec_.add_level(info);
    }
    // Post-set_rhs composite state: xH/rH/AxH and the patch fields are
    // init_zero'd whole-array (ghost zeros valid to brick depth); the
    // two RHS fields are interior-written with stale ghosts.
    rec_.set_initial("xH", 0, bx0_);
    rec_.set_initial("rH", 0, bx0_);
    rec_.set_initial("AxH", 0, bx0_);
    rec_.set_initial("bH", 0, 0);
    if (h.has_part()) {
      const index_t pbx = h.patch().shape.bx;
      rec_.set_initial("x", pl_, pbx);
      rec_.set_initial("Ax", pl_, pbx);
      rec_.set_initial("r", pl_, pbx);
      rec_.set_initial("b", pl_, 0);
    }
  }

  template <class Fn>
  void stage(const char*, Fn&& fn) {
    fn();
  }
  void exchange(Round round) {
    if (round == Round::kCoarse)
      rec_.exchange(0, {"xH"}, bx0_);
    else
      rec_.exchange(pl_, {"x"}, 1);
  }
  void prolong_ghosts(Fld f) {
    rec_.launch(prolong_interface_ghosts_effects(), pl_, grow(interior_p_, 1),
                {{"patch_x", Record::name(f)}, {"xH", "xH", 0, part_coarse_}});
  }
  void patch_residual() {
    ex_.apply(h_.patch(), pl_, "Ax", "x", interior_p_);
    rec_.launch(residual_effects(), pl_, interior_p_,
                {{"r", "r"}, {"b", "b"}, {"Ax", "Ax"}});
  }
  void masked_residual() {
    mask_ids(rec_.launch(apply_op_effects(1), 0, interior0_,
                         {{"Ax", "AxH"}, {"x", "xH"}}));
    mask_ids(rec_.launch(residual_effects(), 0, interior0_,
                         {{"r", "rH"}, {"b", "bH"}, {"Ax", "AxH"}}));
  }
  void reflux_and_inject() {
    rec_.launch(reflux_residual_effects(), 0, interior0_,
                {{"rH", "rH"},
                 {"xH", "xH"},
                 {"patch_x", "x", pl_, interior_p_}});
    restrict_patch_step("rH", "r");
  }
  real_t patch_norm() {
    rec_.launch(max_norm_effects(), pl_, interior_p_, {{"a", "r"}});
    return 0;
  }
  real_t coarse_norm() {
    rec_.launch(max_norm_effects(), 0, interior0_, {{"a", "rH"}});
    return 0;
  }
  real_t allreduce_max(real_t local) {
    return ex_.allreduce_max(local, "allreduce.max_norm", 0, 0,
                             rec_.next_reduction_group(), false);
  }
  void reset_correction() {
    rec_.launch(copy_interior_effects(), 0, interior0_,
                {{"dst", "b"}, {"src", "rH"}});
    ex_.init_zero_x(0, cycle_.stored_cells(0));
    st_.fine_written();
  }
  void vcycle() { cycle_.vcycle(); }
  void correct_coarse() {
    rec_.launch(axpy_interior_effects(), 0, interior0_,
                {{"y", "xH"}, {"x", "x"}});
  }
  void correct_patch() {
    rec_.launch(correct_patch_effects(), pl_, interior_p_,
                {{"patch_x", "x"}, {"coarse", "x", 0, part_coarse_}});
  }
  void patch_sweep() {
    ex_.sweep(h_.patch(), pl_, interior_p_, /*descent=*/false);
    rec_.swap(pl_, "x", "Ax");
  }
  void restrict_solution() { restrict_patch_step("xH", "x"); }

 private:
  void mask_ids(check::ScheduleStep& step) {
    const BrickMask& cov = h_.covered();
    const BrickMask& unc = h_.uncovered();
    for (std::int32_t id = 0; id < unc.size(); ++id)
      if (unc.test(id)) step.scheduled_bricks.push_back(id);
    for (std::int32_t id = 0; id < cov.size(); ++id)
      if (cov.test(id)) step.covered_bricks.push_back(id);
  }
  void restrict_patch_step(const char* coarse, const char* fine) {
    rec_.launch(restrict_patch_effects(), 0, part_coarse_,
                {{"coarse", coarse}, {"fine", fine, pl_, interior_p_}});
  }

  check::ScheduleRecorder& rec_;
  const AmrHierarchy& h_;
  Record ex_;
  CycleState st_;
  Cycle<Record> cycle_;
  int pl_;  // the patch's synthetic level index
  Box interior0_, interior_p_, part_coarse_;
  index_t bx0_ = 0;
};

}  // namespace

real_t CompositeSolver::composite_residual(comm::Communicator& comm) {
  CompositeRun x(h_, comm);
  return amr::composite_residual(x, h_.has_part());
}

CompositeResult CompositeSolver::solve(comm::Communicator& comm) {
  trace::TraceSpan span("amr.solve");
  Timer timer;
  CompositeResult result;
  CompositeRun x(h_, comm);

  real_t res = amr::composite_residual(x, h_.has_part());
  result.initial_residual = res;
  result.history.push_back(res);
  const real_t target = h_.options().tolerance * res;

  // A non-finite norm (a NaN or Inf in the data; the norm kernels count
  // a NaN as +inf) never converges, and then target is inf too.
  while (std::isfinite(res) && res > target &&
         result.cycles < h_.options().max_cycles) {
    res = composite_cycle(x, h_);
    ++result.cycles;
    result.history.push_back(res);
  }
  result.final_residual = res;
  result.converged = std::isfinite(res) && res <= target;
  result.seconds = timer.elapsed();
  return result;
}

check::Schedule record_composite_schedule(const AmrHierarchy& h) {
  check::ScheduleRecorder rec("amr.composite");
  CompositeRecord x(rec, h);
  amr::composite_residual(x, h.has_part());
  composite_cycle(x, h);
  return rec.take();
}

void verify_composite_schedule(const AmrHierarchy& h) {
  check::ScheduleVerifier().verify(record_composite_schedule(h));
}

}  // namespace gmg::amr

#include "amr/composite_audit.hpp"

#include <string>
#include <vector>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "amr/interface_kernels.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/schedule_audit.hpp"

namespace gmg::amr {

namespace {

using check::read_access;
using check::write_access;

/// Records the composite cycle against a hierarchy, with the embedded
/// correction V-cycles walked by the solver's own ScheduleWalker so
/// the coarse margins carry across composite stages.
class CompositeRecorder {
 public:
  CompositeRecorder(check::ScheduleRecorder& rec, const AmrHierarchy& h)
      : rec_(rec), h_(h), w_(rec, h.solver()),
        patch_level_(h.solver().num_levels()) {
    const MgLevel& L0 = h_.solver().level(0);
    interior0_ = L0.interior();
    bx0_ = L0.shape.bx;
    // The patch part's coarse image, in this rank's local coarse
    // coordinates (patch face planes lie strictly inside ranks).
    part_coarse_ = shift(coarsen(h_.geometry().part_fine, 2),
                         Vec3{0, 0, 0} - L0.rank_box.lo);
    if (h_.has_part()) interior_p_ = h_.patch().interior();
  }

  void record() {
    w_.add_levels();
    w_.set_canonical_initial();
    if (h_.has_part()) {
      check::LevelInfo info;
      info.level = patch_level_;
      info.interior = interior_p_;
      info.ghost_depth = h_.patch().shape.bx;
      rec_.add_level(info);
    }
    // Post-set_rhs composite state: xH/rH/AxH and the patch fields
    // are init_zero'd whole-array (ghost zeros valid to brick depth);
    // the two RHS fields are interior-written with stale ghosts.
    rec_.set_initial("xH", 0, bx0_);
    rec_.set_initial("rH", 0, bx0_);
    rec_.set_initial("AxH", 0, bx0_);
    rec_.set_initial("bH", 0, 0);
    if (h_.has_part()) {
      const index_t pbx = h_.patch().shape.bx;
      rec_.set_initial("x", patch_level_, pbx);
      rec_.set_initial("Ax", patch_level_, pbx);
      rec_.set_initial("r", patch_level_, pbx);
      rec_.set_initial("b", patch_level_, 0);
    }

    composite_residual();
    // One composite cycle.
    w_.reset_fine_for_correction("rH");
    for (int i = 0; i < h_.options().correction_vcycles; ++i) w_.vcycle();

    check::ScheduleStep& ax =
        rec_.kernel("kernel.axpy", 0, axpy_interior_effects());
    ax.accesses.push_back(write_access("xH", 0, interior0_, "y"));
    ax.accesses.push_back(read_access("xH", 0, interior0_, 0, "y"));
    ax.accesses.push_back(read_access("x", 0, interior0_, 0, "x"));
    if (h_.has_part()) {
      check::ScheduleStep& cp = rec_.kernel("amr.correctPatch", patch_level_,
                                            correct_patch_effects());
      cp.accesses.push_back(
          write_access("x", patch_level_, interior_p_, "patch_x"));
      cp.accesses.push_back(
          read_access("x", patch_level_, interior_p_, 0, "patch_x"));
      cp.accesses.push_back(read_access("x", 0, part_coarse_, 0, "coarse"));
    }
    patch_smooth();
    if (h_.has_part()) restrict_patch_step("xH");
    composite_residual();
  }

 private:
  void mask_ids(check::ScheduleStep& step) {
    const BrickMask& cov = h_.covered();
    const BrickMask& unc = h_.uncovered();
    for (std::int32_t id = 0; id < unc.size(); ++id)
      if (unc.test(id)) step.scheduled_bricks.push_back(id);
    for (std::int32_t id = 0; id < cov.size(); ++id)
      if (cov.test(id)) step.covered_bricks.push_back(id);
  }

  void exchange_coarse_xh() { rec_.exchange(0, {"xH"}, bx0_); }
  void exchange_patch_x() { rec_.exchange(patch_level_, {"x"}, 1); }

  void prolong_ghosts(const char* field = "x") {
    check::ScheduleStep& step = rec_.kernel("amr.prolongGhosts", patch_level_,
                                            prolong_interface_ghosts_effects());
    step.accesses.push_back(
        write_access(field, patch_level_, grow(interior_p_, 1), "patch_x"));
    step.accesses.push_back(read_access("xH", 0, part_coarse_, 1, "xH"));
  }

  void patch_apply_residual() {
    check::ScheduleStep& ap =
        rec_.kernel("kernel.applyOp", patch_level_, apply_op_effects(1));
    ap.accesses.push_back(write_access("Ax", patch_level_, interior_p_, "Ax"));
    ap.accesses.push_back(read_access("x", patch_level_, interior_p_, 1, "x"));
    check::ScheduleStep& res =
        rec_.kernel("kernel.residual", patch_level_, residual_effects());
    res.accesses.push_back(write_access("r", patch_level_, interior_p_, "r"));
    res.accesses.push_back(read_access("b", patch_level_, interior_p_, 0, "b"));
    res.accesses.push_back(
        read_access("Ax", patch_level_, interior_p_, 0, "Ax"));
  }

  void restrict_patch_step(const char* coarse_field) {
    check::ScheduleStep& step =
        rec_.kernel("amr.restrictPatch", 0, restrict_patch_effects());
    step.accesses.push_back(write_access(coarse_field, 0, part_coarse_,
                                         "coarse"));
    const char* fine = coarse_field == std::string("xH") ? "x" : "r";
    step.accesses.push_back(
        read_access(fine, patch_level_, interior_p_, 0, "fine"));
  }

  void composite_residual() {
    exchange_coarse_xh();
    if (h_.has_part()) {
      prolong_ghosts();
      exchange_patch_x();
      patch_apply_residual();
    }

    // Masked coarse pass: the uncovered bricks only. The verifier
    // proves the scheduled set never intersects the covered set.
    check::ScheduleStep& ap = rec_.kernel(
        "kernel.applyOp", 0,
        apply_op_effects(static_cast<int>(h_.solver().level(0).radius)));
    ap.accesses.push_back(write_access("AxH", 0, interior0_, "Ax"));
    ap.accesses.push_back(read_access(
        "xH", 0, interior0_, static_cast<int>(h_.solver().level(0).radius),
        "x"));
    mask_ids(ap);
    check::ScheduleStep& res =
        rec_.kernel("kernel.residual", 0, residual_effects());
    res.accesses.push_back(write_access("rH", 0, interior0_, "r"));
    res.accesses.push_back(read_access("bH", 0, interior0_, 0, "b"));
    res.accesses.push_back(read_access("AxH", 0, interior0_, 0, "Ax"));
    mask_ids(res);

    if (h_.has_part()) {
      check::ScheduleStep& rf =
          rec_.kernel("amr.reflux", 0, reflux_residual_effects());
      rf.accesses.push_back(write_access("rH", 0, interior0_, "rH"));
      rf.accesses.push_back(read_access("rH", 0, interior0_, 0, "rH"));
      rf.accesses.push_back(read_access("xH", 0, interior0_, 1, "xH"));
      rf.accesses.push_back(
          read_access("x", patch_level_, interior_p_, 1, "patch_x"));
      restrict_patch_step("rH");
      check::ScheduleStep& pm =
          rec_.kernel("kernel.maxNorm", patch_level_, max_norm_effects());
      pm.accesses.push_back(
          read_access("r", patch_level_, interior_p_, 0, "a"));
    }
    check::ScheduleStep& mn =
        rec_.kernel("kernel.maxNorm", 0, max_norm_effects());
    mn.accesses.push_back(read_access("rH", 0, interior0_, 0, "a"));
    rec_.reduction("allreduce.max_norm", 0, 0, rec_.next_reduction_group());
  }

  void patch_smooth() {
    exchange_coarse_xh();
    if (h_.has_part()) {
      // Both ping-pong buffers carry the frozen interface ghosts.
      prolong_ghosts("x");
      prolong_ghosts("Ax");
    }
    const bool one_pass =
        h_.has_part() && jacobi_is_one_pass(h_.options().gmg, h_.patch());
    for (int s = 0; s < h_.options().patch_smooths; ++s) {
      exchange_patch_x();
      if (!h_.has_part()) continue;
      if (!one_pass) {
        check::ScheduleStep& ap =
            rec_.kernel("kernel.applyOp", patch_level_, apply_op_effects(1));
        ap.accesses.push_back(
            write_access("Ax", patch_level_, interior_p_, "Ax"));
        ap.accesses.push_back(
            read_access("x", patch_level_, interior_p_, 1, "x"));
      }
      check::ScheduleStep& sw =
          one_pass ? rec_.kernel("kernel.jacobiSweep", patch_level_,
                                 fused::jacobi_sweep_effects())
                   : rec_.kernel("kernel.jacobiUpdate", patch_level_,
                                 fused::jacobi_update_effects());
      sw.accesses.push_back(
          write_access("Ax", patch_level_, interior_p_, "out"));
      if (one_pass) {
        sw.accesses.push_back(
            read_access("x", patch_level_, interior_p_, 1, "x"));
      } else {
        sw.accesses.push_back(
            read_access("Ax", patch_level_, interior_p_, 0, "out"));
        sw.accesses.push_back(
            read_access("x", patch_level_, interior_p_, 0, "x"));
      }
      sw.accesses.push_back(
          read_access("b", patch_level_, interior_p_, 0, "b"));
      rec_.swap(patch_level_, "x", "Ax");
    }
  }

  check::ScheduleRecorder& rec_;
  const AmrHierarchy& h_;
  ScheduleWalker w_;
  int patch_level_;
  Box interior0_, interior_p_, part_coarse_;
  index_t bx0_ = 0;
};

}  // namespace

check::Schedule record_composite_schedule(const AmrHierarchy& h) {
  check::ScheduleRecorder rec("amr.composite");
  CompositeRecorder(rec, h).record();
  return rec.take();
}

void verify_composite_schedule(const AmrHierarchy& h) {
  check::ScheduleVerifier().verify(record_composite_schedule(h));
}

}  // namespace gmg::amr

#include "gmg/schedule_audit.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"

namespace gmg {

namespace {

using check::read_access;
using check::write_access;

// Representative planned bottom-CG iterations: each iteration has the
// identical launch/exchange/reduction structure, so two suffice to
// prove the loop body (the real count is data-dependent and bounded by
// bottom_smooths).
constexpr int kRecordedCgIterations = 2;

}  // namespace

ScheduleWalker::ScheduleWalker(check::ScheduleRecorder& rec,
                               const GmgSolver& s)
    : rec_(rec), s_(s) {
  st_.resize(static_cast<std::size_t>(s.num_levels()));
}

index_t ScheduleWalker::margin(int l) const {
  return st_[static_cast<std::size_t>(l)].margin;
}

void ScheduleWalker::add_levels() {
  for (int l = 0; l < s_.num_levels(); ++l) {
    const MgLevel& L = lev(l);
    check::LevelInfo info;
    info.level = l;
    info.interior = L.interior();
    info.ghost_depth = L.shape.bx;
    for (int d = 0; d < 3; ++d) {
      info.wrapped[d] = L.grid->wraps(d);
      int off[3] = {0, 0, 0};
      off[d] = -1;
      info.remote_lo[d] = L.remote[static_cast<std::size_t>(
          direction_index(off[0], off[1], off[2]))];
      off[d] = 1;
      info.remote_hi[d] = L.remote[static_cast<std::size_t>(
          direction_index(off[0], off[1], off[2]))];
    }
    rec_.add_level(info);
  }
}

void ScheduleWalker::set_canonical_initial() {
  // Mirrors GmgSolver::set_rhs: fine x freshly init_zero'd (ghost
  // zeros are valid), fine b interior-written with stale ghosts,
  // coarse x/b init_zero'd but their margins spent, p init_zero'd
  // everywhere. The variable-coefficient fields were exchanged /
  // ghost-computed at set_coefficient time.
  for (int l = 0; l < s_.num_levels(); ++l) {
    const index_t bx = lev(l).shape.bx;
    rec_.set_initial("x", l, bx);
    if (l > 0) rec_.set_initial("b", l, bx);
    rec_.set_initial("p", l, bx);
    rec_.set_initial("coef", l, bx);
    rec_.set_initial("diag", l, bx - 1);
    st_[static_cast<std::size_t>(l)].margin = l == 0 ? bx : 0;
    st_[static_cast<std::size_t>(l)].b_ghosts_valid = false;
  }
}

void ScheduleWalker::reset_fine_for_correction(const std::string& rhs_field) {
  const Box interior = lev(0).interior();
  check::ScheduleStep& cp =
      rec_.kernel("kernel.copy", 0, copy_interior_effects());
  cp.accesses.push_back(write_access("b", 0, interior, "dst"));
  cp.accesses.push_back(read_access(rhs_field, 0, interior, 0, "src"));
  check::ScheduleStep& iz =
      rec_.kernel("kernel.initZero", 0, init_zero_effects());
  iz.accesses.push_back(write_access(
      "x", 0, lev(0).grid->grow_unwrapped(interior, lev(0).shape.bx), "a"));
  st_[0].margin = lev(0).shape.bx;
  st_[0].b_ghosts_valid = false;
}

std::vector<std::string> ScheduleWalker::smooth_exchange_fields(int l) {
  // Mirrors exchange_for_smooth's aggregation: x always; b when its
  // ghosts are stale under CA; p for the CA Chebyshev recurrence.
  LevState& ls = st_[static_cast<std::size_t>(l)];
  std::vector<std::string> fields{"x"};
  if (ca() && !ls.b_ghosts_valid) {
    fields.push_back("b");
    ls.b_ghosts_valid = true;
  }
  const bool with_p = cheby() && lev(l).p.size() != 0;
  if (with_p && ca()) fields.push_back("p");
  return fields;
}

index_t ScheduleWalker::exchange_depth(int l) const {
  const MgLevel& L = lev(l);
  return L.exchange ? L.exchange->ghost_layers() : L.shape.bx;
}

void ScheduleWalker::exchange_for_smooth(int l) {
  const index_t depth = exchange_depth(l);
  rec_.exchange(l, smooth_exchange_fields(l), depth);
  st_[static_cast<std::size_t>(l)].margin = depth;
}

void ScheduleWalker::begin_exchange_for_smooth(int l) {
  const index_t depth = exchange_depth(l);
  rec_.exchange_begin(l, smooth_exchange_fields(l), depth);
  st_[static_cast<std::size_t>(l)].margin = depth;
}

void ScheduleWalker::record_apply(int l, const Box& active, const char* in,
                                  const char* out, bool partial) {
  const MgLevel& L = lev(l);
  check::ScheduleStep& step = rec_.kernel(
      L.varcoef ? "kernel.applyOpVarCoef" : "kernel.applyOp", l,
      L.varcoef ? apply_op_varcoef_effects()
                : apply_op_effects(static_cast<int>(L.radius)));
  step.partial = partial;
  step.accesses.push_back(write_access(out, l, active, "Ax"));
  step.accesses.push_back(
      read_access(in, l, active, static_cast<int>(L.radius), "x"));
  if (L.varcoef)
    step.accesses.push_back(read_access("coef", l, active, 1, "coef"));
}

void ScheduleWalker::apply_op(int l, const Box& active, const char* in,
                              const char* out, bool split) {
  if (split) {
    const Box safe = s_.overlap_safe_box(lev(l), active);
    if (!safe.empty()) record_apply(l, safe, in, out, /*partial=*/true);
    rec_.exchange_finish(l);
    record_apply(l, active, in, out, /*partial=*/false);
  } else {
    record_apply(l, active, in, out, /*partial=*/false);
  }
}

void ScheduleWalker::add_chunk_writes(check::ScheduleStep& step, int l,
                                      const Box& active) {
  // Replicate the cached iteration plan's chunking: one chunk per
  // brick intersecting `active`, clipped to it — the per-brick write
  // region of a fused launch (interior bricks plus the CA redundant
  // ghost-brick slabs).
  const BrickShape& sh = lev(l).shape;
  const Vec3 pitch{sh.bx, sh.by, sh.bz};
  auto floor_div = [](index_t a, index_t p) {
    return a >= 0 ? a / p : -((-a + p - 1) / p);
  };
  Box bricks;
  for (int d = 0; d < 3; ++d) {
    bricks.lo[d] = floor_div(active.lo[d], pitch[d]);
    bricks.hi[d] = floor_div(active.hi[d] - 1, pitch[d]) + 1;
  }
  step.chunk_pitch = pitch;
  step.chunk_writes.reserve(static_cast<std::size_t>(bricks.volume()));
  for_each(bricks, [&](index_t bi, index_t bj, index_t bk) {
    const Box brick{{bi * pitch.x, bj * pitch.y, bk * pitch.z},
                    {(bi + 1) * pitch.x, (bj + 1) * pitch.y,
                     (bk + 1) * pitch.z}};
    const Box clip = intersect(brick, active);
    if (!clip.empty()) step.chunk_writes.push_back(clip);
  });
}

void ScheduleWalker::smooth_level(int l, int iterations, bool with_residual,
                                  bool restrict_to_coarse) {
  switch (s_.options().smoother) {
    case Smoother::kPointJacobi:
    case Smoother::kWeightedJacobi:
      jacobi_sweeps(l, iterations, with_residual, restrict_to_coarse);
      break;
    case Smoother::kChebyshev:
      chebyshev_sweeps(l, iterations);
      break;
    case Smoother::kRedBlackGS:
      gs_sweeps(l, iterations, with_residual, restrict_to_coarse);
      break;
  }
}

void ScheduleWalker::record_sweep(int l, const Box& region, bool residual,
                                  bool restrict_to_coarse, bool partial) {
  const MgLevel& L = lev(l);
  // The two-stage body (13-point / stencilgen operators) issues its
  // applyOp into the spare buffer first, then the pointwise update.
  const bool one_pass = jacobi_is_one_pass(s_.options(), L);
  if (!one_pass) record_apply(l, region, "x", "Ax", partial);
  check::ScheduleStep& step =
      !one_pass ? rec_.kernel("kernel.jacobiUpdate", l,
                              fused::jacobi_update_effects())
      : L.varcoef
          ? rec_.kernel("kernel.jacobiSweepVarCoef", l,
                        fused::jacobi_sweep_varcoef_effects())
          : rec_.kernel("kernel.jacobiSweep", l, fused::jacobi_sweep_effects());
  step.partial = partial;
  step.accesses.push_back(write_access("Ax", l, region, "out"));
  if (residual) step.accesses.push_back(write_access("r", l, region, "r"));
  const Box fine = intersect(region, L.interior());
  if (restrict_to_coarse && !fine.empty()) {
    step.accesses.push_back(
        write_access("b", l + 1, coarsen(fine, 2), "coarse"));
    if (!partial) add_chunk_writes(step, l, region);
  }
  if (one_pass) {
    step.accesses.push_back(read_access("x", l, region, 1, "x"));
  } else {
    step.accesses.push_back(read_access("Ax", l, region, 0, "out"));
    step.accesses.push_back(read_access("x", l, region, 0, "x"));
  }
  step.accesses.push_back(read_access("b", l, region, 0, "b"));
  if (L.varcoef) {
    step.accesses.push_back(read_access("coef", l, region, 1, "coef"));
    step.accesses.push_back(read_access("diag", l, region, 0, "diag"));
  }
}

void ScheduleWalker::record_in_place_smooth(int l, const Box& active,
                                            bool with_residual,
                                            bool fuse_final) {
  const MgLevel& L = lev(l);
  check::ScheduleStep* step = nullptr;
  if (fuse_final) {
    step = &rec_.kernel(
        L.varcoef ? "kernel.fusedDescentVarCoef" : "kernel.fusedDescent", l,
        L.varcoef ? fused::smooth_residual_restrict_varcoef_effects()
                  : fused::smooth_residual_restrict_effects());
    step->accesses.push_back(
        write_access("b", l + 1, lev(l + 1).interior(), "coarse"));
    add_chunk_writes(*step, l, active);
  } else if (with_residual) {
    step = &rec_.kernel(
        L.varcoef ? "kernel.smoothResidualVarCoef" : "kernel.smoothResidual",
        l,
        L.varcoef ? smooth_residual_varcoef_effects()
                  : smooth_residual_effects());
  } else {
    step = &rec_.kernel(L.varcoef ? "kernel.smoothVarCoef" : "kernel.smooth",
                        l, L.varcoef ? smooth_varcoef_effects()
                                     : smooth_effects());
  }
  step->accesses.push_back(write_access("x", l, active, "x"));
  if (fuse_final || with_residual)
    step->accesses.push_back(write_access("r", l, active, "r"));
  step->accesses.push_back(read_access("x", l, active, 0, "x"));
  step->accesses.push_back(read_access("Ax", l, active, 0, "Ax"));
  step->accesses.push_back(read_access("b", l, active, 0, "b"));
  if (L.varcoef)
    step->accesses.push_back(read_access("diag", l, active, 0, "diag"));
}

void ScheduleWalker::jacobi_sweeps(int l, int iterations, bool with_residual,
                                   bool restrict_to_coarse) {
  const MgLevel& L = lev(l);
  LevState& ls = st_[static_cast<std::size_t>(l)];
  const Box interior = L.interior();
  const index_t radius = L.radius;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    bool split = false;
    if (ca()) {
      if (ls.margin < radius || !ls.b_ghosts_valid) {
        split = s_.use_overlap(L);
        if (split)
          begin_exchange_for_smooth(l);
        else
          exchange_for_smooth(l);
      }
      active = L.grid->grow_unwrapped(interior, ls.margin - radius);
    } else {
      split = s_.use_overlap(L);
      if (split)
        begin_exchange_for_smooth(l);
      else
        exchange_for_smooth(l);
      ls.margin = 0;
    }
    const bool last = it == iterations - 1;
    if (in_place_jacobi_) {
      // The batched twin: applyOp split by region, then the pointwise
      // stage in place on x over the whole region.
      apply_op(l, active, "x", "Ax", split);
      record_in_place_smooth(
          l, active, with_residual,
          with_residual && restrict_to_coarse && L.plan.fuse_descent && last);
    } else {
      // The solo one-pass sweep splits by region as a whole, then x and
      // its spare buffer trade storage.
      const bool residual = with_residual && last;
      const bool restrict_here = residual && restrict_to_coarse;
      if (split) {
        const Box safe = s_.overlap_safe_box(L, active);
        if (!safe.empty())
          record_sweep(l, safe, residual, restrict_here, /*partial=*/true);
        rec_.exchange_finish(l);
      }
      record_sweep(l, active, residual, restrict_here, /*partial=*/false);
      rec_.swap(l, "x", "Ax");
    }
    if (ca()) ls.margin -= radius;
  }
}

void ScheduleWalker::chebyshev_sweeps(int l, int iterations) {
  const MgLevel& L = lev(l);
  LevState& ls = st_[static_cast<std::size_t>(l)];
  const Box interior = L.interior();
  const index_t radius = L.radius;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    bool split = false;
    if (ca()) {
      if (ls.margin < radius || !ls.b_ghosts_valid) {
        split = s_.use_overlap(L);
        if (split)
          begin_exchange_for_smooth(l);
        else
          exchange_for_smooth(l);
      }
      active = L.grid->grow_unwrapped(interior, ls.margin - radius);
    } else {
      split = s_.use_overlap(L);
      if (split)
        begin_exchange_for_smooth(l);
      else
        exchange_for_smooth(l);
      ls.margin = 0;
    }
    apply_op(l, active, "x", "Ax", split);

    check::ScheduleStep& res =
        rec_.kernel("kernel.residual", l, residual_effects());
    res.accesses.push_back(write_access("r", l, active, "r"));
    res.accesses.push_back(read_access("b", l, active, 0, "b"));
    res.accesses.push_back(read_access("Ax", l, active, 0, "Ax"));

    check::ScheduleStep& pup = rec_.kernel(
        L.varcoef ? "kernel.chebyPVarCoef" : "kernel.chebyP", l,
        L.varcoef ? cheby_p_update_varcoef_effects() : cheby_p_update_effects());
    pup.accesses.push_back(write_access("p", l, active, "p"));
    pup.accesses.push_back(read_access("p", l, active, 0, "p"));
    pup.accesses.push_back(read_access("r", l, active, 0, "r"));
    if (L.varcoef)
      pup.accesses.push_back(read_access("diag", l, active, 0, "diag"));

    check::ScheduleStep& ax =
        rec_.kernel("kernel.axpyActive", l, axpy_effects());
    ax.accesses.push_back(write_access("x", l, active, "y"));
    ax.accesses.push_back(read_access("x", l, active, 0, "y"));
    ax.accesses.push_back(read_access("p", l, active, 0, "x"));

    if (ca()) ls.margin -= radius;
  }
}

void ScheduleWalker::gs_sweeps(int l, int iterations, bool with_residual,
                               bool restrict_to_coarse) {
  const MgLevel& L = lev(l);
  LevState& ls = st_[static_cast<std::size_t>(l)];
  const Box interior = L.interior();
  auto color_sweep = [&](const Box& region, bool partial) {
    check::ScheduleStep& step =
        rec_.kernel("kernel.gsColorSweep", l, gs_color_sweep_effects());
    step.partial = partial;
    step.accesses.push_back(write_access("x", l, region, "x"));
    step.accesses.push_back(read_access("x", l, region, 1, "x"));
    step.accesses.push_back(read_access("b", l, region, 0, "b"));
  };
  for (int it = 0; it < iterations; ++it) {
    if (ca()) {
      bool split = false;
      if (ls.margin < 2 || !ls.b_ghosts_valid) {
        split = s_.use_overlap(L);
        if (split)
          begin_exchange_for_smooth(l);
        else
          exchange_for_smooth(l);
      }
      const Box red_box = L.grid->grow_unwrapped(interior, ls.margin - 1);
      const Box black_box = L.grid->grow_unwrapped(interior, ls.margin - 2);
      if (split) {
        const Box safe = s_.overlap_safe_box(L, red_box);
        if (!safe.empty()) color_sweep(safe, /*partial=*/true);
        rec_.exchange_finish(l);
        color_sweep(red_box, /*partial=*/false);
        color_sweep(black_box, /*partial=*/false);
      } else {
        color_sweep(red_box, /*partial=*/false);
        color_sweep(black_box, /*partial=*/false);
      }
      ls.margin -= 2;
    } else {
      for (int color = 0; color < 2; ++color) {
        if (s_.use_overlap(L)) {
          begin_exchange_for_smooth(l);
          const Box safe = s_.overlap_safe_box(L, interior);
          if (!safe.empty()) color_sweep(safe, /*partial=*/true);
          rec_.exchange_finish(l);
          color_sweep(interior, /*partial=*/false);
        } else {
          exchange_for_smooth(l);
          color_sweep(interior, /*partial=*/false);
        }
      }
      ls.margin = 0;
    }
  }
  if (with_residual) {
    if (ls.margin < 1) {
      if (s_.use_overlap(L)) {
        begin_exchange_for_smooth(l);
        apply_op(l, interior, "x", "Ax", /*split=*/true);
      } else {
        exchange_for_smooth(l);
        apply_op(l, interior, "x", "Ax", /*split=*/false);
      }
    } else {
      apply_op(l, interior, "x", "Ax", /*split=*/false);
    }
    if (restrict_to_coarse && L.plan.fuse_gs_tail) {
      check::ScheduleStep& step =
          rec_.kernel("kernel.fusedGsTail", l, fused::residual_restrict_effects());
      step.accesses.push_back(write_access("r", l, interior, "r"));
      step.accesses.push_back(
          write_access("b", l + 1, lev(l + 1).interior(), "coarse"));
      step.accesses.push_back(read_access("b", l, interior, 0, "b"));
      step.accesses.push_back(read_access("Ax", l, interior, 0, "Ax"));
      add_chunk_writes(step, l, interior);
    } else {
      check::ScheduleStep& res =
          rec_.kernel("kernel.residual", l, residual_effects());
      res.accesses.push_back(write_access("r", l, interior, "r"));
      res.accesses.push_back(read_access("b", l, interior, 0, "b"));
      res.accesses.push_back(read_access("Ax", l, interior, 0, "Ax"));
    }
  }
}

void ScheduleWalker::bottom_solve() {
  const int l = bottom();
  if (s_.options().bottom == BottomSolverType::kSmooth) {
    smooth_level(l, s_.options().bottom_smooths, /*with_residual=*/false,
                 /*restrict_to_coarse=*/false);
  } else {
    bottom_cg(l);
  }
}

void ScheduleWalker::bottom_cg(int l) {
  const MgLevel& L = lev(l);
  LevState& ls = st_[static_cast<std::size_t>(l)];
  const Box interior = L.interior();
  if (ls.margin < L.radius) {
    const index_t depth = exchange_depth(l);
    rec_.exchange(l, {"x"}, depth);
    ls.margin = depth;
  }
  apply_op(l, interior, "x", "Ax", /*split=*/false);
  check::ScheduleStep& res =
      rec_.kernel("kernel.residual", l, residual_effects());
  res.accesses.push_back(write_access("r", l, interior, "r"));
  res.accesses.push_back(read_access("b", l, interior, 0, "b"));
  res.accesses.push_back(read_access("Ax", l, interior, 0, "Ax"));
  check::ScheduleStep& cp =
      rec_.kernel("kernel.copy", l, copy_interior_effects());
  cp.accesses.push_back(write_access("p", l, interior, "dst"));
  cp.accesses.push_back(read_access("r", l, interior, 0, "src"));
  // The entry rr pass is unconditional over the whole batch (retired
  // components keep riding so the collective count stays uniform).
  const int rr_group = rec_.next_reduction_group();
  for (int c = 0; c < num_components_; ++c)
    rec_.reduction("allreduce.dot_rr", l, c, rr_group);

  for (int it = 0; it < kRecordedCgIterations; ++it) {
    rec_.exchange(l, {"p"}, exchange_depth(l));
    // Ax := A p — the plan's applyOp bound to the direction field.
    check::ScheduleStep& ap = rec_.kernel(
        L.varcoef ? "kernel.applyOpVarCoef" : "kernel.applyOp", l,
        L.varcoef ? apply_op_varcoef_effects()
                  : apply_op_effects(static_cast<int>(L.radius)));
    ap.accesses.push_back(write_access("Ax", l, interior, "Ax"));
    ap.accesses.push_back(
        read_access("p", l, interior, static_cast<int>(L.radius), "x"));
    if (L.varcoef)
      ap.accesses.push_back(read_access("coef", l, interior, 1, "coef"));
    // One iteration's collective sequence: per component (ascending),
    // pAp then the refreshed rr — components 0,0,1,1,... within the
    // group, non-decreasing, exactly the batched loop's order.
    const int it_group = rec_.next_reduction_group();
    for (int c = 0; c < num_components_; ++c) {
      rec_.reduction("allreduce.dot_pAp", l, c, it_group);
      if (c == 0) {
        check::ScheduleStep& ax =
            rec_.kernel("kernel.axpy", l, axpy_interior_effects());
        ax.accesses.push_back(write_access("x", l, interior, "y"));
        ax.accesses.push_back(read_access("x", l, interior, 0, "y"));
        ax.accesses.push_back(read_access("p", l, interior, 0, "x"));
        check::ScheduleStep& ar =
            rec_.kernel("kernel.axpy", l, axpy_interior_effects());
        ar.accesses.push_back(write_access("r", l, interior, "y"));
        ar.accesses.push_back(read_access("r", l, interior, 0, "y"));
        ar.accesses.push_back(read_access("Ax", l, interior, 0, "x"));
      }
      rec_.reduction("allreduce.dot_rr", l, c, it_group);
      if (c == 0) {
        check::ScheduleStep& xp =
            rec_.kernel("kernel.xpay", l, xpay_interior_effects());
        xp.accesses.push_back(write_access("p", l, interior, "y"));
        xp.accesses.push_back(read_access("p", l, interior, 0, "y"));
        xp.accesses.push_back(read_access("r", l, interior, 0, "x"));
      }
    }
  }
  ls.margin = 0;
}

void ScheduleWalker::cycle_at(int l) {
  if (l == bottom()) {
    bottom_solve();
    return;
  }
  const MgLevel& L = lev(l);
  const bool fuses = L.plan.fuses_restriction();
  smooth_level(l, s_.options().smooths, /*with_residual=*/true,
               /*restrict_to_coarse=*/fuses);
  if (!fuses) {
    check::ScheduleStep& step =
        rec_.kernel("kernel.restriction", l, restriction_effects());
    step.accesses.push_back(
        write_access("b", l + 1, lev(l + 1).interior(), "coarse"));
    step.accesses.push_back(read_access("r", l, L.interior(), 0, "fine"));
  }
  LevState& cs = st_[static_cast<std::size_t>(l + 1)];
  cs.b_ghosts_valid = false;
  check::ScheduleStep& iz =
      rec_.kernel("kernel.initZero", l + 1, init_zero_effects());
  iz.accesses.push_back(write_access(
      "x", l + 1,
      lev(l + 1).grid->grow_unwrapped(lev(l + 1).interior(),
                                      lev(l + 1).shape.bx),
      "a"));
  cs.margin = lev(l + 1).shape.bx;

  cycle_at(l + 1);
  if (s_.options().cycle == CycleType::kW) cycle_at(l + 1);

  check::ScheduleStep& interp =
      rec_.kernel("kernel.interpIncrement", l, interpolation_increment_effects());
  interp.accesses.push_back(write_access("x", l, L.interior(), "fine"));
  interp.accesses.push_back(read_access("x", l, L.interior(), 0, "fine"));
  interp.accesses.push_back(
      read_access("x", l + 1, lev(l + 1).interior(), 0, "coarse"));
  st_[static_cast<std::size_t>(l)].margin = 0;
  smooth_level(l, s_.options().smooths, /*with_residual=*/false,
               /*restrict_to_coarse=*/false);
}

void ScheduleWalker::vcycle() { cycle_at(0); }

void ScheduleWalker::residual_norm() {
  const MgLevel& fine = lev(0);
  LevState& ls = st_[0];
  const Box interior = fine.interior();
  if (ls.margin < fine.radius && s_.use_overlap(fine)) {
    begin_exchange_for_smooth(0);
    apply_op(0, interior, "x", "Ax", /*split=*/true);
  } else {
    if (ls.margin < fine.radius) exchange_for_smooth(0);
    apply_op(0, interior, "x", "Ax", /*split=*/false);
  }
  if (fine.plan.fuse_norm) {
    check::ScheduleStep& step = rec_.kernel(
        "kernel.fusedResidualNorm", 0, fused::residual_max_norm_effects());
    step.accesses.push_back(write_access("r", 0, interior, "r"));
    step.accesses.push_back(read_access("b", 0, interior, 0, "b"));
    step.accesses.push_back(read_access("Ax", 0, interior, 0, "Ax"));
  } else {
    check::ScheduleStep& res =
        rec_.kernel("kernel.residual", 0, residual_effects());
    res.accesses.push_back(write_access("r", 0, interior, "r"));
    res.accesses.push_back(read_access("b", 0, interior, 0, "b"));
    res.accesses.push_back(read_access("Ax", 0, interior, 0, "Ax"));
    check::ScheduleStep& mn =
        rec_.kernel("kernel.maxNorm", 0, max_norm_effects());
    mn.accesses.push_back(read_access("r", 0, interior, 0, "a"));
  }
  // Per-component convergence norms in ascending component order; the
  // batched residual_norms skips retired components, so these carry
  // the retirement mask.
  const int group = rec_.next_reduction_group();
  for (int c : active_components_)
    rec_.reduction("allreduce.max_norm", 0, c, group,
                   /*retirement_masked=*/true);
}

void ScheduleWalker::fmg() {
  const int bot = bottom();
  for (int l = 0; l < bot; ++l) {
    check::ScheduleStep& step =
        rec_.kernel("kernel.restriction", l, restriction_effects());
    step.accesses.push_back(
        write_access("b", l + 1, lev(l + 1).interior(), "coarse"));
    step.accesses.push_back(read_access("b", l, lev(l).interior(), 0, "fine"));
    st_[static_cast<std::size_t>(l + 1)].b_ghosts_valid = false;
  }
  check::ScheduleStep& iz =
      rec_.kernel("kernel.initZero", bot, init_zero_effects());
  iz.accesses.push_back(write_access(
      "x", bot,
      lev(bot).grid->grow_unwrapped(lev(bot).interior(), lev(bot).shape.bx),
      "a"));
  st_[static_cast<std::size_t>(bot)].margin = lev(bot).shape.bx;
  bottom_solve();
  for (int l = bot - 1; l >= 0; --l) {
    LevState& cs = st_[static_cast<std::size_t>(l + 1)];
    if (cs.margin < 1) {
      const index_t depth = exchange_depth(l + 1);
      rec_.exchange(l + 1, {"x"}, depth);
      cs.margin = depth;
    }
    check::ScheduleStep& interp = rec_.kernel(
        "kernel.interpTrilinear", l, interpolation_trilinear_assign_effects());
    interp.accesses.push_back(write_access("x", l, lev(l).interior(), "fine"));
    interp.accesses.push_back(
        read_access("x", l + 1, lev(l + 1).interior(), 1, "coarse"));
    st_[static_cast<std::size_t>(l)].margin = 0;
    cycle_at(l);
  }
}

check::Schedule record_solver_schedule(const GmgSolver& s, int cycles) {
  check::ScheduleRecorder rec("gmg.solve");
  ScheduleWalker w(rec, s);
  w.add_levels();
  w.set_canonical_initial();
  w.residual_norm();
  for (int c = 0; c < cycles; ++c) {
    w.vcycle();
    w.residual_norm();
  }
  return rec.take();
}

check::Schedule record_fmg_schedule(const GmgSolver& s) {
  check::ScheduleRecorder rec("gmg.fmg");
  ScheduleWalker w(rec, s);
  w.add_levels();
  w.set_canonical_initial();
  w.fmg();
  w.residual_norm();
  return rec.take();
}

void verify_solver_schedule(const GmgSolver& s) {
  check::ScheduleVerifier verifier;
  verifier.verify(record_solver_schedule(s));
  verifier.verify(record_fmg_schedule(s));
}

}  // namespace gmg

#include "gmg/schedule_audit.hpp"

#include <vector>

#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"

namespace gmg {

using check::read_access;
using check::write_access;

Record::Record(check::ScheduleRecorder& rec, const GmgSolver& s, int k)
    : rec_(rec), s_(s), k_(k) {
  rec_.set_num_components(k);
}

const char* Record::name(Fld f) {
  switch (f) {
    case Fld::kX: return "x";
    case Fld::kB: return "b";
    case Fld::kAx: return "Ax";
    case Fld::kR: return "r";
    case Fld::kP: return "p";
  }
  return "?";
}

void Record::add_levels() {
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
    const index_t bx = L.shape.bx;
    rec_.set_initial("x", l, bx);
    if (l > 0) rec_.set_initial("b", l, bx);
    rec_.set_initial("p", l, bx);
    rec_.set_initial("coef", l, bx);
    rec_.set_initial("diag", l, bx - 1);
  }
}

void Record::exchange(int l, const FieldSet& fs) {
  std::vector<std::string> fields;
  for (int i = 0; i < fs.n; ++i) fields.emplace_back(name(fs.f[i]));
  rec_.exchange(l, std::move(fields), lev(l).shape.bx);
}

void Record::begin(int l, const FieldSet& fs) {
  std::vector<std::string> fields;
  for (int i = 0; i < fs.n; ++i) fields.emplace_back(name(fs.f[i]));
  rec_.exchange_begin(l, std::move(fields), lev(l).shape.bx);
}

check::ScheduleStep& Record::launch(
    const char* kernel, int l, const check::EffectSummary& summary,
    std::initializer_list<check::StepAccess> accesses) {
  check::ScheduleStep& step = rec_.kernel(kernel, l, summary);
  step.accesses.insert(step.accesses.end(), accesses);
  return step;
}

void Record::apply(int l, Fld out, Fld in, const Box& box, bool partial) {
  const MgLevel& L = lev(l);
  const int radius = static_cast<int>(L.radius);
  check::ScheduleStep& step =
      L.varcoef ? launch("kernel.applyOpVarCoef", l,
                         apply_op_varcoef_effects(),
                         {read_access("coef", l, box, 1, "coef")})
                : launch("kernel.applyOp", l, apply_op_effects(radius), {});
  step.partial = partial;
  step.accesses.push_back(write_access(name(out), l, box, "Ax"));
  step.accesses.push_back(read_access(name(in), l, box, radius, "x"));
}

void Record::add_chunk_writes(check::ScheduleStep& step, int l,
                              const Box& active) {
  // The cached iteration plan's chunking: one chunk per brick
  // intersecting `active`, clipped to it — the per-brick write region
  // of a fused launch (interior bricks plus the CA redundant ghost-brick
  // slabs).
  const BrickShape& sh = lev(l).shape;
  const Vec3 pitch{sh.bx, sh.by, sh.bz};
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

void Record::jacobi(int l, const Box& box, bool residual, bool restrict,
                    bool partial) {
  const MgLevel& L = lev(l);
  // The two-stage body (13-point / stencilgen operators) issues its
  // applyOp into the spare buffer first, then the pointwise update over
  // it — at every batch width.
  const bool one_pass = jacobi_is_one_pass(L);
  if (!one_pass) apply(l, Fld::kAx, Fld::kX, box, partial);
  check::ScheduleStep& step =
      !one_pass ? launch("kernel.jacobiUpdate", l,
                         fused::jacobi_update_effects(),
                         {read_access("Ax", l, box, 0, "out"),
                          read_access("x", l, box, 0, "x")})
      : L.varcoef ? launch("kernel.jacobiSweepVarCoef", l,
                           fused::jacobi_sweep_varcoef_effects(),
                           {read_access("x", l, box, 1, "x"),
                            read_access("coef", l, box, 1, "coef")})
                  : launch("kernel.jacobiSweep", l,
                           fused::jacobi_sweep_effects(),
                           {read_access("x", l, box, 1, "x")});
  step.partial = partial;
  step.accesses.push_back(read_access("b", l, box, 0, "b"));
  if (L.varcoef)
    step.accesses.push_back(read_access("diag", l, box, 0, "diag"));
  step.accesses.push_back(write_access("Ax", l, box, "out"));
  if (residual) step.accesses.push_back(write_access("r", l, box, "r"));
  const Box fine = intersect(box, L.interior());
  if (restrict && !fine.empty()) {
    step.accesses.push_back(
        write_access("b", l + 1, coarsen(fine, 2), "coarse"));
    if (!partial) add_chunk_writes(step, l, box);
  }
}

void Record::gs_color(int l, int, const Box& box, bool partial) {
  launch("kernel.gsColorSweep", l, gs_color_sweep_effects(),
         {write_access("x", l, box, "x"), read_access("x", l, box, 1, "x"),
          read_access("b", l, box, 0, "b")})
      .partial = partial;
}

void Record::residual(int l, const Box& box) {
  launch("kernel.residual", l, residual_effects(),
         {write_access("r", l, box, "r"), read_access("b", l, box, 0, "b"),
          read_access("Ax", l, box, 0, "Ax")});
}

void Record::residual_restrict(int l) {
  const Box in = lev(l).interior();
  add_chunk_writes(
      launch("kernel.fusedGsTail", l, fused::residual_restrict_effects(),
             {write_access("r", l, in, "r"),
              write_access("b", l + 1, lev(l + 1).interior(), "coarse"),
              read_access("b", l, in, 0, "b"),
              read_access("Ax", l, in, 0, "Ax")}),
      l, in);
}

void Record::restriction(int l, Fld fine) {
  launch("kernel.restriction", l, restriction_effects(),
         {write_access("b", l + 1, lev(l + 1).interior(), "coarse"),
          read_access(name(fine), l, lev(l).interior(), 0, "fine")});
}

void Record::init_zero_x(int l, const Box& stored) {
  launch("kernel.initZero", l, init_zero_effects(),
         {write_access("x", l, stored, "a")});
}

void Record::interp_increment(int l) {
  const Box in = lev(l).interior();
  launch("kernel.interpIncrement", l, interpolation_increment_effects(),
         {write_access("x", l, in, "fine"), read_access("x", l, in, 0, "fine"),
          read_access("x", l + 1, lev(l + 1).interior(), 0, "coarse")});
}

void Record::interp_trilinear(int l) {
  launch("kernel.interpTrilinear", l, interpolation_trilinear_assign_effects(),
         {write_access("x", l, lev(l).interior(), "fine"),
          read_access("x", l + 1, lev(l + 1).interior(), 1, "coarse")});
}

void Record::cheby_p(int l, const Box& box, real_t) {
  const bool vc = lev(l).varcoef;
  check::ScheduleStep& step = launch(
      vc ? "kernel.chebyPVarCoef" : "kernel.chebyP", l,
      vc ? cheby_p_update_varcoef_effects() : cheby_p_update_effects(),
      {write_access("p", l, box, "p"), read_access("p", l, box, 0, "p"),
       read_access("r", l, box, 0, "r")});
  if (vc) step.accesses.push_back(read_access("diag", l, box, 0, "diag"));
}

void Record::axpy_p(int l, real_t, const Box& box) {
  launch("kernel.axpyActive", l, axpy_effects(),
         {write_access("x", l, box, "y"), read_access("x", l, box, 0, "y"),
          read_access("p", l, box, 0, "x")});
}

void Record::copy(int l, Fld dst, Fld src) {
  const Box in = lev(l).interior();
  launch("kernel.copy", l, copy_interior_effects(),
         {write_access(name(dst), l, in, "dst"),
          read_access(name(src), l, in, 0, "src")});
}

void Record::axpy_interior(int l, Fld y, real_t, Fld x, int) {
  const Box in = lev(l).interior();
  launch("kernel.axpy", l, axpy_interior_effects(),
         {write_access(name(y), l, in, "y"),
          read_access(name(y), l, in, 0, "y"),
          read_access(name(x), l, in, 0, "x")});
}

void Record::xpay_interior(int l, Fld y, Fld x, real_t, int) {
  const Box in = lev(l).interior();
  launch("kernel.xpay", l, xpay_interior_effects(),
         {write_access(name(y), l, in, "y"),
          read_access(name(y), l, in, 0, "y"),
          read_access(name(x), l, in, 0, "x")});
}

real_t Record::residual_max_norm() {
  const Box in = lev(0).interior();
  launch("kernel.fusedResidualNorm", 0, fused::residual_max_norm_effects(),
         {write_access("r", 0, in, "r"), read_access("b", 0, in, 0, "b"),
          read_access("Ax", 0, in, 0, "Ax")});
  return 0;
}

real_t Record::max_norm(int) {
  launch("kernel.maxNorm", 0, max_norm_effects(),
         {read_access("r", 0, lev(0).interior(), 0, "a")});
  return 0;
}

check::Schedule record_solver_schedule(const GmgSolver& s, int cycles) {
  check::ScheduleRecorder rec("gmg.solve");
  Record ex(rec, s);
  ex.add_levels();
  CycleState st(s.num_levels(), 1);
  st.after_set_rhs(s.level(0).shape.bx);
  Cycle<Record> cycle(s, ex, st);
  const std::uint8_t active = 1;
  real_t res = 0;
  cycle.residual_norms(&active, &res);
  for (int c = 0; c < cycles; ++c) {
    cycle.vcycle();
    cycle.residual_norms(&active, &res);
  }
  return rec.take();
}

check::Schedule record_fmg_schedule(const GmgSolver& s) {
  check::ScheduleRecorder rec("gmg.fmg");
  Record ex(rec, s);
  ex.add_levels();
  CycleState st(s.num_levels(), 1);
  st.after_set_rhs(s.level(0).shape.bx);
  Cycle<Record> cycle(s, ex, st);
  cycle.fmg();
  const std::uint8_t active = 1;
  real_t res = 0;
  cycle.residual_norms(&active, &res);
  return rec.take();
}

void verify_solver_schedule(const GmgSolver& s) {
  check::ScheduleVerifier verifier;
  verifier.verify(record_solver_schedule(s));
  verifier.verify(record_fmg_schedule(s));
}

}  // namespace gmg

#include "gmg/schedule_audit.hpp"

#include <vector>

#include "gmg/fused_kernels.hpp"
#include "gmg/kernel_plan.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"

namespace gmg {

namespace {

void add_chunk_writes(check::ScheduleStep& step, const BrickShape& sh,
                      const Box& active) {
  // The cached iteration plan's chunking: one chunk per brick
  // intersecting `active`, clipped to it — the per-brick write region
  // of a fused launch (interior bricks plus the CA redundant ghost-brick
  // slabs).
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

}  // namespace

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
    for (int d = 0; d < 3; ++d) info.wrapped[d] = L.grid->wraps(d);
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

check::ScheduleStep& Record::apply(const MgLevel& L, int l, const char* out,
                                   const char* in, const Box& box) {
  const check::EffectSummary s = level_apply_effects(L);
  if (L.plan.op == OpKind::kVarCoef)
    return rec_.launch(s, l, box, {{"Ax", out}, {"x", in}, {"coef", "coef"}});
  return rec_.launch(s, l, box, {{"Ax", out}, {"x", in}});
}

void Record::apply(int l, Fld out, Fld in, const Box& box) {
  apply(lev(l), l, name(out), name(in), box);
}

void Record::sweep(const MgLevel& L, int l, const Box& box, bool descent) {
  const Box fine = intersect(box, L.interior());
  const bool coarse = descent && !fine.empty();
  const check::StepBinding r{"r", descent ? "r" : nullptr};
  const check::StepBinding c{"coarse", coarse ? "b" : nullptr, l + 1,
                             coarsen(fine, 2)};
  const check::EffectSummary s = level_jacobi_effects(L);
  check::ScheduleStep& step =
      L.plan.op == OpKind::kVarCoef
          ? rec_.launch(s, l, box,
                        {{"out", "Ax"}, r, c, {"x", "x"}, {"coef", "coef"},
                         {"b", "b"}, {"diag", "diag"}})
          : rec_.launch(s, l, box,
                        {{"out", "Ax"}, r, c, {"x", "x"}, {"b", "b"}});
  if (coarse) add_chunk_writes(step, L.shape, box);
}

void Record::jacobi(int l, const Box& box, bool descent) {
  sweep(lev(l), l, box, descent);
}

void Record::gs_color(int l, int, const Box& box) {
  rec_.launch(gs_color_sweep_effects(), l, box, {{"x", "x"}, {"b", "b"}});
}

void Record::residual(int l, const Box& box) {
  rec_.launch(residual_effects(), l, box,
              {{"r", "r"}, {"b", "b"}, {"Ax", "Ax"}});
}

void Record::residual_restrict(int l) {
  const Box in = lev(l).interior();
  add_chunk_writes(
      rec_.launch(fused::residual_restrict_effects(), l, in,
                  {{"r", "r"},
                   {"coarse", "b", l + 1, lev(l + 1).interior()},
                   {"b", "b"},
                   {"Ax", "Ax"}}),
      lev(l).shape, in);
}

void Record::restriction(int l, Fld fine) {
  rec_.launch(restriction_effects(), l, lev(l).interior(),
              {{"coarse", "b", l + 1, lev(l + 1).interior()},
               {"fine", name(fine)}});
}

void Record::init_zero_x(int l, const Box& stored) {
  rec_.launch(init_zero_effects(), l, stored, {{"a", "x"}});
}

void Record::interp_increment(int l) {
  rec_.launch(interpolation_increment_effects(), l, lev(l).interior(),
              {{"fine", "x"}, {"coarse", "x", l + 1, lev(l + 1).interior()}});
}

void Record::interp_trilinear(int l) {
  rec_.launch(interpolation_trilinear_assign_effects(), l, lev(l).interior(),
              {{"fine", "x"}, {"coarse", "x", l + 1, lev(l + 1).interior()}});
}

void Record::cheby_p(int l, const Box& box, real_t) {
  if (lev(l).varcoef) {
    rec_.launch(cheby_p_update_varcoef_effects(), l, box,
                {{"p", "p"}, {"r", "r"}, {"diag", "diag"}});
  } else {
    rec_.launch(cheby_p_update_effects(), l, box, {{"p", "p"}, {"r", "r"}});
  }
}

void Record::axpy_p(int l, real_t, const Box& box) {
  rec_.launch(axpy_effects(), l, box, {{"y", "x"}, {"x", "p"}});
}

void Record::copy(int l, Fld dst, Fld src) {
  rec_.launch(copy_interior_effects(), l, lev(l).interior(),
              {{"dst", name(dst)}, {"src", name(src)}});
}

void Record::axpy_interior(int l, Fld y, real_t, Fld x, int) {
  rec_.launch(axpy_interior_effects(), l, lev(l).interior(),
              {{"y", name(y)}, {"x", name(x)}});
}

void Record::xpay_interior(int l, Fld y, Fld x, real_t, int) {
  rec_.launch(xpay_interior_effects(), l, lev(l).interior(),
              {{"y", name(y)}, {"x", name(x)}});
}

real_t Record::residual_max_norm() {
  rec_.launch(fused::residual_max_norm_effects(), 0, lev(0).interior(),
              {{"r", "r"}, {"b", "b"}, {"Ax", "Ax"}});
  return 0;
}

real_t Record::max_norm(int) {
  rec_.launch(max_norm_effects(), 0, lev(0).interior(), {{"a", "r"}});
  return 0;
}

check::Schedule record_solver_schedule(const GmgSolver& s, int cycles,
                                       int k) {
  check::ScheduleRecorder rec(k == 1 ? "gmg.solve" : "batch.solve");
  Record ex(rec, s, k);
  ex.add_levels();
  CycleState st(s.num_levels(), k);
  st.after_set_rhs(s.level(0).shape.bx);
  Cycle<Record> cycle(s, ex, st);
  // The solve loop's sequence (gmg/cycle.hpp): initial norms, then each
  // cycle and its norms. At K > 1 component 0 retires after the first
  // cycle; the masked norm groups after it cover only the survivors, in
  // ascending order, while the bottom CG keeps the full width —
  // shrinking the active set can never reorder or resurrect a
  // collective. Written out rather than run through solve_loop, whose
  // small per-call allocations interleaved with the recorder's raised
  // the peak RSS of repeated solver setup (DESIGN.md §18).
  std::vector<std::uint8_t> active(static_cast<std::size_t>(k), 1);
  std::vector<real_t> res(static_cast<std::size_t>(k), 0.0);
  cycle.residual_norms(active.data(), res.data());
  for (int c = 0; c < cycles; ++c) {
    cycle.vcycle();
    cycle.residual_norms(active.data(), res.data());
    if (c == 0 && k > 1) {
      rec.retire(0);
      active[0] = 0;
    }
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

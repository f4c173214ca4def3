// The run executor of the cycle (gmg/cycle.hpp), written once for every
// field set: LevelRun<Level> issues each launch, exchange and reduction
// over a hierarchy's per-level solve fields — GmgSolver's own MgLevels,
// or a batched solve's K-lane levels (batch/batched_solver.hpp) riding
// a solo hierarchy. Either way the operator, coefficients and kernel
// choice come from the solo hierarchy's MgLevel and its KernelPlan
// (kernel_plan.hpp), and the kernels are the one K-generic set, so a
// batched solve issues exactly the solo launches, one stretched
// exchange round per aggregated exchange, and is timed by the same
// phase spans.
#pragma once

#include <utility>
#include <vector>

#include "gmg/cycle.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/kernel_plan.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"

namespace gmg {

/// `Level` holds one level's solve fields x, b, Ax, r, p (BrickedArrays
/// or BatchedBrickedArrays) and its exchange engine.
template <class Level>
class LevelRun {
 public:
  /// Runs over `levels`, the solve fields of `s`'s hierarchy.
  LevelRun(const GmgSolver& s, std::vector<Level>& levels,
           comm::Communicator& comm)
      : s_(s), levels_(levels), comm_(comm) {}

  int k() const { return static_cast<int>(lanes(levels_.front().x)); }
  template <class Fn>
  void timed(int l, Phase phase, Fn&& fn) {
    timed_phase(l, phase, std::forward<Fn>(fn));
  }

  // Exchange primitives: the only direct exchange-engine calls of a
  // solve.
  void exchange(int l, const FieldSet& fs) {
    lev(l).exchange->exchange(comm_, fields(l, fs));
  }
  void exchange(int l, BrickedArray& field) {
    lev(l).exchange->exchange(comm_, field);
  }
  void apply(int l, Fld out, Fld in, const Box& box) {
    level_apply(base(l), f(l, out), f(l, in), box);
  }
  void jacobi(int l, const Box& box, bool descent) {
    Level& L = lev(l);
    level_jacobi(base(l), L.Ax, descent ? &L.r : nullptr,
                 descent ? &lev(l + 1).b : nullptr, L.x, L.b, box);
  }
  void swap(int l) { std::swap(lev(l).x, lev(l).Ax); }
  void gs_color(int l, int color, const Box& box) {
    const MgLevel& B = base(l);
    gs_color_sweep(lev(l).x, lev(l).b, B.alpha, B.beta, color, B.rank_box.lo,
                   box);
  }
  void residual(int l, const Box& box) {
    Level& L = lev(l);
    gmg::residual(L.r, L.b, L.Ax, box);
  }
  void residual_restrict(int l) {
    Level& L = lev(l);
    fused::residual_restrict(L.r, lev(l + 1).b, L.b, L.Ax);
  }
  void restriction(int l, Fld fine) {
    gmg::restriction(lev(l + 1).b, f(l, fine));
  }
  void init_zero_x(int l, const Box&) { init_zero(storage(lev(l).x)); }
  void interp_increment(int l) {
    interpolation_increment(lev(l).x, lev(l + 1).x);
  }
  void interp_trilinear(int l) {
    interpolation_trilinear_assign(lev(l).x, lev(l + 1).x);
  }
  void cheby_p(int l, const Box& box, real_t beta) {
    const MgLevel& B = base(l);
    Level& L = lev(l);
    if (B.varcoef) {
      cheby_p_update_varcoef(L.p, L.r, B.diag, beta, box);
    } else {
      cheby_p_update(L.p, L.r, 1.0 / B.alpha, beta, box);
    }
  }
  void axpy_p(int l, real_t alpha, const Box& box) {
    axpy(lev(l).x, alpha, lev(l).p, box);
  }
  void copy(int l, Fld dst, Fld src) { copy_interior(f(l, dst), f(l, src)); }
  real_t dot(int l, Fld a, Fld b, int c) {
    return dot_interior(f(l, a), f(l, b), c);
  }
  void axpy_interior(int l, Fld y, real_t a, Fld x, int c) {
    gmg::axpy_interior(f(l, y), a, f(l, x), c);
  }
  void xpay_interior(int l, Fld y, Fld x, real_t beta, int c) {
    gmg::xpay_interior(f(l, y), f(l, x), beta, c);
  }
  real_t residual_max_norm() {
    Level& L = lev(0);
    return fused::residual_max_norm(L.r, L.b, L.Ax);
  }
  real_t max_norm(int c) { return gmg::max_norm(lev(0).r, c); }
  real_t norm2_sq() { return gmg::norm2_sq(lev(0).r); }
  int next_group() { return 0; }
  real_t allreduce_sum(real_t v, const char*, int, int, int, bool) {
    return comm_.allreduce_sum(v);
  }
  real_t allreduce_max(real_t v, const char*, int, int, int, bool) {
    return comm_.allreduce_max(v);
  }
  int cg_iterations(int budget) const { return budget; }

 private:
  const MgLevel& base(int l) const { return s_.level(l); }
  Level& lev(int l) { return levels_[static_cast<std::size_t>(l)]; }
  auto& f(int l, Fld fld) { return field(lev(l), fld); }
  std::vector<BrickedArray*> fields(int l, const FieldSet& fs) {
    std::vector<BrickedArray*> out(static_cast<std::size_t>(fs.n));
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = &storage(f(l, fs.f[i]));
    return out;
  }

  const GmgSolver& s_;
  std::vector<Level>& levels_;
  comm::Communicator& comm_;
};

}  // namespace gmg

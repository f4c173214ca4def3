#include "gmg/operators_varcoef.hpp"

#include "brick/brick_plan.hpp"
#include "check/shadow.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "gmg/stencil_rows.hpp"
#include "trace/trace.hpp"

namespace gmg {

// The summaries' read reaches restate the vc:: expressions' per-slot
// footprints (slot 0 x, slot 1 the coefficient; the diagonal's slot 0
// is the coefficient). A wrong reach would mislead both GMG_CHECK and
// the schedule proof, so it fails to compile instead.
static_assert(apply_op_varcoef_effects().read_reach("x") ==
                      vc::apply_expr(0, 1).offsets().slot_extents(0).radius() &&
                  apply_op_varcoef_effects().read_reach("coef") ==
                      vc::apply_expr(0, 1).offsets().slot_extents(1).radius(),
              "varcoef operator reaches must be its expression's");
static_assert(varcoef_diagonal_effects().read_reach("coef") ==
                  vc::diagonal_expr(0, 1).offsets().slot_extents(0).radius(),
              "varcoef diagonal reach must be its expression's");

namespace {

using detail::for_each_row;

inline void count_flops_vc(const Box& active, index_t lanes,
                           std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops",
                     static_cast<std::uint64_t>(active.volume() * lanes) *
                         flops_per_pt);
}

}  // namespace

template <class F>
void apply_op_varcoef(F& Ax, const F& x, const BrickedArray& beta,
                      real_t identity_coef, real_t h, const Box& active) {
  // Six face fluxes: 2 adds + 1 sub + 1 mul each, plus the identity
  // term and flux sum — ~26 flops per output cell.
  trace::TraceSpan span("kernel.applyOpVarCoef");
  count_flops_vc(active, batch_width(x), 26);
  const real_t f = 0.5 / (h * h);
  const auto scope = check::scope(
      apply_op_varcoef_effects(), active,
      {check::bind("Ax", Ax), check::bind("x", x), check::bind("coef", beta)});
  // Face-averaged flux form, written directly in the stencil DSL with
  // the coefficient bound to grid slot 1 (Fig. 1's "non-constant
  // coefficients"). The tree itself lives in vc:: so the one-pass
  // Jacobi sweep applies the identical expression.
  dsl::apply(vc::apply_expr(identity_coef, f), Ax, active, x, beta);
}

void varcoef_diagonal(BrickedArray& diag, const BrickedArray& beta,
                      real_t identity_coef, real_t h, const Box& active) {
  const real_t f = 0.5 / (h * h);
  const auto scope = check::scope(
      varcoef_diagonal_effects(), active,
      {check::bind("diag", diag), check::bind("coef", beta)});
  dsl::apply(vc::diagonal_expr(identity_coef, f), diag, active, beta);
}

void smooth_residual_varcoef(BrickedArray& x, BrickedArray& r,
                             const BrickedArray& Ax, const BrickedArray& b,
                             const BrickedArray& diag, real_t omega,
                             const Box& active) {
  trace::TraceSpan span("kernel.smoothResidualVarCoef");
  count_flops_vc(active, 1, 6);
  const auto scope = check::scope(
      smooth_residual_varcoef_effects(), active,
      {check::bind("x", x), check::bind("r", r), check::bind("Ax", Ax),
       check::bind("b", b), check::bind("diag", diag)});
  with_brick_dims(x.shape(), [&](auto bd) {
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict dp = diag.data();
    for_each_row(bd, OneLane{}, "kernel.smoothResidualVarCoef", x.grid(),
                 active, [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     const real_t ax = axp[o + i];
                     const real_t rhs = bp[o + i];
                     rp[o + i] = rhs - ax;
                     xp[o + i] += (-omega / dp[o + i]) * (ax - rhs);
                   }
                 });
  });
}

void smooth_varcoef(BrickedArray& x, const BrickedArray& Ax,
                    const BrickedArray& b, const BrickedArray& diag,
                    real_t omega, const Box& active) {
  trace::TraceSpan span("kernel.smoothVarCoef");
  count_flops_vc(active, 1, 5);
  const auto scope = check::scope(
      smooth_varcoef_effects(), active,
      {check::bind("x", x), check::bind("Ax", Ax), check::bind("b", b),
       check::bind("diag", diag)});
  with_brick_dims(x.shape(), [&](auto bd) {
    real_t* __restrict xp = x.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict dp = diag.data();
    for_each_row(bd, OneLane{}, "kernel.smoothVarCoef", x.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     xp[o + i] += (-omega / dp[o + i]) *
                                  (axp[o + i] - bp[o + i]);
                   }
                 });
  });
}

template <class F>
void cheby_p_update_varcoef(F& p, const F& r, const BrickedArray& diag,
                            real_t beta_ch, const Box& active) {
  const auto scope = check::scope(
      cheby_p_update_varcoef_effects(), active,
      {check::bind("p", p), check::bind("r", r), check::bind("diag", diag)});
  with_field_dims(p, [&](auto bd, auto K) {
    real_t* __restrict pp = p.data();
    const real_t* __restrict rp = r.data();
    const real_t* __restrict dp = diag.data();
    // Rows in flat lane units; the diagonal is per cell, shared by the
    // K lanes of a cell.
    for_each_row(bd, K, "kernel.chebyPVarCoef", p.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     pp[o + i] = rp[o + i] / dp[(o + i) / K] +
                                 beta_ch * pp[o + i];
                   }
                 });
  });
}

#define GMG_OPERATORS_VARCOEF(F)                                            \
  template void apply_op_varcoef(F&, const F&, const BrickedArray&, real_t, \
                                 real_t, const Box&);                      \
  template void cheby_p_update_varcoef(F&, const F&, const BrickedArray&,   \
                                       real_t, const Box&);
GMG_OPERATORS_VARCOEF(BrickedArray)
GMG_OPERATORS_VARCOEF(BatchedBrickedArray)
#undef GMG_OPERATORS_VARCOEF

}  // namespace gmg

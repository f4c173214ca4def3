#include "gmg/fused_kernels.hpp"

#include "gmg/operators_varcoef.hpp"
#include "gmg/sweep_pass.hpp"

namespace gmg::fused {

// The sweep reads x and the coefficient through apply_op_varcoef's
// expression: pin the summary's reaches to its footprints.
static_assert(jacobi_sweep_varcoef_effects().read_reach("x") ==
                      vc::apply_expr(0, 1).offsets().slot_extents(0).radius() &&
                  jacobi_sweep_varcoef_effects().read_reach("coef") ==
                      vc::apply_expr(0, 1).offsets().slot_extents(1).radius(),
              "varcoef sweep reaches must be the operator expression's");

template <class F>
void jacobi_sweep_varcoef(F& x_next, std::type_identity_t<F>* r,
                          std::type_identity_t<F>* coarse_b, const F& x,
                          const F& b, const BrickedArray& coef,
                          const BrickedArray& diag, real_t identity_coef,
                          real_t h, real_t omega, const Box& active) {
  const Box fine = require_sweep_args<F>(x_next, r, coarse_b, x, active);
  const index_t width = batch_width(x);
  trace::TraceSpan span("kernel.jacobiSweepVarCoef");
  count_flops(box_points(active, width), r != nullptr ? 32 : 31);
  if (coarse_b != nullptr) count_flops(box_points(fine, width) / 8, 8);
  const auto scope = check::scope(
      jacobi_sweep_varcoef_effects(), active,
      {check::bind("out", x_next), check::bind("r", r),
       check::bind("coarse", coarse_b, coarsen(fine, 2)),
       check::bind("x", x), check::bind("coef", coef), check::bind("b", b),
       check::bind("diag", diag)});
  // The operator is apply_op_varcoef's expression, the coefficient
  // shared by every lane.
  const real_t* __restrict dp = diag.data();
  dsl_sweep("kernel.jacobiSweepVarCoef", x_next, r, coarse_b, x, b, active,
            vc::apply_expr(identity_coef, 0.5 / (h * h)),
            [dp, omega](std::size_t cell) { return -omega / dp[cell]; }, coef);
}

template void jacobi_sweep_varcoef<BrickedArray>(
    BrickedArray&, BrickedArray*, BrickedArray*, const BrickedArray&,
    const BrickedArray&, const BrickedArray&, const BrickedArray&, real_t,
    real_t, real_t, const Box&);
template void jacobi_sweep_varcoef<BatchedBrickedArray>(
    BatchedBrickedArray&, BatchedBrickedArray*, BatchedBrickedArray*,
    const BatchedBrickedArray&, const BatchedBrickedArray&,
    const BrickedArray&, const BrickedArray&, real_t, real_t, real_t,
    const Box&);

}  // namespace gmg::fused

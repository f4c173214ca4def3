#include "gmg/fused_kernels.hpp"

#include <array>

#include "dsl/stencils.hpp"
#include "gmg/sweep_pass.hpp"

namespace gmg::fused {

// The sweep reads x through star_stencil<2>, the 13-point applyOp's
// expression: pin the summary's reach to that footprint.
static_assert(jacobi_sweep_star13_effects().read_reach("x") ==
                  dsl::star_stencil<2, 0>(std::array<real_t, 3>{1.0, 1.0, 1.0})
                      .offsets()
                      .radius(),
              "13-point sweep x reach must be star_stencil<2>'s");

template <class F>
void jacobi_sweep_star13(F& x_next, std::type_identity_t<F>* r,
                         std::type_identity_t<F>* coarse_b, const F& x,
                         const F& b, real_t alpha, real_t beta, real_t beta2,
                         real_t gamma, const Box& active) {
  const Box fine = require_sweep_args<F>(x_next, r, coarse_b, x, active);
  const index_t width = batch_width(x);
  trace::TraceSpan span("kernel.jacobiSweep");
  // A*x (15) + the x update (3) + the residual (1) per point; 8 per
  // coarse point for the restriction.
  count_flops(box_points(active, width), r != nullptr ? 19 : 18);
  if (coarse_b != nullptr) count_flops(box_points(fine, width) / 8, 8);
  const auto scope = check::scope(
      jacobi_sweep_star13_effects(), active,
      {check::bind("out", x_next), check::bind("r", r),
       check::bind("coarse", coarse_b, coarsen(fine, 2)),
       check::bind("x", x), check::bind("b", b)});
  // The operator is the 13-point applyOp's expression.
  dsl_sweep("kernel.jacobiSweep", x_next, r, coarse_b, x, b, active,
            dsl::star_stencil<2, 0>(std::array<real_t, 3>{alpha, beta, beta2}),
            [gamma](std::size_t) { return gamma; });
}

template void jacobi_sweep_star13<BrickedArray>(BrickedArray&, BrickedArray*,
                                                BrickedArray*,
                                                const BrickedArray&,
                                                const BrickedArray&, real_t,
                                                real_t, real_t, real_t,
                                                const Box&);
template void jacobi_sweep_star13<BatchedBrickedArray>(
    BatchedBrickedArray&, BatchedBrickedArray*, BatchedBrickedArray*,
    const BatchedBrickedArray&, const BatchedBrickedArray&, real_t, real_t,
    real_t, real_t, const Box&);

}  // namespace gmg::fused

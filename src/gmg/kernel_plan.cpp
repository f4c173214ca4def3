#include "gmg/kernel_plan.hpp"

#include <array>

#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/level.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/solver.hpp"

namespace gmg {

// This file IS the specializer registry: with the run executors, the
// only place in src/gmg that names the per-stage kernels directly.
// tools/gmg_lint enforces that no bare per-stage kernel call creeps
// into the cycle.
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev) {
  KernelPlan plan;

  plan.weight = opts.jacobi_weight;
  // Jacobi's last sweep and GS's residual tail restrict in the same
  // pass; the Chebyshev recurrence reads r on every sweep and updates x
  // after it, so its restriction stays separate (see kernel_plan.hpp).
  plan.fuses_restriction = opts.smoother != Smoother::kChebyshev;

  if (lev.varcoef) {
    plan.op = OpKind::kVarCoef;
  } else {
    plan.op = lev.radius == 1 ? OpKind::kStar7 : OpKind::kStar13;
  }
  plan.identity_coef = opts.identity_coef;
  lev.plan = plan;
}

check::EffectSummary level_apply_effects(const MgLevel& L) {
  switch (L.plan.op) {
    case OpKind::kStar7:
      return apply_op_effects(1);
    case OpKind::kStar13:
      return apply_op_effects(2);
    case OpKind::kVarCoef:
      return apply_op_varcoef_effects();
  }
  GMG_REQUIRE(false, "unknown operator kind");
  return {};
}

check::EffectSummary level_jacobi_effects(const MgLevel& L) {
  switch (L.plan.op) {
    case OpKind::kStar7:
      return fused::jacobi_sweep_effects(1);
    case OpKind::kStar13:
      return fused::jacobi_sweep_star13_effects();
    case OpKind::kVarCoef:
      return fused::jacobi_sweep_varcoef_effects();
  }
  GMG_REQUIRE(false, "unknown operator kind");
  return {};
}

template <BrickField F>
void level_apply(const MgLevel& L, F& out, const F& in, const Box& active) {
  switch (L.plan.op) {
    case OpKind::kStar7:
      apply_op(out, in, L.alpha, L.beta, active);
      return;
    case OpKind::kStar13:
      dsl::apply(dsl::star_stencil<2, 0>(
                     std::array<real_t, 3>{L.alpha, L.beta, L.beta2}),
                 out, active, in);
      return;
    case OpKind::kVarCoef:
      apply_op_varcoef(out, in, L.coef, L.plan.identity_coef, L.h, active);
      return;
  }
  GMG_REQUIRE(false, "unknown operator kind");
}

template <BrickField F>
void level_jacobi(const MgLevel& L, F& x_next, std::type_identity_t<F>* r,
                  std::type_identity_t<F>* coarse_b, const F& x, const F& b,
                  const Box& active) {
  switch (L.plan.op) {
    case OpKind::kStar7:
      fused::jacobi_sweep(x_next, r, coarse_b, x, b, L.alpha, L.beta,
                          -L.plan.weight / L.alpha, active);
      return;
    case OpKind::kStar13:
      fused::jacobi_sweep_star13(x_next, r, coarse_b, x, b, L.alpha, L.beta,
                                 L.beta2, -L.plan.weight / L.alpha, active);
      return;
    case OpKind::kVarCoef:
      fused::jacobi_sweep_varcoef(x_next, r, coarse_b, x, b, L.coef, L.diag,
                                  L.plan.identity_coef, L.h, L.plan.weight,
                                  active);
      return;
  }
  GMG_REQUIRE(false, "unknown operator kind");
}

#define GMG_LEVEL_KERNELS(F)                                               \
  template void level_apply(const MgLevel&, F&, const F&, const Box&);    \
  template void level_jacobi<F>(const MgLevel&, F&, F*, F*, const F&,     \
                                const F&, const Box&);
GMG_LEVEL_KERNELS(BrickedArray)
GMG_LEVEL_KERNELS(BatchedBrickedArray)
#undef GMG_LEVEL_KERNELS

}  // namespace gmg

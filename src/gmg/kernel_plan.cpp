#include "gmg/kernel_plan.hpp"

#include <array>

#include "dsl/apply_brick.hpp"
#include "dsl/generated/laplacian_7pt_gen.hpp"
#include "dsl/generated/star_13pt_gen.hpp"
#include "dsl/stencils.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/level.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/solver.hpp"

namespace gmg {

bool jacobi_is_one_pass(const MgLevel& lev) {
  return lev.plan.op == OpKind::kStar7 || lev.plan.op == OpKind::kVarCoef;
}

// This file IS the specializer registry: with the run executors, the
// only place in src/gmg that names the per-stage kernels directly.
// tools/gmg_lint enforces that no bare per-stage kernel call creeps
// into the cycle.
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev) {
  KernelPlan plan;

  plan.weight = opts.smoother == Smoother::kWeightedJacobi
                    ? opts.jacobi_weight
                    : real_t{0.5};
  // Jacobi's last sweep and GS's residual tail restrict in the same
  // pass; the Chebyshev recurrence reads r on every sweep and updates x
  // after it, so its restriction stays separate (see kernel_plan.hpp).
  plan.fuses_restriction = opts.smoother != Smoother::kChebyshev;

  if (lev.varcoef) {
    plan.op = OpKind::kVarCoef;
  } else if (opts.use_generated_kernels) {
    plan.op = lev.radius == 1 ? OpKind::kGenerated7 : OpKind::kGenerated13;
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
    case OpKind::kGenerated7:
      return dsl::generated::laplacian_7pt_effects();
    case OpKind::kGenerated13:
      return dsl::generated::star_13pt_effects();
  }
  GMG_REQUIRE(false, "unknown operator kind");
  return {};
}

check::EffectSummary level_jacobi_effects(const MgLevel& L) {
  if (L.plan.op == OpKind::kVarCoef)
    return fused::jacobi_sweep_varcoef_effects();
  return jacobi_is_one_pass(L) ? fused::jacobi_sweep_effects()
                               : fused::jacobi_update_effects();
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
    case OpKind::kGenerated7:
    case OpKind::kGenerated13:
      if constexpr (std::is_same_v<F, BrickedArray>) {
        if (L.plan.op == OpKind::kGenerated7) {
          dsl::generated::laplacian_7pt(out, in, L.alpha, L.beta, active);
        } else {
          dsl::generated::star_13pt(out, in, L.alpha, L.beta, L.beta2,
                                    active);
        }
        return;
      }
      break;
  }
  GMG_REQUIRE(false, "stencilgen kernels are emitted for solo layout only");
}

template <BrickField F>
void level_jacobi(const MgLevel& L, F& x_next, std::type_identity_t<F>* r,
                  std::type_identity_t<F>* coarse_b, const F& x, const F& b,
                  const Box& active) {
  if (L.plan.op == OpKind::kVarCoef) {
    fused::jacobi_sweep_varcoef(x_next, r, coarse_b, x, b, L.coef, L.diag,
                                L.plan.identity_coef, L.h, L.plan.weight,
                                active);
    return;
  }
  const real_t gamma = -L.plan.weight / L.alpha;
  if (jacobi_is_one_pass(L)) {
    fused::jacobi_sweep(x_next, r, coarse_b, x, b, L.alpha, L.beta, gamma,
                        active);
  } else {
    // Two-stage body: A*x into the spare buffer, then the pointwise
    // update over it.
    level_apply(L, x_next, x, active);
    fused::jacobi_update(x_next, r, coarse_b, x, b, gamma, active);
  }
}

#define GMG_LEVEL_KERNELS(F)                                               \
  template void level_apply(const MgLevel&, F&, const F&, const Box&);    \
  template void level_jacobi<F>(const MgLevel&, F&, F*, F*, const F&,     \
                                const F&, const Box&);
GMG_LEVEL_KERNELS(BrickedArray)
GMG_LEVEL_KERNELS(BatchedBrickedArray)
#undef GMG_LEVEL_KERNELS

}  // namespace gmg

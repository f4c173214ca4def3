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

bool jacobi_is_one_pass(const GmgOptions& opts, const MgLevel& lev) {
  return lev.varcoef || (lev.radius == 1 && !opts.use_generated_kernels);
}

// This file IS the specializer registry: the only place in src/gmg
// that names the per-stage kernels directly. The solo cycle's run
// executor (solver.cpp) calls through the bound functors — tools/gmg_lint
// enforces that no bare per-stage kernel call creeps back into it.
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev) {
  KernelPlan plan;

  const bool jacobi = opts.smoother == Smoother::kPointJacobi ||
                      opts.smoother == Smoother::kWeightedJacobi;
  plan.weight = opts.smoother == Smoother::kWeightedJacobi
                    ? opts.jacobi_weight
                    : real_t{0.5};
  // Fusion capability predicate (see kernel_plan.hpp): full descent
  // fusion needs a pointwise final smoother application (Jacobi
  // family); GS fuses only its residual+restriction tail; Chebyshev
  // falls back to the split schedule entirely. The residual+norm
  // fusion is smoother-independent.
  plan.fuse_descent = opts.fuse_stages && jacobi;
  plan.fuse_gs_tail =
      opts.fuse_stages && opts.smoother == Smoother::kRedBlackGS;
  plan.fuse_norm = opts.fuse_stages;

  // The functors capture the LEVEL pointer plus scalars by value:
  // detach/attach_field_storage reassigns the field BrickedArrays, so
  // bindings dereference through the level at call time. MgLevel
  // addresses are stable (levels_ is sized once at construction).
  MgLevel* L = &lev;

  // applyOp variant, resolved once per level instead of per sweep.
  if (lev.varcoef) {
    const real_t s = opts.identity_coef;
    plan.apply = [L, s](BrickedArray& out, const BrickedArray& in,
                        const Box& active) {
      apply_op_varcoef(out, in, L->coef, s, L->h, active);
    };
  } else if (opts.use_generated_kernels) {
    if (lev.radius == 1) {
      plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                       const Box& active) {
        dsl::generated::laplacian_7pt(out, in, L->alpha, L->beta, active);
      };
    } else {
      plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                       const Box& active) {
        dsl::generated::star_13pt(out, in, L->alpha, L->beta, L->beta2,
                                  active);
      };
    }
  } else if (lev.radius == 1) {
    plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                     const Box& active) {
      apply_op(out, in, L->alpha, L->beta, active);
    };
  } else {
    plan.apply = [L](BrickedArray& out, const BrickedArray& in,
                     const Box& active) {
      const auto expr = dsl::star_stencil<2, 0>(
          std::array<real_t, 3>{L->alpha, L->beta, L->beta2});
      dsl::apply(expr, out, active, in);
    };
  }

  // The Jacobi sweep. Every variant writes x' into the spare buffer
  // L->Ax; `r` is bound only when the sweep is asked for the residual.
  const real_t weight = plan.weight;
  if (lev.varcoef) {
    const real_t s = opts.identity_coef;
    plan.jacobi = [L, s, weight](const Box& active, bool residual,
                                 BrickedArray* coarse_b) {
      fused::jacobi_sweep_varcoef(L->Ax, residual ? &L->r : nullptr, coarse_b,
                                  L->x, L->b, L->coef, L->diag, s, L->h,
                                  weight, active);
    };
  } else if (jacobi_is_one_pass(opts, lev)) {
    const real_t gamma = -weight / lev.alpha;
    plan.jacobi = [L, gamma](const Box& active, bool residual,
                             BrickedArray* coarse_b) {
      fused::jacobi_sweep(L->Ax, residual ? &L->r : nullptr, coarse_b, L->x,
                          L->b, L->alpha, L->beta, gamma, active);
    };
  } else {
    // Two-stage body: A*x into the spare buffer through the level's
    // apply binding, then the pointwise update over it.
    const real_t gamma = -weight / lev.alpha;
    plan.jacobi = [L, gamma, apply = plan.apply](
                      const Box& active, bool residual,
                      BrickedArray* coarse_b) {
      apply(L->Ax, L->x, active);
      fused::jacobi_update(L->Ax, residual ? &L->r : nullptr, coarse_b, L->x,
                           L->b, gamma, active);
    };
  }

  plan.residual_restrict = [L](BrickedArray& coarse_b) {
    fused::residual_restrict(L->r, coarse_b, L->b, L->Ax);
  };
  plan.residual_max_norm = [L]() {
    return fused::residual_max_norm(L->r, L->b, L->Ax);
  };

  lev.plan = std::move(plan);
}

}  // namespace gmg

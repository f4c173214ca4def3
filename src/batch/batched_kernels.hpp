// The V-cycle operators on batched (multi-RHS) bricked storage —
// K-systems twins of src/gmg/operators*.{hpp,cpp} (DESIGN.md §15).
//
// Bitwise-identity contract: every kernel here evaluates, per cell and
// component, the exact expression its solo twin evaluates (identical
// tap summation order, identical patch-up structure), under the
// repo-wide -ffp-contract=off pin. Element-independent kernels are
// therefore bitwise identical to K solo runs by construction. The two
// '+'-reductions (norm2_sq, dot) gather each component's stride-K
// slice into a contiguous scratch chunk and call the SAME noinline
// per-chunk helper over the SAME chunk plan as solo, reproducing
// solo's fixed reduction tree; max_norm reduces strided directly (fp
// max is exact under any association).
#pragma once

#include "batch/batched_array.hpp"
#include "common/types.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"

namespace gmg::batch {

/// Ax = alpha*x + beta * (6-point neighbor sum), all K components,
/// over `active` (base cell coordinates throughout this header).
void apply_op(BatchedBrickedArray& Ax, const BatchedBrickedArray& x,
              real_t alpha, real_t beta, const Box& active);

/// r = b - Ax.
void residual(BatchedBrickedArray& r, const BatchedBrickedArray& b,
              const BatchedBrickedArray& Ax, const Box& active);

/// coarse = volume average of the 8 fine cells, per component. Full
/// interiors; equal base brick shapes and batch sizes.
void restriction(BatchedBrickedArray& coarse, const BatchedBrickedArray& fine);

/// The pointwise half of a two-stage Jacobi sweep, all K components —
/// the K-inner twin of gmg::fused::jacobi_update (DESIGN.md §16):
/// `x_next` holds A*x over `active` on entry and becomes
/// x + scale*(A*x - b) in place, where scale is `w` (gamma), or with
/// `diag` the per-cell -w/diag (w = the Jacobi weight omega, diag shared
/// across the batch). With `r` it also writes r = b - A*x; with
/// `coarse_b` (needs `r`) it folds the 8->1 restriction of r for every
/// interior brick of `active` into the coarse RHS, one pass per brick —
/// `active` must then cut the interior at brick boundaries. `x_next`
/// must not alias `x`: the caller swaps the two after the sweep.
void jacobi_update(BatchedBrickedArray& x_next, BatchedBrickedArray* r,
                   BatchedBrickedArray* coarse_b, const BatchedBrickedArray& x,
                   const BatchedBrickedArray& b, real_t w,
                   const BrickedArray* diag, const Box& active);

/// Fused GS descent tail: r = b - Ax over the full interior plus the
/// per-brick restriction into `coarse_b`, one pass per fine brick.
void residual_restrict(BatchedBrickedArray& r, BatchedBrickedArray& coarse_b,
                       const BatchedBrickedArray& b,
                       const BatchedBrickedArray& Ax);

/// fine += piecewise-constant coarse correction, per component.
void interpolation_increment(BatchedBrickedArray& fine,
                             const BatchedBrickedArray& coarse);

/// One red-black Gauss-Seidel half-sweep per component (constant
/// coefficients, radius 1).
void gs_color_sweep(BatchedBrickedArray& x, const BatchedBrickedArray& b,
                    real_t alpha, real_t beta, int color, Vec3 origin,
                    const Box& active);

/// Zero the entire storage, ghosts included.
void init_zero(BatchedBrickedArray& a);

/// max |a_c| over the interior, one component.
real_t max_norm(const BatchedBrickedArray& a, int c);

/// Sum of a_c(i)^2 over the interior, one component — bitwise equal to
/// gmg::norm2_sq of the solo field with the same values.
real_t norm2_sq(const BatchedBrickedArray& a, int c);

/// Local <a_c, b_c> over the interior, one component.
real_t dot_interior(const BatchedBrickedArray& a, const BatchedBrickedArray& b,
                    int c);

/// y_c += alpha * x_c over the interior (per-component, for the masked
/// bottom-CG updates).
void axpy_interior(BatchedBrickedArray& y, real_t alpha,
                   const BatchedBrickedArray& x, int c);

/// y_c = x_c + beta * y_c over the interior.
void xpay_interior(BatchedBrickedArray& y, const BatchedBrickedArray& x,
                   real_t beta, int c);

/// dst = src over the interior, all components.
void copy_interior(BatchedBrickedArray& dst, const BatchedBrickedArray& src);

/// y += alpha * x over `active`, all components (shared scalar).
void axpy(BatchedBrickedArray& y, real_t alpha, const BatchedBrickedArray& x,
          const Box& active);

/// Chebyshev direction update p = inv_diag * r + beta * p, all
/// components.
void cheby_p_update(BatchedBrickedArray& p, const BatchedBrickedArray& r,
                    real_t inv_diag, real_t beta, const Box& active);

// Variable-coefficient twins: the coefficient/diagonal fields are
// SHARED across the batch (plain solo arrays from the base hierarchy).

/// Ax = s*x + div(beta grad x), all components, beta shared.
void apply_op_varcoef(BatchedBrickedArray& Ax, const BatchedBrickedArray& x,
                      const BrickedArray& beta, real_t identity_coef, real_t h,
                      const Box& active);

void cheby_p_update_varcoef(BatchedBrickedArray& p,
                            const BatchedBrickedArray& r,
                            const BrickedArray& diag, real_t beta_ch,
                            const Box& active);

// Static effect summaries (check/effects.hpp, DESIGN.md §18). Every
// batched kernel is the K-systems twin of a solo one and applies the
// SAME expression over the same base-cell footprint (the bitwise
// contract above), so its effect summary delegates to the solo
// kernel's — per-base-cell reads and writes are identical, only the
// innermost component fold differs.

constexpr check::EffectSummary apply_op_effects(int radius) {
  return ::gmg::apply_op_effects(radius);
}
constexpr check::EffectSummary residual_effects() {
  return ::gmg::residual_effects();
}
constexpr check::EffectSummary restriction_effects() {
  return ::gmg::restriction_effects();
}
constexpr check::EffectSummary jacobi_update_effects() {
  return ::gmg::fused::jacobi_update_varcoef_effects();
}
constexpr check::EffectSummary residual_restrict_effects() {
  return ::gmg::fused::residual_restrict_effects();
}
constexpr check::EffectSummary interpolation_increment_effects() {
  return ::gmg::interpolation_increment_effects();
}
constexpr check::EffectSummary gs_color_sweep_effects() {
  return ::gmg::gs_color_sweep_effects();
}
constexpr check::EffectSummary init_zero_effects() {
  return ::gmg::init_zero_effects();
}
constexpr check::EffectSummary max_norm_effects() {
  return ::gmg::max_norm_effects();
}
constexpr check::EffectSummary norm2_sq_effects() {
  return ::gmg::norm2_sq_effects();
}
constexpr check::EffectSummary dot_interior_effects() {
  return ::gmg::dot_interior_effects();
}
constexpr check::EffectSummary axpy_interior_effects() {
  return ::gmg::axpy_interior_effects();
}
constexpr check::EffectSummary xpay_interior_effects() {
  return ::gmg::xpay_interior_effects();
}
constexpr check::EffectSummary copy_interior_effects() {
  return ::gmg::copy_interior_effects();
}
constexpr check::EffectSummary axpy_effects() {
  return ::gmg::axpy_effects();
}
constexpr check::EffectSummary cheby_p_update_effects() {
  return ::gmg::cheby_p_update_effects();
}
constexpr check::EffectSummary apply_op_varcoef_effects() {
  return ::gmg::apply_op_varcoef_effects();
}
constexpr check::EffectSummary cheby_p_update_varcoef_effects() {
  return ::gmg::cheby_p_update_varcoef_effects();
}

}  // namespace gmg::batch

// The V-cycle operators on bricked storage (paper §IV-C):
//   applyOp            Ax = A x (7-point constant-coefficient stencil)
//   smooth             x := x + gamma*(Ax - b)          (point Jacobi)
//   smooth+residual    fused smooth and r = b - Ax
//   restriction        coarse b = volume average of 8 fine residuals
//   interp+increment   fine x += piecewise-constant coarse correction
//   initZero / maxNorm
//
// Every cell-space operator takes an *active region* that may extend
// into the ghost bricks; the communication-avoiding scheduler (see
// cycle.hpp) shrinks it by one cell per sweep between exchanges.
//
// The kernels templated on the field type F are one kernel set for
// every batch width: instantiated for BrickedArray (the compile-time
// one lane, i.e. the solo code) and for BatchedBrickedArray (K lanes
// per cell, DESIGN.md §15), where they apply the solo per-element
// arithmetic to every lane. The per-component forms take the lane `c`.
#pragma once

#include "brick/batched_array.hpp"
#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "common/types.hpp"

namespace gmg {

class BrickMask;

/// Ax = alpha*x + beta * (6-point neighbor sum) over `active`.
template <class F>
void apply_op(F& Ax, const F& x, real_t alpha, real_t beta, const Box& active);

/// Masked applyOp (AMR composite levels, DESIGN.md §17): computes only
/// the bricks selected by `mask`; taps may read de-selected neighbors
/// (on a composite level those hold the restricted fine solution).
void apply_op(BrickedArray& Ax, const BrickedArray& x, real_t alpha,
              real_t beta, const Box& active, const BrickMask& mask);

/// x += gamma * (Ax - b) over `active`.
void smooth(BrickedArray& x, const BrickedArray& Ax, const BrickedArray& b,
            real_t gamma, const Box& active);

/// Fused point-Jacobi smooth and residual (r = b - Ax, using the
/// pre-smooth Ax, exactly as the paper's fused kernel does).
void smooth_residual(BrickedArray& x, BrickedArray& r, const BrickedArray& Ax,
                     const BrickedArray& b, real_t gamma, const Box& active);

/// r = b - Ax over `active`.
template <class F>
void residual(F& r, const F& b, const F& Ax, const Box& active);

/// Masked residual: r = b - Ax on the bricks selected by `mask` only.
void residual(BrickedArray& r, const BrickedArray& b, const BrickedArray& Ax,
              const Box& active, const BrickMask& mask);

/// coarse(i,j,k) = average of the 8 fine cells it covers. Operates on
/// the full interiors; the grids must satisfy fine extent == 2x coarse
/// extent and share the same (cubic, even) brick shape.
template <class F>
void restriction(F& coarse, const F& fine);

/// fine(i,j,k) += coarse(i/2, j/2, k/2) over the full fine interior.
template <class F>
void interpolation_increment(F& fine, const F& coarse);

/// Zero the entire storage (interior and ghost bricks — ghost zeros
/// are valid periodic data for a zero field, saving one exchange after
/// initZero in the downsweep).
void init_zero(BrickedArray& a);

/// max |a_c| over the subdomain interior (this rank's part of the
/// convergence norm; reduce across ranks with allreduce_max).
template <class F>
real_t max_norm(const F& a, int c = 0);

/// Sum of a_c(i)^2 over the interior (combine across ranks with
/// allreduce_sum, then sqrt, for the global L2 norm).
template <class F>
real_t norm2_sq(const F& a, int c = 0);

// ---------------------------------------------------------------------------
// BLAS-1-style kernels. The *_interior forms scan the contiguous
// interior-brick storage range (used by the conjugate-gradient bottom
// solver); the Box forms honor a communication-avoiding active region
// (used by the Chebyshev smoother).
// ---------------------------------------------------------------------------

/// Local <a_c, b_c> over the interior.
template <class F>
real_t dot_interior(const F& a, const F& b, int c = 0);

/// y_c += alpha * x_c over the interior.
template <class F>
void axpy_interior(F& y, real_t alpha, const F& x, int c = 0);

/// y_c = x_c + beta * y_c over the interior (CG direction update).
template <class F>
void xpay_interior(F& y, const F& x, real_t beta, int c = 0);

/// dst = src over the interior.
template <class F>
void copy_interior(F& dst, const F& src);

/// y += alpha * x over `active`.
template <class F>
void axpy(F& y, real_t alpha, const F& x, const Box& active);

/// Chebyshev direction update: p = inv_diag * r + beta * p over
/// `active` (the preconditioned residual folded into the recurrence).
template <class F>
void cheby_p_update(F& p, const F& r, real_t inv_diag, real_t beta,
                    const Box& active);

/// One Gauss-Seidel half-sweep over the cells of one red-black color
/// (global parity of i+j+k, so the coloring is decomposition-
/// independent): x_i = (b_i - beta * sum of 6 neighbors) / alpha.
/// `origin` is this rank's global offset (rank_box.lo) so local cells
/// map to the global checkerboard. Radius-1 operator only.
template <class F>
void gs_color_sweep(F& x, const F& b, real_t alpha, real_t beta, int color,
                    Vec3 origin, const Box& active);

/// Cell-centered trilinear prolongation (per-axis weights 3/4, 1/4) —
/// the higher-order transfer classic FMG requires for its initial
/// guesses. Reads one coarse ghost layer: exchange the coarse field
/// first.
void interpolation_trilinear_assign(BrickedArray& fine,
                                    const BrickedArray& coarse);

// ---------------------------------------------------------------------------
// Static effect summaries (check/effects.hpp, DESIGN.md §18): one
// constexpr EffectSummary per kernel above — the kernel's only
// declaration of its accesses. Its GMG_CHECK scope and its recorded
// schedule steps both derive from it (gmg_lint rule effect-scope). The
// read reaches restate the constexpr DSL footprints; static_asserts in
// operators.cpp pin the two representations to each other.
// ---------------------------------------------------------------------------

constexpr check::EffectSummary apply_op_effects(int radius) {
  return check::EffectSummary("kernel.applyOp")
      .writes("Ax")
      .reads("x", radius);
}

constexpr check::EffectSummary smooth_effects() {
  return check::EffectSummary("kernel.smooth")
      .writes("x")
      .reads("x")
      .reads("Ax")
      .reads("b");
}

constexpr check::EffectSummary smooth_residual_effects() {
  return check::EffectSummary("kernel.smoothResidual")
      .writes("x")
      .writes("r")
      .reads("x")
      .reads("Ax")
      .reads("b");
}

constexpr check::EffectSummary residual_effects() {
  return check::EffectSummary("kernel.residual")
      .writes("r")
      .reads("b")
      .reads("Ax");
}

/// Reads the 2x2x2 fine octant of every coarse cell: taps land inside
/// the fine interior whenever the coarse box does, hence reach 0.
constexpr check::EffectSummary restriction_effects() {
  return check::EffectSummary("kernel.restriction")
      .writes("coarse")
      .reads("fine");
}

constexpr check::EffectSummary interpolation_increment_effects() {
  return check::EffectSummary("kernel.interpIncrement")
      .writes("fine")
      .reads("fine")
      .reads("coarse");
}

/// Trilinear taps read one coarse ghost layer.
constexpr check::EffectSummary interpolation_trilinear_assign_effects() {
  return check::EffectSummary("kernel.interpTrilinear")
      .writes("fine")
      .reads("coarse", 1);
}

constexpr check::EffectSummary init_zero_effects() {
  return check::EffectSummary("kernel.initZero").writes("a");
}

constexpr check::EffectSummary max_norm_effects() {
  return check::EffectSummary("kernel.maxNorm").reads("a");
}

constexpr check::EffectSummary norm2_sq_effects() {
  return check::EffectSummary("kernel.norm2Sq").reads("a");
}

constexpr check::EffectSummary dot_interior_effects() {
  return check::EffectSummary("kernel.dot").reads("a").reads("b");
}

constexpr check::EffectSummary axpy_interior_effects() {
  return check::EffectSummary("kernel.axpy").writes("y").reads("y").reads("x");
}

constexpr check::EffectSummary xpay_interior_effects() {
  return check::EffectSummary("kernel.xpay").writes("y").reads("y").reads("x");
}

constexpr check::EffectSummary copy_interior_effects() {
  return check::EffectSummary("kernel.copy").writes("dst").reads("src");
}

constexpr check::EffectSummary axpy_effects() {
  return check::EffectSummary("kernel.axpyActive")
      .writes("y")
      .reads("y")
      .reads("x");
}

constexpr check::EffectSummary cheby_p_update_effects() {
  return check::EffectSummary("kernel.chebyP")
      .writes("p")
      .reads("p")
      .reads("r");
}

/// Each colored half-sweep reads the opposite color at radius 1 and
/// writes only its own parity cells.
constexpr check::EffectSummary gs_color_sweep_effects() {
  return check::EffectSummary("kernel.gsColorSweep")
      .writes("x")
      .reads("x", 1)
      .reads("b");
}

}  // namespace gmg

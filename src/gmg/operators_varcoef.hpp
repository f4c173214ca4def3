// Variable-coefficient operator support: A x = s*x + div(beta grad x)
// with a cell-centered coefficient field and arithmetic face
// averaging,
//   (A x)_i = s*x_i + (1/h^2) sum_faces 0.5*(beta_i + beta_nbr)
//                                       * (x_nbr - x_i).
// The paper's DSL explicitly supports non-constant coefficients
// (§III); these kernels are built from the same expression-template
// engine, with the coefficient bound as a second grid slot.
#pragma once

#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "common/types.hpp"
#include "dsl/stencils.hpp"

namespace gmg {

namespace vc {

// The variable-coefficient expression trees, shared by the operator
// below and the one-pass Jacobi sweep (fused_kernels.cpp): both apply
// literally the same expression object, so per-element arithmetic
// cannot drift between the two.

/// A x = s*x + (1/h^2) sum_faces 0.5*(beta_i + beta_nbr)*(x_nbr - x_i)
/// with x on slot 0, beta on slot 1, and f = 0.5/h^2.
constexpr auto apply_expr(real_t identity_coef, real_t f) {
  using namespace dsl;
  Grid<0> X;
  Grid<1> B;
  return Coef(identity_coef) * X(i, j, k) +
         Coef(f) *
             ((B(i, j, k) + B(i + 1, j, k)) * (X(i + 1, j, k) - X(i, j, k)) +
              (B(i, j, k) + B(i - 1, j, k)) * (X(i - 1, j, k) - X(i, j, k)) +
              (B(i, j, k) + B(i, j + 1, k)) * (X(i, j + 1, k) - X(i, j, k)) +
              (B(i, j, k) + B(i, j - 1, k)) * (X(i, j - 1, k) - X(i, j, k)) +
              (B(i, j, k) + B(i, j, k + 1)) * (X(i, j, k + 1) - X(i, j, k)) +
              (B(i, j, k) + B(i, j, k - 1)) * (X(i, j, k - 1) - X(i, j, k)));
}

/// diag = s - f*(6*beta_i + sum of the 6 face neighbors), beta on
/// slot 0.
constexpr auto diagonal_expr(real_t identity_coef, real_t f) {
  using namespace dsl;
  Grid<0> B;
  return Coef(identity_coef) -
         Coef(f) * (Coef(6.0) * B(i, j, k) + B(i + 1, j, k) + B(i - 1, j, k) +
                    B(i, j + 1, k) + B(i, j - 1, k) + B(i, j, k + 1) +
                    B(i, j, k - 1));
}

}  // namespace vc

/// Ax = s*x + div(beta grad x) over `active`, every lane of x and Ax
/// (F as in operators.hpp); the coefficient is one field shared by
/// every lane. Requires valid x and beta ghosts covering the active
/// region grown by one cell.
template <class F>
void apply_op_varcoef(F& Ax, const F& x, const BrickedArray& beta,
                      real_t identity_coef, real_t h, const Box& active);

/// diag(i) = s - (1/h^2) * sum_faces 0.5*(beta_i + beta_nbr) — the
/// operator diagonal, needed by the point smoothers. Same ghost
/// requirements as apply_op_varcoef.
void varcoef_diagonal(BrickedArray& diag, const BrickedArray& beta,
                      real_t identity_coef, real_t h, const Box& active);

/// Point Jacobi with a per-cell diagonal:
/// x += (-omega/diag) * (Ax - b), fused with r = b - Ax.
void smooth_residual_varcoef(BrickedArray& x, BrickedArray& r,
                             const BrickedArray& Ax, const BrickedArray& b,
                             const BrickedArray& diag, real_t omega,
                             const Box& active);

/// Unfused variant for the bottom solver.
void smooth_varcoef(BrickedArray& x, const BrickedArray& Ax,
                    const BrickedArray& b, const BrickedArray& diag,
                    real_t omega, const Box& active);

/// Chebyshev direction update with a per-cell diagonal shared by
/// every lane: p = r/diag + beta_ch * p.
template <class F>
void cheby_p_update_varcoef(F& p, const F& r, const BrickedArray& diag,
                            real_t beta_ch, const Box& active);

// Static effect summaries (check/effects.hpp, DESIGN.md §18). The
// variable-coefficient operator taps x and beta at face neighbors:
// reach 1 on both — static_asserts in operators_varcoef.cpp pin the
// reaches to the vc:: expressions' slot footprints.

constexpr check::EffectSummary apply_op_varcoef_effects() {
  return check::EffectSummary("kernel.applyOpVarCoef")
      .writes("Ax")
      .reads("x", 1)
      .reads("coef", 1);
}

constexpr check::EffectSummary varcoef_diagonal_effects() {
  return check::EffectSummary("kernel.varcoefDiagonal")
      .writes("diag")
      .reads("coef", 1);
}

constexpr check::EffectSummary smooth_residual_varcoef_effects() {
  return check::EffectSummary("kernel.smoothResidualVarCoef")
      .writes("x")
      .writes("r")
      .reads("x")
      .reads("Ax")
      .reads("b")
      .reads("diag");
}

constexpr check::EffectSummary smooth_varcoef_effects() {
  return check::EffectSummary("kernel.smoothVarCoef")
      .writes("x")
      .reads("x")
      .reads("Ax")
      .reads("b")
      .reads("diag");
}

constexpr check::EffectSummary cheby_p_update_varcoef_effects() {
  return check::EffectSummary("kernel.chebyPVarCoef")
      .writes("p")
      .reads("p")
      .reads("r")
      .reads("diag");
}

}  // namespace gmg

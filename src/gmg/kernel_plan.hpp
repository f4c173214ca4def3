// Runtime kernel specialization for the V-cycle hot path (DESIGN.md
// §16): a KernelPlan is resolved ONCE at solver setup (and again when
// set_coefficient flips a level to the variable-coefficient operator)
// and cached in the MgLevel. It records the choice for this level's
// (brick dims, const/var coefficient, smoother) configuration — the
// operator variant, which fixes the Jacobi sweep's row body, and
// whether the descent folds the restriction — so no sweep re-derives
// it. level_apply and level_jacobi dispatch on that choice for any
// field set: the solo fields of the MgLevel itself, or a batched
// solve's K-lane fields (operators.hpp), which therefore issue exactly
// the solo launches.
//
// Every Jacobi sweep goes through level_jacobi: one pass per brick
// computing A*x in registers and writing x' into a spare buffer (the
// level's Ax storage; the caller swaps x and Ax afterwards) — plus r
// and the descent restriction on the last sweep of a descent block.
//
// Folding the descent restriction into the smoother is legal only
// where the last smoother application produces the residual
// pointwise:
//   - Jacobi: the last sweep writes x', r and the coarse RHS in one
//     pass.
//   - Red-black GS: the half-sweeps update x in place, but the descent
//     tail's residual + restriction run as one pass.
//   - Chebyshev: the recurrence needs r on every sweep and updates x
//     *after* r, so the restriction stays a separate pass.
// The fused kernels replicate the split stages' per-element arithmetic
// verbatim (fused_kernels.hpp), so they give the split stages' bits.
#pragma once

#include <cstdint>
#include <type_traits>

#include "brick/batched_array.hpp"
#include "check/effects.hpp"
#include "common/types.hpp"

namespace gmg {

struct MgLevel;
struct GmgOptions;

/// A level's operator A, resolved once.
enum class OpKind : std::uint8_t {
  kStar7,    // hand-written 7-point star (apply_op)
  kStar13,   // 13-point star through the DSL engine
  kVarCoef,  // variable coefficient (apply_op_varcoef)
};

struct KernelPlan {
  /// The descent smoothing block consumes the restriction itself (every
  /// smoother but Chebyshev); otherwise the cycle runs it as its own
  /// pass.
  bool fuses_restriction = false;

  /// Jacobi damping: opts.jacobi_weight (resolved once; sweeps stop
  /// re-deriving it).
  real_t weight = 0.5;

  /// The operator, which fixes the sweep's row body.
  OpKind op = OpKind::kStar7;
  /// The variable-coefficient operator's identity term s.
  real_t identity_coef = 0;
};

/// Resolve the kernel choice and descent schedule for one level.
/// Called from GmgSolver's constructor and again from set_coefficient
/// (the varcoef flip changes the operator).
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev);

/// The effect summary of the kernel level_apply runs for level L (the
/// schedule recorders record what the plan runs).
check::EffectSummary level_apply_effects(const MgLevel& L);

/// The effect summary of the one-pass sweep level_jacobi runs for
/// level L.
check::EffectSummary level_jacobi_effects(const MgLevel& L);

/// out = A in over `active` with level L's operator, every lane.
template <BrickField F>
void level_apply(const MgLevel& L, F& out, const F& in, const Box& active);

/// One Jacobi sweep of level L over `active`: x_next = x + w(A x - b)
/// (x_next must not alias x). With `r` it also writes r = b - A x; a
/// non-null `coarse_b` (needs `r`) folds the restriction of r into it.
template <BrickField F>
void level_jacobi(const MgLevel& L, F& x_next, std::type_identity_t<F>* r,
                  std::type_identity_t<F>* coarse_b, const F& x, const F& b,
                  const Box& active);

}  // namespace gmg

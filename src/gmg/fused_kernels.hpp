// Fused multi-stage kernels for the V-cycle (DESIGN.md §16). The
// split schedule makes a separate full pass over every fine brick per
// stage — applyOp, smooth (+ residual), restriction — even though
// fine-grain blocking keeps a brick's working set resident. These
// kernels glue stages into ONE pass per brick:
//
//   * jacobi_sweep[_varcoef]: the whole Jacobi sweep. Each cell's A*x
//     is computed in a register (the split applyOp's row body and tap
//     order) and consumed at once by x' = x + gamma*(A*x - b) — plus
//     r = b - A*x, and the 8->1 restriction of r per brick, on the last
//     descent sweep. x' goes to a buffer distinct from x (the level's
//     spare, Ax's storage; the solver swaps the two after the sweep),
//     so no brick reads a neighbor value the sweep already replaced. A
//     fine sweep streams x, b and x' (plus r on the last one) instead
//     of the split pair's seven streams.
//   * jacobi_update: the pointwise half of the same sweep for the
//     operators that keep a separate A*x pass (13-point, stencilgen).
//   * smooth_residual_restrict[_varcoef]: the post-applyOp descent
//     stages in place on x — kept as the two-pass reference the sweep
//     is tested against bit for bit.
//   * residual_restrict (red-black GS tail) and residual_max_norm (the
//     convergence check).
//
// Region splitting: a sweep reads x and writes only x', r and the
// coarse RHS, so the split-phase overlap machinery runs it over the
// safe interior box and the shell boxes independently (DESIGN.md §10);
// those regions cut the interior at brick boundaries, so every interior
// brick restricts exactly once.
//
// Bitwise contract: every fused kernel replicates the split kernels'
// per-element arithmetic and summation order VERBATIM (the same 7-point
// row body and restriction octant from stencil_rows.hpp, the same DSL
// row evaluation for the variable-coefficient operator, the same
// -omega/diag factor), under the repo-wide -ffp-contract=off.
// Restriction writes stay race-free under any chunking: eight fine
// bricks write disjoint octants of one coarse brick, and each fine
// brick reads only the residual it just wrote.
#pragma once

#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "check/footprint.hpp"
#include "common/types.hpp"

namespace gmg::fused {

/// The fused descent kernel's read footprint on the fine residual,
/// derived as the union of the stages it glues together: the pointwise
/// smooth/residual stage (center tap) merged with the restriction
/// octant. Derived through the constexpr check:: machinery so a stage
/// edit that widens a footprint fails the static_asserts below, not as
/// a silent out-of-ghost read.
constexpr dsl::OffsetSet descent_footprint() {
  dsl::OffsetSet pointwise;  // smooth + residual touch only the center
  pointwise.add(dsl::Tap{0, 0, 0, 0});
  return pointwise.merged(check::restriction_shape());
}

// The union must be exactly the restriction octant (the pointwise
// center tap is one of its 8 taps) and must fit even the smallest
// supported brick: the fused pass reads no cell the split restriction
// would not.
static_assert(check::same_footprint(descent_footprint(),
                                    check::restriction_shape()),
              "fused smooth+residual+restriction footprint must equal "
              "the restriction octant");
static_assert(check::footprint_fits(descent_footprint().extents(), 2, 2, 2),
              "fused descent footprint must fit the smallest brick");

/// Setup-time guard (GmgSolver constructor, fuse_stages on): the fused
/// footprint must fit the configured brick's one-brick-deep ghost
/// capacity, and the per-brick octant restriction needs even brick
/// dims. Throws GmgError otherwise — undersized ghosts are rejected at
/// setup, not discovered as corrupt coarse RHS values.
void require_fused_fits(const BrickShape& shape);

/// One Jacobi sweep over `active` in one pass per brick: per cell,
///   ax = alpha*x + beta*(6 face neighbors);  x_next = x + gamma*(ax - b)
/// and, with `r`, r = b - ax; with `coarse_b` (needs `r`), the 8->1
/// restriction of r for every interior brick of `active`. `x_next`
/// must not alias `x` (GMG_REQUIRE: an in-place stencil update races
/// read-after-write across bricks). With `coarse_b`, `active` must cut
/// the interior only at brick boundaries.
void jacobi_sweep(BrickedArray& x_next, BrickedArray* r,
                  BrickedArray* coarse_b, const BrickedArray& x,
                  const BrickedArray& b, real_t alpha, real_t beta,
                  real_t gamma, const Box& active);

/// Variable-coefficient twin: ax = apply_op_varcoef's DSL expression,
/// x_next = x + (-omega / diag) * (ax - b).
void jacobi_sweep_varcoef(BrickedArray& x_next, BrickedArray* r,
                          BrickedArray* coarse_b, const BrickedArray& x,
                          const BrickedArray& b, const BrickedArray& coef,
                          const BrickedArray& diag, real_t identity_coef,
                          real_t h, real_t omega, const Box& active);

/// The pointwise half of a two-stage Jacobi sweep (13-point and
/// stencilgen operators): `x_next` holds A*x over `active` on entry and
/// is turned into x + gamma*(A*x - b) in place, with the same optional
/// residual and restriction as jacobi_sweep.
void jacobi_update(BrickedArray& x_next, BrickedArray* r,
                   BrickedArray* coarse_b, const BrickedArray& x,
                   const BrickedArray& b, real_t gamma, const Box& active);

/// Post-applyOp descent stages in place on x (the two-pass reference
/// the one-pass sweep is tested against): per brick of `active`,
///   r = b - Ax;  x += gamma * (Ax - b);
/// and, for interior bricks, the 8->1 full-weighted restriction of the
/// just-written r into `coarse_b`. `active` must cover the fine
/// interior. Extents/shapes as restriction().
void smooth_residual_restrict(BrickedArray& x, BrickedArray& r,
                              BrickedArray& coarse_b, const BrickedArray& Ax,
                              const BrickedArray& b, real_t gamma,
                              const Box& active);

/// Variable-coefficient twin: x += (-omega / diag) * (Ax - b).
void smooth_residual_restrict_varcoef(BrickedArray& x, BrickedArray& r,
                                      BrickedArray& coarse_b,
                                      const BrickedArray& Ax,
                                      const BrickedArray& b,
                                      const BrickedArray& diag, real_t omega,
                                      const Box& active);

/// Fused GS descent tail: r = b - Ax over the full interior plus the
/// per-brick restriction into `coarse_b`, one pass per fine brick.
void residual_restrict(BrickedArray& r, BrickedArray& coarse_b,
                       const BrickedArray& b, const BrickedArray& Ax);

/// Fused convergence check: r = b - Ax over the interior and the local
/// max|r| in the same pass. Uses the identical flat range and chunk
/// grain as the split max_norm, so the fixed reduction tree — and with
/// it the solve history — is bitwise identical to residual()+max_norm().
real_t residual_max_norm(BrickedArray& r, const BrickedArray& b,
                         const BrickedArray& Ax);

// Static effect summaries (check/effects.hpp, DESIGN.md §18): the
// fused stages' write sets are the union of the split kernels they
// replace, with `coarse` bound to the coarse-level RHS the restriction
// feeds. The schedule verifier additionally proves the per-brick chunk
// write boxes of each fused launch pairwise disjoint.

constexpr check::EffectSummary smooth_residual_restrict_effects() {
  return check::EffectSummary("kernel.fusedDescent")
      .writes("x")
      .writes("r")
      .writes("coarse")
      .reads("x")
      .reads("Ax")
      .reads("b");
}

constexpr check::EffectSummary smooth_residual_restrict_varcoef_effects() {
  return check::EffectSummary("kernel.fusedDescentVarCoef")
      .writes("x")
      .writes("r")
      .writes("coarse")
      .reads("x")
      .reads("Ax")
      .reads("b")
      .reads("diag");
}

/// The one-pass sweep reads x through the 7-point stencil and writes
/// the new iterate into `out` — a role distinct from `x`, which is what
/// lets the verifier reject a schedule binding both to one field (an
/// in-place stencil update).
constexpr check::EffectSummary jacobi_sweep_effects() {
  return check::EffectSummary("kernel.jacobiSweep")
      .writes("out")
      .writes("r")
      .writes("coarse")
      .reads("x", 1)
      .reads("b");
}

constexpr check::EffectSummary jacobi_sweep_varcoef_effects() {
  return check::EffectSummary("kernel.jacobiSweepVarCoef")
      .writes("out")
      .writes("r")
      .writes("coarse")
      .reads("x", 1)
      .reads("coef", 1)
      .reads("b")
      .reads("diag");
}

/// In place on `out` (which holds A*x on entry): pointwise, reach 0.
constexpr check::EffectSummary jacobi_update_effects() {
  return check::EffectSummary("kernel.jacobiUpdate")
      .writes("out")
      .writes("r")
      .writes("coarse")
      .reads("out")
      .reads("x")
      .reads("b");
}

/// The batched variable-coefficient twin of jacobi_update
/// (batch::jacobi_update with a diagonal): the update factor is
/// -omega/diag, read pointwise.
constexpr check::EffectSummary jacobi_update_varcoef_effects() {
  return check::EffectSummary("kernel.jacobiUpdate")
      .writes("out")
      .writes("r")
      .writes("coarse")
      .reads("out")
      .reads("x")
      .reads("b")
      .reads("diag");
}

constexpr check::EffectSummary residual_restrict_effects() {
  return check::EffectSummary("kernel.fusedGsTail")
      .writes("r")
      .writes("coarse")
      .reads("b")
      .reads("Ax");
}

constexpr check::EffectSummary residual_max_norm_effects() {
  return check::EffectSummary("kernel.fusedResidualNorm")
      .writes("r")
      .reads("b")
      .reads("Ax");
}

// The fused descent reads the residual only through the restriction
// octant it just wrote — its summary must not claim a wider reach than
// the split restriction's footprint radius.
static_assert(smooth_residual_restrict_effects().max_read_reach() == 0 &&
                  check::restriction_shape().radius() == 1,
              "fused descent reads must stay within the active box");

}  // namespace gmg::fused

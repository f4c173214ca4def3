// Runtime kernel specialization for the V-cycle hot path (DESIGN.md
// §16): a KernelPlan is resolved ONCE at solver setup (and again when
// set_coefficient flips a level to the variable-coefficient operator)
// and cached in the MgLevel. It binds the exact kernel variant for
// this level's (brick dims, const/var coefficient, smoother,
// fused-vs-split) configuration, so no sweep re-derives its kernel:
// every launch goes through a handful of pre-bound functors.
//
// Every Jacobi sweep goes through ONE binding, `jacobi`: one pass per
// brick computing A*x in registers and writing x' into the level's
// spare buffer (Ax's storage; the caller swaps x and Ax afterwards) —
// plus r on the last sweep of a residual-producing block, and the
// descent restriction when fusion is on. The 13-point and stencilgen
// operators keep a two-stage body (A*x into the spare buffer, then the
// pointwise update over it) behind the same call.
//
// The plan also carries the fusion capability predicate. Cross-stage
// fusion of the descent restriction is legal only where the last
// smoother application produces the residual pointwise:
//   - Jacobi / weighted Jacobi: fully fusible (fuse_descent).
//   - Red-black GS: the half-sweeps update x in place, but the descent
//     tail's residual + restriction still fuse (fuse_gs_tail).
//   - Chebyshev: the recurrence needs r on every sweep and updates x
//     *after* r, so the split path stays; only the residual+norm
//     fusion applies.
// Fused results are bitwise identical to the split path (the kernels
// replicate the split per-element arithmetic verbatim; see
// fused_kernels.hpp).
#pragma once

#include <functional>

#include "brick/bricked_array.hpp"
#include "common/types.hpp"

namespace gmg {

struct MgLevel;
struct GmgOptions;

struct KernelPlan {
  /// Final descent smooth+residual+restriction runs as one fused pass
  /// (Jacobi family only).
  bool fuse_descent = false;
  /// The GS descent tail's residual+restriction runs as one fused pass
  /// (the half-sweeps themselves stay split).
  bool fuse_gs_tail = false;
  /// residual_norm computes r and its max-norm in one pass (legal for
  /// every smoother: fp max is exactly associative, and the reduction
  /// reuses the split max_norm's chunk plan).
  bool fuse_norm = false;

  /// Jacobi damping: 0.5 for kPointJacobi, opts.jacobi_weight for
  /// kWeightedJacobi (resolved once; sweeps stop re-deriving it).
  real_t weight = 0.5;

  /// Whether the descent smoothing block consumes the restriction
  /// itself (the cycle skips the separate restriction pass).
  bool fuses_restriction() const { return fuse_descent || fuse_gs_tail; }

  // Pre-bound kernel functors. Each captures the MgLevel POINTER plus
  // scalar coefficients by value — the field BrickedArrays are
  // reassigned by detach/attach_field_storage and swapped by every
  // Jacobi sweep, so the bindings must dereference through the level at
  // call time.
  /// out = A in over `active` (varcoef / generated / radius-specific
  /// variant chosen at resolve time).
  std::function<void(BrickedArray& out, const BrickedArray& in,
                     const Box& active)>
      apply;
  /// One Jacobi sweep over `active`: x' = x + w(Ax - b) into the spare
  /// buffer lev.Ax, read from lev.x. With `residual` it also writes
  /// lev.r = b - Ax; a non-null `coarse_b` (needs `residual`) folds the
  /// restriction of r into it. The caller swaps lev.x and lev.Ax once
  /// every region of the sweep has run.
  std::function<void(const Box& active, bool residual,
                     BrickedArray* coarse_b)>
      jacobi;
  /// Fused GS tail: r = b - Ax + restriction, one pass per fine brick.
  std::function<void(BrickedArray& coarse_b)> residual_restrict;
  /// Fused convergence check: r = b - Ax and local max|r| in one pass.
  std::function<real_t()> residual_max_norm;
};

/// Whether `jacobi` runs as one pass per brick (the 7-point operators,
/// constant and variable coefficient) or as the two-stage body (apply
/// into the spare buffer, then fused::jacobi_update over it). The
/// schedule recording records whichever the binding issues.
bool jacobi_is_one_pass(const GmgOptions& opts, const MgLevel& lev);

/// Resolve the kernel bindings and fusion predicate for one level.
/// Called from GmgSolver's constructor and again from set_coefficient
/// (the varcoef flip invalidates the const-coefficient bindings).
void resolve_level_kernels(const GmgOptions& opts, MgLevel& lev);

}  // namespace gmg

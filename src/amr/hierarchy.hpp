// Patch-based locally refined brick hierarchies (DESIGN.md §17).
//
// An AmrHierarchy is a uniform coarse GmgSolver hierarchy plus one
// refined patch: a brick-aligned rectangular region of the finest
// solver level overlaid with 2x-finer bricks. The patch is decomposed
// by the same rank grid as its parent level — each rank owns the
// intersection of the global fine patch box with its refined
// subdomain — and its per-rank part is a synthetic MgLevel whose
// kernels come from the same resolve_level_kernels specializer the
// solver uses, so fusion-era kernel bindings, the constexpr footprint
// verifier, and the GMG_CHECK shadow tracker all apply unchanged.
//
// The covered/uncovered split of the coarse level is expressed as
// BrickMasks threaded into the memoized BrickGrid::iteration_plan:
// composite-operator kernels on the coarse level iterate only the
// bricks their mask admits, reusing the BrickPlanItem machinery and
// the compile-time full-brick bounds.
#pragma once

#include <functional>
#include <memory>

#include "amr/interface_kernels.hpp"
#include "brick/brick_mask.hpp"
#include "comm/exchange.hpp"
#include "gmg/solver.hpp"

namespace gmg::amr {

struct AmrOptions {
  /// Coarse-hierarchy configuration; defines the composite coarse
  /// grid, the operator (identity_coef/laplacian_coef), the smoother
  /// family, and the V-cycle below the patch. Requires
  /// operator_radius == 1 (the reflux stencil is the 7-point flux
  /// form) and a pointwise Jacobi-family smoother on the patch.
  GmgOptions gmg;
  /// The region to refine, as a global COARSE-cell box. Must be
  /// brick-aligned, strictly interior to the domain, and every face
  /// plane must lie strictly inside a rank of the decomposition.
  Box patch;
  /// Patch smoothing sweeps per composite cycle.
  int patch_smooths = 6;
  /// Coarse V-cycles per composite correction solve. Fixed count, so
  /// the collective schedule is identical on every rank.
  int correction_vcycles = 2;
  /// Composite solve: stop when the composite residual max-norm drops
  /// below tolerance * (initial residual norm).
  real_t tolerance = 1e-9;
  int max_cycles = 60;
};

class AmrHierarchy {
 public:
  AmrHierarchy(const AmrOptions& opts, const CartDecomp& decomp, int rank);

  /// Evaluate f at cell centers of both composite levels: the coarse
  /// RHS everywhere at coarse centers, the patch RHS at fine centers.
  /// Resets xH and the patch solution to zero.
  void set_rhs(const std::function<real_t(real_t, real_t, real_t)>& f);

  const AmrOptions& options() const { return opts_; }
  GmgSolver& solver() { return solver_; }
  const GmgSolver& solver() const { return solver_; }

  /// Whether this rank owns any patch bricks.
  bool has_part() const { return !geom_.part_fine.empty(); }
  /// The per-rank patch part as a synthetic MgLevel (kernels resolved,
  /// no exchange engine — PatchExchange handles patch ghosts).
  MgLevel& patch() { return patch_; }
  const MgLevel& patch() const { return patch_; }
  const InterfaceGeometry& geometry() const { return geom_; }
  comm::PatchExchange& patch_exchange() { return *pexch_; }

  /// Composite coarse fields, owned here (distinct from the solver's
  /// per-vcycle fields, which the correction solve scribbles on):
  /// the composite solution, RHS, and residual on the coarse grid.
  BrickedArray& xH() { return xH_; }
  BrickedArray& bH() { return bH_; }
  BrickedArray& rH() { return rH_; }
  BrickedArray& AxH() { return AxH_; }

  /// Level masks over the finest solver grid: bricks wholly inside
  /// the patch (covered) and the complement (uncovered).
  const BrickMask& covered() const { return *covered_; }
  const BrickMask& uncovered() const { return *uncovered_; }

 private:
  AmrOptions opts_;
  CartDecomp decomp_;
  int rank_ = 0;
  GmgSolver solver_;
  InterfaceGeometry geom_;
  std::unique_ptr<BrickMask> covered_;
  std::unique_ptr<BrickMask> uncovered_;
  BrickedArray xH_, bH_, rH_, AxH_;
  MgLevel patch_;
  std::unique_ptr<comm::PatchExchange> pexch_;
};

}  // namespace gmg::amr

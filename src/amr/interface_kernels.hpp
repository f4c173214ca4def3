// Coarse–fine interface kernels for patch-based refinement
// (DESIGN.md §17): ghost prolongation into patch boundary bricks,
// flux refluxing back onto the coarse composite level, and the
// covered-region transfer operators. All kernels are rank-local —
// the hierarchy geometry guarantees every patch face lies strictly
// inside one rank — and bitwise deterministic for any worker count
// (deterministic chunk plans, disjoint single-writer cells).
#pragma once

#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "common/types.hpp"
#include "mesh/box.hpp"

namespace gmg::amr {

/// Rank-local geometry bundle threaded through the interface kernels.
/// Patch fields are indexed in part-local fine cells (0-origin at
/// `part_fine.lo`), coarse fields in rank-local coarse cells
/// (0-origin at `rank_coarse.lo`); all three boxes are global.
struct InterfaceGeometry {
  Box patch_fine;   // the whole patch, global fine cells
  Box part_fine;    // this rank's part of it, global fine cells
  Box rank_coarse;  // this rank's subdomain, global coarse cells
};

/// Fill the one-fine-cell ghost layer of the patch field `px` on every
/// patch-boundary face of the part with the cell-centered trilinear
/// prolongation of the coarse solution `xH` (the DSL expression
/// dsl::cf_interface_prolongation; footprint
/// check::amr_interface_prolongation_shape). Faces interior to the
/// patch are skipped — PatchExchange fills those from the neighboring
/// part. Requires valid coarse ghosts on `xH` (taps cross the rank
/// boundary where a patch face runs along one).
void prolong_interface_ghosts(BrickedArray& px, const BrickedArray& xH,
                              const InterfaceGeometry& g);

/// Flux refluxing (DESIGN.md §17): at every coarse interface cell c
/// (just outside the patch, face-adjacent to a covered cell d) replace
/// the coarse face flux in the already-computed residual rH by the
/// area-averaged fine flux across the same physical face:
///
///   rH(c) += beta_H * ((u_d - u_c) - 0.5 * sum_{2x2}(u_f - u_g))
///
/// where u_f is the first fine cell inside the patch and u_g the
/// prolonged fine ghost straddling the face (footprints
/// check::reflux_coarse_shape / check::reflux_fine_shape). Requires
/// prolonged interface ghosts on `px` consistent with `xH`.
void reflux_residual(BrickedArray& rH, const BrickedArray& xH,
                     const BrickedArray& px, const InterfaceGeometry& g,
                     real_t beta_h);

/// coarse(c) = 1/8 sum of the 2x2x2 fine cells covering c, over the
/// covered region of this rank only (check::restriction_shape). Used
/// both to slave the covered coarse solution to the patch and to
/// inject the patch residual into the composite residual.
void restrict_patch(BrickedArray& coarse, const BrickedArray& fine,
                    const InterfaceGeometry& g);

/// patch(f) += coarse(parent(f)) over the whole part — the
/// piecewise-constant prolongation of a coarse correction
/// (check::interpolation_pc_shape; exactly inverted by restrict_patch
/// on constants, so the covered coarse solution stays slaved).
void correct_patch(BrickedArray& px, const BrickedArray& e,
                   const InterfaceGeometry& g);

// Static effect summaries (check/effects.hpp, DESIGN.md §18). Roles:
// `patch_x` is the fine patch field, `xH`/`rH` the composite coarse
// fields. Reaches restate the interface footprints of
// check/footprint.hpp; static_asserts in interface_kernels.cpp pin them.

/// Writes the one-cell interface ghost layer of the patch (the
/// recorded access box carries the ghost spill); trilinear coarse taps
/// reach one coarse ghost layer.
constexpr check::EffectSummary prolong_interface_ghosts_effects() {
  return check::EffectSummary("amr.prolongGhosts")
      .writes("patch_x")
      .reads("xH", 1);
}

/// Coarse-side taps reach the face-adjacent covered neighbor (radius
/// 1); fine-side taps read the patch's first interior cells and its
/// prolonged interface ghosts (radius 1 on the patch level).
constexpr check::EffectSummary reflux_residual_effects() {
  return check::EffectSummary("amr.reflux")
      .writes("rH")
      .reads("rH")
      .reads("xH", 1)
      .reads("patch_x", 1);
}

constexpr check::EffectSummary restrict_patch_effects() {
  return check::EffectSummary("amr.restrictPatch")
      .writes("coarse")
      .reads("fine");
}

constexpr check::EffectSummary correct_patch_effects() {
  return check::EffectSummary("amr.correctPatch")
      .writes("patch_x")
      .reads("patch_x")
      .reads("coarse");
}

}  // namespace gmg::amr

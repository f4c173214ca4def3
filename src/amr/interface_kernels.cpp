#include "amr/interface_kernels.hpp"

#include <array>
#include <span>

#include "brick/brick_grid.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "common/error.hpp"
#include "dsl/stencils.hpp"
#include "exec/runtime.hpp"
#include "trace/trace.hpp"

namespace gmg::amr {

namespace {

// ---------------------------------------------------------------------------
// Constexpr footprint verification (check:: layer 1). The interface
// prolongation is the DSL expression dsl::cf_interface_prolongation,
// evaluated per parity below; the union of its eight parity footprints
// must be the declared interface-prolongation shape, and each parity
// reads exactly its 8 coarse taps within reach 1. The reflux footprints
// are declared per axis; the hand-scheduled kernel below must stay
// inside them (reach 1 on both grids).
// ---------------------------------------------------------------------------

constexpr dsl::OffsetSet cf_parity_union() {
  dsl::OffsetSet s;
  for (int sx = -1; sx <= 1; sx += 2) {
    for (int sy = -1; sy <= 1; sy += 2) {
      for (int sz = -1; sz <= 1; sz += 2) {
        s = s.merged(dsl::cf_interface_prolongation(sx, sy, sz).offsets());
      }
    }
  }
  return s;
}

static_assert(check::same_footprint(cf_parity_union(),
                                    check::amr_interface_prolongation_shape()),
              "interface prolongation parities must union to the declared "
              "radius-1 box footprint");
static_assert(dsl::cf_interface_prolongation(1, 1, 1).offsets().num_taps() == 8,
              "one parity of the interface prolongation reads 8 coarse cells");
static_assert(dsl::cf_interface_prolongation(-1, -1, -1).offsets().radius() ==
                  1,
              "interface prolongation reach is one coarse cell");
static_assert(check::reflux_fine_shape(0).num_taps() == 8 &&
                  check::reflux_fine_shape(1).num_taps() == 8 &&
                  check::reflux_fine_shape(2).num_taps() == 8,
              "reflux reads the 2x2 fine pair layer on each side of a face");
static_assert(check::reflux_fine_shape(0).radius() == 1 &&
                  check::reflux_coarse_shape().radius() == 1,
              "reflux reach is one cell on both grids");
// The summaries' reaches (interface_kernels.hpp) restate those
// footprints; pin them, since GMG_CHECK and the schedule proof both
// derive what these kernels read from the summaries alone.
static_assert(prolong_interface_ghosts_effects().read_reach("xH") ==
                  check::amr_interface_prolongation_shape().radius(),
              "interface prolongation reach must be its footprint's");
static_assert(reflux_residual_effects().read_reach("xH") ==
                      check::reflux_coarse_shape().radius() &&
                  reflux_residual_effects().read_reach("patch_x") ==
                      check::reflux_fine_shape(0).radius(),
              "reflux reaches must be its coarse and fine footprints'");

/// Element accessor over a BrickedArray for DSL expression evaluation;
/// ghost coordinates resolve through the grid's adjacency like any
/// element access.
struct FieldAccessor {
  const BrickedArray* f;
  template <int Slot>
  real_t load(index_t i, index_t j, index_t k) const {
    return (*f)(i, j, k);
  }
};

/// Deterministic parallel sweep over the rows (fixed j,k) of `box`,
/// calling fn(i_range...) cell by cell: fn(i, j, k). The chunk plan
/// depends only on the row count, and every cell has one writer, so
/// results are bitwise identical for any worker count.
template <typename Fn>
void sweep_rows(const char* name, const Box& box, Fn&& fn) {
  if (box.empty()) return;
  const Vec3 e = box.extent();
  const index_t rows = e.y * e.z;
  const std::int64_t grain =
      std::max<std::int64_t>(1, exec::kElementGrain / std::max<index_t>(1, e.x));
  exec::parallel_for(name, rows, grain, [&](std::int64_t rb, std::int64_t re) {
    for (std::int64_t row = rb; row < re; ++row) {
      const index_t j = box.lo.y + row % e.y;
      const index_t k = box.lo.z + row / e.y;
      for (index_t i = box.lo.x; i < box.hi.x; ++i) fn(i, j, k);
    }
  });
}

/// Coarse-cell cover of a fine-cell box (2x refinement).
Box coarse_cover(const Box& fine) {
  if (fine.empty()) return Box{};
  return Box{{floor_div(fine.lo.x, 2), floor_div(fine.lo.y, 2),
              floor_div(fine.lo.z, 2)},
             {floor_div(fine.hi.x - 1, 2) + 1, floor_div(fine.hi.y - 1, 2) + 1,
              floor_div(fine.hi.z - 1, 2) + 1}};
}

/// One coarse interface face of the patch: the outside cell layer, the
/// covered neighbor offset, and the fine interface layers.
struct InterfaceFace {
  int axis = 0;
  Box cells;            // global coarse interface cells (outside patch)
  index_t d_step = 0;   // c + d_step*e_axis = covered neighbor d
  index_t fine_in = 0;  // global fine coord along axis: first cell inside
  index_t fine_g = 0;   // global fine coord along axis: prolonged ghost
};

/// The (up to 6) interface faces of the patch clipped to this rank.
/// Empty when the rank's subdomain does not touch the interface.
std::vector<InterfaceFace> interface_faces(const InterfaceGeometry& g) {
  const Box pc = coarsen(g.patch_fine, 2);
  std::vector<InterfaceFace> faces;
  for (int axis = 0; axis < 3; ++axis) {
    for (int side = -1; side <= 1; side += 2) {
      InterfaceFace f;
      f.axis = axis;
      Box cells = pc;
      if (side < 0) {
        cells.lo[axis] = pc.lo[axis] - 1;
        cells.hi[axis] = pc.lo[axis];
        f.d_step = 1;
        f.fine_in = 2 * pc.lo[axis];
        f.fine_g = f.fine_in - 1;
      } else {
        cells.lo[axis] = pc.hi[axis];
        cells.hi[axis] = pc.hi[axis] + 1;
        f.d_step = -1;
        f.fine_in = 2 * pc.hi[axis] - 1;
        f.fine_g = f.fine_in + 1;
      }
      f.cells = intersect(cells, g.rank_coarse);
      if (!f.cells.empty()) faces.push_back(f);
    }
  }
  return faces;
}

}  // namespace

void prolong_interface_ghosts(BrickedArray& px, const BrickedArray& xH,
                              const InterfaceGeometry& g) {
  trace::TraceSpan span("amr.prolongGhosts");
  const Vec3 fine_lo = g.part_fine.lo;
  const Vec3 coarse_lo = g.rank_coarse.lo;
  const FieldAccessor acc{&xH};

  for (int dir = 0; dir < kNumDirections; ++dir) {
    const Vec3 off = direction_offset(dir);
    const int nz = (off.x != 0) + (off.y != 0) + (off.z != 0);
    if (nz != 1) continue;  // faces only: radius-1 taps skip edges/corners
    const Box ghost_global = ghost_region(g.part_fine, dir, 1);
    if (!intersect(ghost_global, g.patch_fine).empty()) {
      continue;  // interior face: PatchExchange fills these ghosts
    }
    // Local (part-relative) write box and the parent cells it reads
    // (the summary's reach adds the far trilinear taps).
    const auto scope = check::scope(
        prolong_interface_ghosts_effects(),
        shift(ghost_global, Vec3{} - fine_lo),
        {check::bind("patch_x", px),
         check::bind("xH", xH,
                     shift(coarse_cover(ghost_global), Vec3{} - coarse_lo))});
    sweep_rows("amr.prolongGhosts", ghost_global,
               [&](index_t gi, index_t gj, index_t gk) {
                 const index_t ci = floor_div(gi, 2), cj = floor_div(gj, 2),
                               ck = floor_div(gk, 2);
                 const int sx = floor_mod(gi, 2) == 0 ? -1 : 1;
                 const int sy = floor_mod(gj, 2) == 0 ? -1 : 1;
                 const int sz = floor_mod(gk, 2) == 0 ? -1 : 1;
                 const auto expr = dsl::cf_interface_prolongation(sx, sy, sz);
                 px(gi - fine_lo.x, gj - fine_lo.y, gk - fine_lo.z) = expr.eval(
                     acc, ci - coarse_lo.x, cj - coarse_lo.y, ck - coarse_lo.z);
               });
  }
}

void reflux_residual(BrickedArray& rH, const BrickedArray& xH,
                     const BrickedArray& px, const InterfaceGeometry& g,
                     real_t beta_h) {
  trace::TraceSpan span("amr.reflux");
  const auto faces = interface_faces(g);
  if (faces.empty()) return;
  const Vec3 fine_lo = g.part_fine.lo;
  const Vec3 coarse_lo = g.rank_coarse.lo;

  // One binding per face and role, each with the face's own box: the
  // interface cell layer on the coarse fields (the reach adds the
  // covered neighbor d) and the first fine layer inside the patch on
  // the patch field (the reach adds the prolonged ghost across the
  // face). No launch box is left for a binding to inherit.
  std::array<check::FieldBinding, 3 * 6> binds;
  std::size_t n = 0;
  for (const InterfaceFace& f : faces) {
    const Box face_local = shift(f.cells, Vec3{} - coarse_lo);
    Box fine_layer = refine(f.cells, 2);
    fine_layer.lo[f.axis] = f.fine_in;
    fine_layer.hi[f.axis] = f.fine_in + 1;
    binds[n++] = check::bind("rH", rH, face_local);
    binds[n++] = check::bind("xH", xH, face_local);
    binds[n++] =
        check::bind("patch_x", px, shift(fine_layer, Vec3{} - fine_lo));
  }
  const auto scope = check::scope(reflux_residual_effects(), Box{},
                                  std::span(binds.data(), n));

  for (const InterfaceFace& f : faces) {
    const int a = f.axis, t1 = (a + 1) % 3, t2 = (a + 2) % 3;
    sweep_rows("amr.reflux", f.cells, [&](index_t i, index_t j, index_t k) {
      const Vec3 c{i, j, k};
      Vec3 d = c;
      d[a] += f.d_step;
      const real_t u_c = xH(c.x - coarse_lo.x, c.y - coarse_lo.y,
                            c.z - coarse_lo.z);
      const real_t u_d = xH(d.x - coarse_lo.x, d.y - coarse_lo.y,
                            d.z - coarse_lo.z);
      real_t pair_sum = 0;
      for (index_t dt1 = 0; dt1 <= 1; ++dt1) {
        for (index_t dt2 = 0; dt2 <= 1; ++dt2) {
          Vec3 fin, fg;
          fin[a] = f.fine_in;
          fg[a] = f.fine_g;
          fin[t1] = fg[t1] = 2 * c[t1] + dt1;
          fin[t2] = fg[t2] = 2 * c[t2] + dt2;
          const real_t u_f = px(fin.x - fine_lo.x, fin.y - fine_lo.y,
                                fin.z - fine_lo.z);
          const real_t u_g = px(fg.x - fine_lo.x, fg.y - fine_lo.y,
                                fg.z - fine_lo.z);
          pair_sum += u_f - u_g;
        }
      }
      rH(c.x - coarse_lo.x, c.y - coarse_lo.y, c.z - coarse_lo.z) +=
          beta_h * ((u_d - u_c) - real_t{0.5} * pair_sum);
    });
  }
}

void restrict_patch(BrickedArray& coarse, const BrickedArray& fine,
                    const InterfaceGeometry& g) {
  trace::TraceSpan span("amr.restrictPatch");
  const Box covered =
      intersect(coarsen(g.patch_fine, 2), g.rank_coarse);
  if (covered.empty()) return;
  const Vec3 fine_lo = g.part_fine.lo;
  const Vec3 coarse_lo = g.rank_coarse.lo;
  const Box covered_local = shift(covered, Vec3{} - coarse_lo);
  const auto scope = check::scope(
      restrict_patch_effects(), covered_local,
      {check::bind("coarse", coarse),
       check::bind("fine", fine, shift(refine(covered, 2), Vec3{} - fine_lo))});
  sweep_rows("amr.restrictPatch", covered,
             [&](index_t ci, index_t cj, index_t ck) {
               const index_t fi = 2 * ci - fine_lo.x;
               const index_t fj = 2 * cj - fine_lo.y;
               const index_t fk = 2 * ck - fine_lo.z;
               // Pairwise tree: on 8 equal summands every intermediate
               // doubles exactly, so R∘P_pc is the identity bitwise —
               // the covered coarse solution stays slaved with no
               // rounding drift across correction round-trips.
               const real_t s =
                   ((fine(fi, fj, fk) + fine(fi + 1, fj, fk)) +
                    (fine(fi, fj + 1, fk) + fine(fi + 1, fj + 1, fk))) +
                   ((fine(fi, fj, fk + 1) + fine(fi + 1, fj, fk + 1)) +
                    (fine(fi, fj + 1, fk + 1) +
                     fine(fi + 1, fj + 1, fk + 1)));
               coarse(ci - coarse_lo.x, cj - coarse_lo.y, ck - coarse_lo.z) =
                   real_t{0.125} * s;
             });
}

void correct_patch(BrickedArray& px, const BrickedArray& e,
                   const InterfaceGeometry& g) {
  trace::TraceSpan span("amr.correctPatch");
  if (g.part_fine.empty()) return;
  const Vec3 fine_lo = g.part_fine.lo;
  const Vec3 coarse_lo = g.rank_coarse.lo;
  const Box part_local = Box::from_extent(g.part_fine.extent());
  const Box covered_local =
      shift(coarse_cover(g.part_fine), Vec3{} - coarse_lo);
  const auto scope =
      check::scope(correct_patch_effects(), part_local,
                   {check::bind("patch_x", px),
                    check::bind("coarse", e, covered_local)});
  sweep_rows("amr.correctPatch", g.part_fine,
             [&](index_t gi, index_t gj, index_t gk) {
               px(gi - fine_lo.x, gj - fine_lo.y, gk - fine_lo.z) +=
                   e(floor_div(gi, 2) - coarse_lo.x,
                     floor_div(gj, 2) - coarse_lo.y,
                     floor_div(gk, 2) - coarse_lo.z);
             });
}

}  // namespace gmg::amr

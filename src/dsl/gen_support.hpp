// Runtime support for kernels emitted by tools/stencilgen — the
// reproduction's analogue of BrickLib's vector code generator
// (paper §III). Generated kernels iterate brick-by-brick; this header
// supplies the brick/row/element resolution they lean on, so the
// emitted code is just the unrolled, coefficient-factored loop body.
#pragma once

#include "brick/brick_plan.hpp"
#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"

namespace gmg::dsl::gen {

/// Per-brick context handed to generated loop bodies: resolves
/// neighbor-brick row pointers and single out-of-brick elements
/// through the adjacency table.
template <typename BD>
struct BrickCtx {
  const real_t* in_base = nullptr;      // input field storage
  const std::int32_t* adj = nullptr;    // 27-entry adjacency of brick

  const real_t* brick(int sx, int sy, int sz) const {
    const std::int32_t b = adj[direction_index(sx, sy, sz)];
    GMG_ASSERT(b >= 0);
    return in_base + static_cast<std::size_t>(b) * BD::volume;
  }

  /// Pointer to the row holding taps at plane offset (dy, dz) from
  /// local row (lj, lk); |dy|,|dz| <= brick dims.
  const real_t* row(index_t lj, index_t lk, int dy, int dz) const {
    index_t j = lj + dy, k = lk + dz;
    const int sy = j < 0 ? -1 : (j >= BD::by ? 1 : 0);
    const int sz = k < 0 ? -1 : (k >= BD::bz ? 1 : 0);
    j -= sy * BD::by;
    k -= sz * BD::bz;
    return brick(0, sy, sz) + (k * BD::by + j) * BD::bx;
  }

  /// Single element at tap (dx, dy, dz) from local cell (li, lj, lk),
  /// resolving all three axes (used for the x-boundary patch cells).
  real_t at(index_t li, index_t lj, index_t lk, int dx, int dy,
            int dz) const {
    index_t i = li + dx, j = lj + dy, k = lk + dz;
    const int sx = i < 0 ? -1 : (i >= BD::bx ? 1 : 0);
    const int sy = j < 0 ? -1 : (j >= BD::by ? 1 : 0);
    const int sz = k < 0 ? -1 : (k >= BD::bz ? 1 : 0);
    i -= sx * BD::bx;
    j -= sy * BD::by;
    k -= sz * BD::bz;
    return brick(sx, sy, sz)[(k * BD::by + j) * BD::bx + i];
  }
};

/// The tap-reach check shared by all generated kernels: every tap of
/// the outermost active cells must land in an existing brick.
template <typename BD>
void require_tap_reach(const BrickGrid& grid, const Box& active, int radius) {
  const Box tap_region{
      {floor_div(active.lo.x - radius, BD::bx),
       floor_div(active.lo.y - radius, BD::by),
       floor_div(active.lo.z - radius, BD::bz)},
      {floor_div(active.hi.x - 1 + radius, BD::bx) + 1,
       floor_div(active.hi.y - 1 + radius, BD::by) + 1,
       floor_div(active.hi.z - 1 + radius, BD::bz) + 1}};
  GMG_REQUIRE(grid.extended_box().covers(tap_region),
              "stencil taps reach beyond the ghost bricks");
}

/// Run a generated per-brick body over the grid's cached iteration
/// plan on the kernel runtime. `body(item, is_full)` is invoked for
/// every brick covering `active` (is_full as in for_each_plan_brick).
template <typename BD, typename Fn>
void run_plan(const BrickGrid& grid, const Box& active, int radius,
              const char* name, Fn&& body) {
  require_tap_reach<BD>(grid, active, radius);
  const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  for_each_plan_brick<BD>(name, *plan, body);
}

/// As above, for a kernel writing `out` from the stencil taps of `in`,
/// described by its emitted `<name>_effects()` summary. The summary
/// names the launch; its read reach is the stencil radius the tap-reach
/// and footprint-vs-ghost-depth checks use; and it opens the GMG_CHECK
/// scope, with `out` bound to the written role and `in` to the read
/// one. stencilgen emits calls to this overload.
template <typename BD, typename Fn>
void run_plan(BrickedArray& out, const BrickedArray& in, const Box& active,
              const check::EffectSummary& effects, Fn&& body) {
  const int radius = effects.read_reach("x");
  {
    Extents ext;
    for (int d = 0; d < 3; ++d) {
      ext.lo[d] = -radius;
      ext.hi[d] = radius;
    }
    check::require_footprint_fits(effects.kernel, ext,
                                  BrickShape{BD::bx, BD::by, BD::bz});
  }
  const auto scope = check::scope(
      effects, active, {check::bind("Ax", out), check::bind("x", in)});
  run_plan<BD>(out.grid(), active, radius, effects.kernel, body);
}

}  // namespace gmg::dsl::gen

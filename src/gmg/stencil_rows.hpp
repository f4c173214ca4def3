// Per-brick building blocks shared by the split operators
// (operators.cpp) and the fused passes (fused_kernels.cpp): the
// 7-point row body and the per-brick 8->1 restriction. One definition
// of each, so the one-pass Jacobi sweep and the two-pass reference it
// replaces apply literally the same per-element arithmetic (DESIGN.md
// §16) — the bitwise contract holds by construction, not by keeping
// two copies in step.
#pragma once

#include <algorithm>

#include "brick/brick_plan.hpp"
#include "brick/bricked_array.hpp"
#include "common/types.hpp"

namespace gmg::detail {

/// The brick-coordinate cover of the taps of `active` at stencil
/// `radius` must lie within the grid (the active region grown by the
/// radius, in bricks).
template <typename BD>
void require_taps_in_grid(BD, const BrickGrid& grid, const Box& active,
                          index_t radius) {
  const Box tap_region{{floor_div(active.lo.x - radius, BD::bx),
                        floor_div(active.lo.y - radius, BD::by),
                        floor_div(active.lo.z - radius, BD::bz)},
                       {floor_div(active.hi.x - 1 + radius, BD::bx) + 1,
                        floor_div(active.hi.y - 1 + radius, BD::by) + 1,
                        floor_div(active.hi.z - 1 + radius, BD::bz) + 1}};
  GMG_REQUIRE(grid.extended_box().covers(tap_region),
              "stencil taps reach beyond the ghost bricks");
}

/// ax = alpha*x + beta*(6 face neighbors) for li in [ilo, ihi) of row
/// (lj, lk) of plan brick `it`, handed to `emit(li, ax)` — the code
/// BrickLib's vector code generator would emit for Fig. 1's DSL input.
/// The six neighbor rows resolve to direct pointers once (crossing into
/// adjacent bricks where needed); the row body is then a pure
/// unit-stride SIMD loop with scalar patch-ups only at the two
/// x-boundary cells. kFull instantiates whole-row bounds as
/// compile-time constants. applyOp's `emit` stores ax; the one-pass
/// Jacobi sweep's consumes it in registers.
template <typename BD, bool kFull, typename Emit>
inline void star7_row(const BrickPlanItem& it, const real_t* __restrict xp,
                      index_t lj, index_t lk, index_t ilo, index_t ihi,
                      real_t alpha, real_t beta, Emit&& emit) {
  constexpr index_t kRow = BD::bx;
  constexpr index_t kPlane = BD::bx * BD::by;
  const auto brick_of = [&](int dx, int dy, int dz) {
    const std::int32_t b = it.adj[direction_index(dx, dy, dz)];
    GMG_ASSERT(b >= 0);
    return xp + static_cast<std::size_t>(b) * BD::volume;
  };
  const auto row_at = [](const real_t* brick, index_t j, index_t k) {
    return brick + k * kPlane + j * kRow;
  };
  const real_t* __restrict xb =
      xp + static_cast<std::size_t>(it.id) * BD::volume;
  const real_t* __restrict xr = row_at(xb, lj, lk);
  const real_t* __restrict ym = lj > 0
                                    ? row_at(xb, lj - 1, lk)
                                    : row_at(brick_of(0, -1, 0), BD::by - 1, lk);
  const real_t* __restrict yp = lj < BD::by - 1
                                    ? row_at(xb, lj + 1, lk)
                                    : row_at(brick_of(0, 1, 0), 0, lk);
  const real_t* __restrict zm = lk > 0
                                    ? row_at(xb, lj, lk - 1)
                                    : row_at(brick_of(0, 0, -1), lj, BD::bz - 1);
  const real_t* __restrict zp = lk < BD::bz - 1
                                    ? row_at(xb, lj, lk + 1)
                                    : row_at(brick_of(0, 0, 1), lj, 0);

  // One SIMD core over [max(ilo,1), min(ihi,B-1)) plus scalar patch-ups
  // at the two x-boundary cells. The tap summation order (xm + xp + ym
  // + yp + zm + zp) is IDENTICAL between core and patches so that cells
  // computed redundantly in ghost bricks (communication-avoiding
  // sweeps) are bitwise equal to the owning rank's interior
  // computation.
  const index_t core_lo = kFull ? 1 : std::max<index_t>(ilo, 1);
  const index_t core_hi =
      kFull ? BD::bx - 1 : std::min<index_t>(ihi, BD::bx - 1);
#pragma omp simd
  for (index_t li = core_lo; li < core_hi; ++li) {
    emit(li, alpha * xr[li] + beta * (xr[li - 1] + xr[li + 1] + ym[li] +
                                      yp[li] + zm[li] + zp[li]));
  }
  if (kFull || ilo == 0) {
    const real_t xm = row_at(brick_of(-1, 0, 0), lj, lk)[BD::bx - 1];
    emit(index_t{0}, alpha * xr[0] + beta * (xm + xr[1] + ym[0] + yp[0] +
                                             zm[0] + zp[0]));
  }
  if (kFull || ihi == BD::bx) {
    constexpr index_t e = BD::bx - 1;
    const real_t xpv = row_at(brick_of(1, 0, 0), lj, lk)[0];
    emit(e, alpha * xr[e] + beta * (xr[e - 1] + xpv + ym[e] + yp[e] +
                                    zm[e] + zp[e]));
  }
}

/// 8->1 full weighting of ONE fine brick into its coarse octant: 0.125
/// times the 8-term sum, in a fixed order. `bc` is the fine brick's
/// grid coordinate and `fb` its storage; eight fine bricks write
/// disjoint octants of one coarse brick, so any chunking is race-free.
template <typename BD>
inline void restrict_brick(const Vec3& bc, const BrickGrid& cg,
                           const real_t* __restrict fb,
                           real_t* __restrict cp) {
  const std::int32_t cid = cg.storage_id({bc.x / 2, bc.y / 2, bc.z / 2});
  GMG_ASSERT(cid >= 0);
  // In-coarse-brick base offset of this fine brick's image.
  const index_t ox = (bc.x % 2) * (BD::bx / 2);
  const index_t oy = (bc.y % 2) * (BD::by / 2);
  const index_t oz = (bc.z % 2) * (BD::bz / 2);
  real_t* cb = cp + static_cast<std::size_t>(cid) * BD::volume;
  for (index_t lk = 0; lk < BD::bz; lk += 2) {
    for (index_t lj = 0; lj < BD::by; lj += 2) {
      const real_t* r0 = fb + (lk * BD::by + lj) * BD::bx;
      const real_t* r1 = r0 + BD::bx;           // j+1
      const real_t* r2 = r0 + BD::by * BD::bx;  // k+1
      const real_t* r3 = r2 + BD::bx;           // j+1, k+1
      real_t* crow =
          cb + ((oz + lk / 2) * BD::by + (oy + lj / 2)) * BD::bx + ox;
#pragma omp simd
      for (index_t li = 0; li < BD::bx / 2; ++li) {
        const index_t f = 2 * li;
        crow[li] = 0.125 * (r0[f] + r0[f + 1] + r1[f] + r1[f + 1] + r2[f] +
                            r2[f + 1] + r3[f] + r3[f + 1]);
      }
    }
  }
}

}  // namespace gmg::detail

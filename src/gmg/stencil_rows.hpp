// Per-brick building blocks shared by every kernel over bricked
// storage, each written once for any lane count K (component c of cell
// e at flat e*K + c — brick/batched_array.hpp; K is the compile-time 1
// for a BrickedArray): the row visitors, the 7-point row and
// whole-brick bodies, the per-brick 8->1 restriction and the max-norm
// term. The split operators (operators*.cpp) and the fused passes
// (fused_kernels.cpp) share one definition of each, so the one-pass
// Jacobi sweep and the two-pass reference it replaces apply literally
// the same per-element arithmetic (DESIGN.md §16), and every lane of a
// batched field gets the solo arithmetic (§15) — the bitwise contracts
// hold by construction, not by keeping copies in step.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

#include "brick/batched_array.hpp"
#include "brick/brick_plan.hpp"
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

/// Visit the active rows of plan brick `it`: fn(lj, lk, ilo, ihi) for
/// cells [ilo, ihi) of row (lj, lk). `full` is for_each_plan_brick's
/// tag; a full brick's bounds are compile-time constants.
template <typename BD, typename Full, typename Fn>
inline void for_each_brick_row(const BrickPlanItem& it, Full, Fn&& fn) {
  constexpr bool kFull = Full::value;
  const index_t ilo = kFull ? 0 : it.ilo;
  const index_t ihi = kFull ? BD::bx : it.ihi;
  const index_t jlo = kFull ? 0 : it.jlo;
  const index_t jhi = kFull ? BD::by : it.jhi;
  const index_t klo = kFull ? 0 : it.klo;
  const index_t khi = kFull ? BD::bz : it.khi;
  for (index_t lk = klo; lk < khi; ++lk) {
    for (index_t lj = jlo; lj < jhi; ++lj) fn(lj, lk, ilo, ihi);
  }
}

/// Visit the contiguous rows of `plan` in flat storage elements:
/// fn(o, lo, hi) where the row occupies [o + lo, o + hi), K lanes per
/// cell. Full bricks collapse to ONE call covering the whole brick
/// (base, 0, BD::volume*K) — element-wise kernels don't care about row
/// structure, so the straight-line loop replaces bz*by row calls.
template <typename BD, typename KT, typename Fn>
void for_each_row(BD, KT K, const char* name, const BrickIterPlan& plan,
                  Fn&& fn) {
  for_each_plan_brick<BD>(name, plan, [&](const BrickPlanItem& it,
                                          auto full) {
    const std::size_t base = static_cast<std::size_t>(it.id * BD::volume * K);
    if constexpr (decltype(full)::value) {
      fn(base, index_t{0}, static_cast<index_t>(BD::volume * K));
    } else {
      for_each_brick_row<BD>(
          it, full, [&](index_t lj, index_t lk, index_t ilo, index_t ihi) {
            fn(base +
                   static_cast<std::size_t>((lk * BD::by + lj) * BD::bx * K),
               static_cast<index_t>(ilo * K), static_cast<index_t>(ihi * K));
          });
    }
  });
}

/// The row visitor over the cached iteration plan of `active`.
template <typename BD, typename KT, typename Fn>
void for_each_row(BD bd, KT K, const char* name, const BrickGrid& grid,
                  const Box& active, Fn&& fn) {
  for_each_row(bd, K, name,
               *grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz}),
               fn);
}

/// cell(i, c) for i in [0, n) and every lane c, vectorizing the loop
/// that carries unit stride: the cell loop at the compile-time K = 1
/// (the solo loop), the lane loop otherwise.
template <typename KT, typename Cell>
inline void for_each_cell_lane(index_t n, KT K, Cell&& cell) {
  if constexpr (kOneLane<KT>) {
#pragma omp simd
    for (index_t i = 0; i < n; ++i) cell(i, index_t{0});
  } else {
    for (index_t i = 0; i < n; ++i) {
#pragma omp simd
      for (index_t c = 0; c < K; ++c) cell(i, c);
    }
  }
}

/// ax = alpha*x + beta*(6 face neighbors) for the cells [ilo, ihi) of
/// row (lj, lk) of plan brick `it`, every lane, handed to `emit(s, ax)`
/// with s the row-relative flat index (cell*K + lane) — the code
/// BrickLib's vector code generator would emit for Fig. 1's DSL input.
/// The six neighbor rows resolve to direct pointers once (crossing into
/// adjacent bricks where needed); the row body is then a pure
/// unit-stride SIMD loop (x taps at +-K) with scalar patch-ups only at
/// the two x-boundary cells. kFull instantiates whole-row bounds as
/// compile-time constants. applyOp's `emit` stores ax; the one-pass
/// Jacobi sweep's consumes it in registers.
template <typename BD, bool kFull, typename KT, typename Emit>
inline void star7_row(const BrickPlanItem& it, KT K,
                      const real_t* __restrict xp, index_t lj, index_t lk,
                      index_t ilo, index_t ihi, real_t alpha, real_t beta,
                      Emit&& emit) {
  const std::size_t bvol = static_cast<std::size_t>(BD::volume * K);
  const auto brick_of = [&](int dx, int dy, int dz) {
    const std::int32_t b = it.adj[direction_index(dx, dy, dz)];
    GMG_ASSERT(b >= 0);
    return xp + static_cast<std::size_t>(b) * bvol;
  };
  const auto row_at = [K](const real_t* brick, index_t j, index_t k) {
    return brick + (k * BD::by + j) * BD::bx * K;
  };
  const real_t* __restrict xb = xp + static_cast<std::size_t>(it.id) * bvol;
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

  // One SIMD core over cells [max(ilo,1), min(ihi,B-1)) plus scalar
  // patch-ups at the two x-boundary cells. The tap summation order (xm
  // + xp + ym + yp + zm + zp) is IDENTICAL between core and patches so
  // that cells computed redundantly in ghost bricks (communication-
  // avoiding sweeps) are bitwise equal to the owning rank's interior
  // computation.
  const index_t core_lo = kFull ? 1 : std::max<index_t>(ilo, 1);
  const index_t core_hi =
      kFull ? BD::bx - 1 : std::min<index_t>(ihi, BD::bx - 1);
#pragma omp simd
  for (index_t s = core_lo * K; s < core_hi * K; ++s) {
    emit(s, alpha * xr[s] + beta * (xr[s - K] + xr[s + K] + ym[s] + yp[s] +
                                    zm[s] + zp[s]));
  }
  if (kFull || ilo == 0) {
    const real_t* __restrict xm =
        row_at(brick_of(-1, 0, 0), lj, lk) + (BD::bx - 1) * K;
    for (index_t c = 0; c < K; ++c) {
      emit(c, alpha * xr[c] + beta * (xm[c] + xr[c + K] + ym[c] + yp[c] +
                                      zm[c] + zp[c]));
    }
  }
  if (kFull || ihi == BD::bx) {
    const index_t e = (BD::bx - 1) * K;
    const real_t* __restrict xpn = row_at(brick_of(1, 0, 0), lj, lk);
    for (index_t c = 0; c < K; ++c) {
      const index_t s = e + c;
      emit(s, alpha * xr[s] + beta * (xr[s - K] + xpn[c] + ym[s] + yp[s] +
                                      zm[s] + zp[s]));
    }
  }
}

/// One brick row of B cells as a single value: a GCC/Clang
/// vector-extension type, whose arithmetic is elementwise IEEE. (A
/// class member typedef: GCC drops the attribute from an alias
/// template with a dependent size.)
template <index_t B>
struct RowVecOf {
  typedef real_t type __attribute__((vector_size(B * sizeof(real_t))));
};
template <index_t B>
using RowVec = typename RowVecOf<B>::type;

/// Load / store a value of T (a real_t or a RowVec) at p, with no
/// alignment or aliasing assumption: one (vector) move. Values travel
/// by reference, never by value — a vector argument's ABI depends on
/// the ISA flags the tree is built with.
template <class T>
inline void load_row(T& v, const real_t* p) {
  std::memcpy(&v, p, sizeof v);
}
template <class T>
inline void store_row(real_t* p, const T& v) {
  std::memcpy(p, &v, sizeof v);
}

/// The x taps of row vector v: xm = (l[B-1], v[0], ..., v[B-2]) and
/// xq = (v[1], ..., v[B-1], r[0]), with l and r the same row of the -x
/// and +x neighbour bricks.
template <class V, std::size_t... I>
inline void shift_in_x(const V& l, const V& v, const V& r, V& xm, V& xq,
                       std::index_sequence<I...>) {
  constexpr int n = sizeof...(I);
  xm = __builtin_shufflevector(l, v, (I == 0 ? n - 1 : n + int(I) - 1)...);
  xq = __builtin_shufflevector(v, r, (int(I) + 1)...);
}

/// star7_row's ax for a FULL plan brick of a solo field (K = 1), one
/// B-wide row vector at a time: emit(s, ax) receives each row's
/// brick-relative flat offset s and its B results as a RowVec. The six
/// face-neighbour bricks are looked up once per brick, and the x taps
/// shuffle their edge cells into the row (BrickLib's vector folding,
/// DESIGN.md §1–2). Every lane sums its taps in star7_row's order (xm
/// + xp + ym + yp + zm + zp), so under -ffp-contract=off each cell is
/// bitwise star7_row's.
template <typename BD, typename Emit>
inline void star7_brick(const BrickPlanItem& it, const real_t* __restrict xp,
                        real_t alpha, real_t beta, Emit&& emit) {
  using V = RowVec<BD::bx>;
  constexpr index_t kRow = BD::bx, kPlane = BD::bx * BD::by;
  const auto brick_of = [&](int dx, int dy, int dz) {
    const std::int32_t b = it.adj[direction_index(dx, dy, dz)];
    GMG_ASSERT(b >= 0);
    return xp + static_cast<std::size_t>(b) * BD::volume;
  };
  const real_t* __restrict xb =
      xp + static_cast<std::size_t>(it.id) * BD::volume;
  const real_t* __restrict xmb = brick_of(-1, 0, 0);
  const real_t* __restrict xpb = brick_of(1, 0, 0);
  const real_t* __restrict ymb = brick_of(0, -1, 0);
  const real_t* __restrict ypb = brick_of(0, 1, 0);
  const real_t* __restrict zmb = brick_of(0, 0, -1);
  const real_t* __restrict zpb = brick_of(0, 0, 1);
  for (index_t lk = 0; lk < BD::bz; ++lk) {
    // Unrolled, the y-neighbour choice of each row is a constant.
#pragma GCC unroll 8
    for (index_t lj = 0; lj < BD::by; ++lj) {
      const index_t s = (lk * BD::by + lj) * kRow;
      V l, v, r, ym, yp, zm, zp, xm, xq;
      load_row(l, xmb + s);
      load_row(v, xb + s);
      load_row(r, xpb + s);
      // Row s's y/z neighbours: in this brick, or on the opposite face
      // of the neighbour brick.
      load_row(ym, lj > 0 ? xb + (s - kRow) : ymb + (s + kPlane - kRow));
      load_row(yp, lj < BD::by - 1 ? xb + (s + kRow)
                                   : ypb + (s + kRow - kPlane));
      load_row(zm, lk > 0 ? xb + (s - kPlane)
                          : zmb + (s + BD::volume - kPlane));
      load_row(zp, lk < BD::bz - 1 ? xb + (s + kPlane)
                                   : zpb + (s + kPlane - BD::volume));
      shift_in_x(l, v, r, xm, xq, std::make_index_sequence<BD::bx>{});
      const V ax = alpha * v + beta * (xm + xq + ym + yp + zm + zp);
      emit(s, ax);
    }
  }
}

/// The 7-point ax of every active cell of plan brick `it`, handed to
/// emit(s, ax) with s the brick-relative flat index of ax's first
/// element. A full 4^3 or 8^3 brick of a solo field takes the
/// whole-brick body (ax a RowVec per row); every other brick — clipped,
/// 2^3, or K >= 2 lanes — takes star7_row (ax one cell-lane value).
template <typename BD, typename Full, typename KT, typename Emit>
inline void star7(const BrickPlanItem& it, Full full, KT K,
                  const real_t* __restrict xp, real_t alpha, real_t beta,
                  Emit&& emit) {
  if constexpr (Full::value && kOneLane<KT> && BD::bx >= 4) {
    star7_brick<BD>(it, xp, alpha, beta, emit);
  } else {
    for_each_brick_row<BD>(
        it, full, [&](index_t lj, index_t lk, index_t ilo, index_t ihi) {
          const index_t row = (lk * BD::by + lj) * BD::bx * K;
          star7_row<BD, Full::value>(
              it, K, xp, lj, lk, ilo, ihi, alpha, beta,
              [&](index_t s, real_t ax) { emit(row + s, ax); });
        });
  }
}

/// 8->1 full weighting of ONE fine brick into its coarse octant, every
/// lane: 0.125 times the 8-term sum, in a fixed order. `bc` is the fine
/// brick's grid coordinate and `fb` its storage; eight fine bricks
/// write disjoint octants of one coarse brick, so any chunking is
/// race-free.
template <typename BD, typename KT>
inline void restrict_brick(KT K, const Vec3& bc, const BrickGrid& cg,
                           const real_t* __restrict fb,
                           real_t* __restrict cp) {
  const std::int32_t cid = cg.storage_id({bc.x / 2, bc.y / 2, bc.z / 2});
  GMG_ASSERT(cid >= 0);
  // In-coarse-brick base offset of this fine brick's image.
  const index_t ox = (bc.x % 2) * (BD::bx / 2);
  const index_t oy = (bc.y % 2) * (BD::by / 2);
  const index_t oz = (bc.z % 2) * (BD::bz / 2);
  const index_t row = BD::bx * K;
  real_t* cb = cp + static_cast<std::size_t>(cid * BD::volume * K);
  for (index_t lk = 0; lk < BD::bz; lk += 2) {
    for (index_t lj = 0; lj < BD::by; lj += 2) {
      const real_t* r0 = fb + (lk * BD::by + lj) * row;
      const real_t* r1 = r0 + row;           // j+1
      const real_t* r2 = r0 + BD::by * row;  // k+1
      const real_t* r3 = r2 + row;           // j+1, k+1
      real_t* crow = cb + ((oz + lk / 2) * BD::by + (oy + lj / 2)) * row +
                     ox * K;
      for_each_cell_lane(BD::bx / 2, K, [&](index_t li, index_t c) {
        const index_t f = 2 * li * K + c;
        crow[li * K + c] = 0.125 * (r0[f] + r0[f + K] + r1[f] + r1[f + K] +
                                    r2[f] + r2[f + K] + r3[f] + r3[f + K]);
      });
    }
  }
}

/// |v| as a max-norm term: a NaN counts as +inf. Every max on the way
/// to a convergence test (std::max here and in the chunk tree, the
/// allreduce's a > b ? a : b) drops a NaN operand, so a NaN residual
/// would otherwise read as converged; +inf survives all of them. Finite
/// values pass through bitwise unchanged.
inline real_t norm_term(real_t v) {
  const real_t a = std::abs(v);
  return a == a ? a : std::numeric_limits<real_t>::infinity();
}

}  // namespace gmg::detail

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

/// elem(s) for every storage element s of n cells, K lanes per cell
/// (element s is lane s % K of cell s / K), as ONE flat unit-stride
/// loop over the n*K elements: at K = 1 the solo cell loop, at any K a
/// loop the vectorizer sees whole.
template <typename KT, typename Elem>
inline void for_each_cell_lane(index_t n, KT, Elem&& elem) {
  constexpr index_t K = kLanes<KT>;
#pragma omp simd
  for (index_t s = 0; s < n * K; ++s) elem(s);
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

/// The widest row vector of the whole-brick body, in elements: one
/// 64-byte line, one AVX-512 register. A K-lane row of B*K elements
/// is cut into vectors of this width (or of the largest power of two
/// dividing B*K, when smaller: a vector's size is a power of two).
inline constexpr index_t kRowVecMax = 8;
constexpr index_t row_vec_width(index_t row) {
  index_t w = 1;
  while (w < kRowVecMax && row % (2 * w) == 0) w *= 2;
  return w;
}

/// out = elements [D, D + W) of the 2W-element concatenation (a, b): a
/// row window that straddles two row vectors.
template <int D, class V, std::size_t... I>
inline void window(const V& a, const V& b, V& out,
                   std::index_sequence<I...>) {
  out = __builtin_shufflevector(a, b, (D + int(I))...);
}

/// The ax of the W-element vector at offset O of a K-lane row of kRow
/// elements, handed to emit(s + O, ax): xr is the row, xl and xq the
/// same row of the -x and +x neighbour bricks, and ym..zp the row's
/// four y/z neighbour rows. The x taps are the row shifted by one cell
/// (K elements) each way: a window inside the row is one (unaligned)
/// load, and one that straddles a brick face shuffles the neighbour's
/// edge cell in (BrickLib's vector folding, DESIGN.md §1–2).
template <index_t K, index_t kRow, index_t O, class V, class Emit>
inline void star7_vector(
    index_t s, const real_t* __restrict xl, const real_t* __restrict xr,
    const real_t* __restrict xq, const real_t* __restrict ym,
    const real_t* __restrict yp, const real_t* __restrict zm,
    const real_t* __restrict zp, real_t alpha, real_t beta, Emit& emit) {
  constexpr index_t W = sizeof(V) / sizeof(real_t);
  constexpr auto lanes = std::make_index_sequence<W>{};
  V v, vym, vyp, vzm, vzp, xm, xp;
  load_row(v, xr + O);
  load_row(vym, ym + O);
  load_row(vyp, yp + O);
  load_row(vzm, zm + O);
  load_row(vzp, zp + O);
  // A straddling window pairs the neighbour's edge vector with the
  // row's first (last) vector, which is v itself when O is that vector.
  // Reusing v keeps the body's vector locals at the solo body's count:
  // GCC's stack-frame estimate decides whether the brick loop inlines
  // into the launch's chunk loop.
  if constexpr (O - K >= 0) {
    load_row(xm, xr + (O - K));
  } else if constexpr (O - K + W <= 0) {
    load_row(xm, xl + (kRow + O - K));
  } else if constexpr (O == 0) {
    V l;
    load_row(l, xl + (kRow - W));
    window<int(W + O - K)>(l, v, xm, lanes);
  } else {
    V l, first;
    load_row(l, xl + (kRow - W));
    load_row(first, xr);
    window<int(W + O - K)>(l, first, xm, lanes);
  }
  if constexpr (O + K + W <= kRow) {
    load_row(xp, xr + (O + K));
  } else if constexpr (O + K >= kRow) {
    load_row(xp, xq + (O + K - kRow));
  } else if constexpr (O == kRow - W) {
    V r;
    load_row(r, xq);
    window<int(O + K - (kRow - W))>(v, r, xp, lanes);
  } else {
    V last, r;
    load_row(last, xr + (kRow - W));
    load_row(r, xq);
    window<int(O + K - (kRow - W))>(last, r, xp, lanes);
  }
  const V ax = alpha * v + beta * (xm + xp + vym + vyp + vzm + vzp);
  emit(s + O, ax);
}

/// star7_vector over every vector of one row: C are the vector indices.
template <index_t K, index_t kRow, class V, class Emit, std::size_t... C>
inline void star7_row_vectors(
    index_t s, const real_t* __restrict xl, const real_t* __restrict xr,
    const real_t* __restrict xq, const real_t* __restrict ym,
    const real_t* __restrict yp, const real_t* __restrict zm,
    const real_t* __restrict zp, real_t alpha, real_t beta, Emit& emit,
    std::index_sequence<C...>) {
  constexpr index_t W = sizeof(V) / sizeof(real_t);
  (star7_vector<K, kRow, static_cast<index_t>(C) * W, V>(
       s, xl, xr, xq, ym, yp, zm, zp, alpha, beta, emit),
   ...);
}

/// star7_row's ax for a FULL plan brick, K lanes per cell, one row
/// vector at a time: emit(s, ax) receives each vector's brick-relative
/// flat offset s and its W results as a RowVec<W> (a row of B*K
/// elements is one vector up to kRowVecMax elements, several beyond).
/// The six face-neighbour bricks are looked up once per brick. Every
/// lane sums its taps in star7_row's order (xm + xp + ym + yp + zm +
/// zp), so under -ffp-contract=off each cell of each lane is bitwise
/// star7_row's. At K = 1 this is the solo body: one B-wide vector per
/// row.
template <typename BD, typename KT, typename Emit>
inline void star7_brick(const BrickPlanItem& it, KT,
                                               const real_t* __restrict xp,
                                               real_t alpha, real_t beta,
                                               Emit&& emit) {
  constexpr index_t K = kLanes<KT>;
  constexpr index_t kRow = BD::bx * K, kPlane = kRow * BD::by,
                    kVol = kPlane * BD::bz;
  using V = RowVec<row_vec_width(kRow)>;
  constexpr auto vectors =
      std::make_index_sequence<kRow / (sizeof(V) / sizeof(real_t))>{};
  const auto brick_of = [&](int dx, int dy, int dz) {
    const std::int32_t b = it.adj[direction_index(dx, dy, dz)];
    GMG_ASSERT(b >= 0);
    return xp + static_cast<std::size_t>(b) * kVol;
  };
  const real_t* __restrict xb = xp + static_cast<std::size_t>(it.id) * kVol;
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
      // Row s's y/z neighbours: in this brick, or on the opposite face
      // of the neighbour brick.
      star7_row_vectors<K, kRow, V>(
          s, xmb + s, xb + s, xpb + s,
          lj > 0 ? xb + (s - kRow) : ymb + (s + kPlane - kRow),
          lj < BD::by - 1 ? xb + (s + kRow) : ypb + (s + kRow - kPlane),
          lk > 0 ? xb + (s - kPlane) : zmb + (s + kVol - kPlane),
          lk < BD::bz - 1 ? xb + (s + kPlane) : zpb + (s + kPlane - kVol),
          alpha, beta, emit, vectors);
    }
  }
}

/// The 7-point ax of every active cell of plan brick `it`, handed to
/// emit(s, ax) with s the brick-relative flat index of ax's first
/// element. A full 4^3 or 8^3 brick takes the whole-brick body at every
/// lane count (ax a RowVec); a clipped or 2^3 brick takes star7_row (ax
/// one cell-lane value).
template <typename BD, typename Full, typename KT, typename Emit>
inline void star7(const BrickPlanItem& it, Full full,
                                         KT K,
                  const real_t* __restrict xp, real_t alpha, real_t beta,
                  Emit&& emit) {
  if constexpr (Full::value && BD::bx >= 4) {
    star7_brick<BD>(it, K, xp, alpha, beta, emit);
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
      // Coarse element s (lane c of cell li) folds fine cells 2li and
      // 2li + 1: fine element 2li*K + c = s + li*K, and the next cell.
      for_each_cell_lane(BD::bx / 2, K, [&](index_t s) {
        const index_t f = s + (s / K) * K;
        crow[s] = 0.125 * (r0[f] + r0[f + K] + r1[f] + r1[f + K] + r2[f] +
                           r2[f + K] + r3[f] + r3[f + K]);
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

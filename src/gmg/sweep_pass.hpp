// The one-pass sweep machinery the fused kernels share (DESIGN.md §16):
// the brick pass, the Jacobi x update, the sweep of an operator given
// as a DSL expression, and the sweep family's argument checks. Every
// sweep is instantiated for the solo field and each batch width
// (brick/batched_array.hpp), so the 7-point, 13-point and
// variable-coefficient sweeps compile in separate translation units
// (fused_kernels.cpp, fused_sweep_star13.cpp, fused_sweep_varcoef.cpp)
// over these one definitions.
#pragma once

#include <cstdint>
#include <tuple>
#include <type_traits>

#include "brick/brick_plan.hpp"
#include "dsl/apply_brick.hpp"
#include "gmg/stencil_rows.hpp"
#include "trace/trace.hpp"

namespace gmg::fused {

inline void count_flops(std::uint64_t pts, std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops", pts * flops_per_pt);
}

/// Cell-lane points of `b` for a field with `lanes` lanes.
inline std::uint64_t box_points(const Box& b, index_t lanes = 1) {
  return static_cast<std::uint64_t>(b.volume() * lanes);
}

/// brick_pass stage that does nothing (a kernel with no A*x stage, or
/// no separate pointwise stage).
struct NoStage {
  template <typename... Args>
  void operator()(Args&&...) const {}
};

/// One pass over the bricks of `active`, K lanes per cell. Per plan
/// brick, `brick(it, full, base)` runs first, `base` being the brick's
/// first CELL (the one-pass sweeps: A*x and the x update, in
/// registers); then `flat(o, lo, hi)` runs a pointwise stage over
/// storage elements [o + lo, o + hi) — one whole-brick call on a full
/// brick, one call per row on a clipped one, exactly as the row
/// visitor chunks them. With a coarse grid `cg`, every INTERIOR brick
/// then restricts its just-written residual `rp` into `cp`. Interior
/// bricks are always full plan items here (the caller's region cuts
/// the interior only at brick boundaries); clipped items are
/// ghost-shell bricks, which contribute no restriction.
template <typename BD, typename KT, typename Brick, typename Flat>
void brick_pass(BD, KT K, const char* name, const BrickGrid& fg,
                const Box& active, Brick&& brick, Flat&& flat,
                const BrickGrid* cg, const real_t* rp, real_t* cp) {
  const std::int64_t ni = fg.num_interior();
  const auto plan = fg.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  for_each_plan_brick<BD>(name, *plan, [&](const BrickPlanItem& it,
                                           auto full) {
    const std::size_t base = static_cast<std::size_t>(it.id) * BD::volume;
    brick(it, full, base);
    if constexpr (decltype(full)::value) {
      flat(base * K, index_t{0}, static_cast<index_t>(BD::volume * K));
      if (cp != nullptr && it.id < ni)
        detail::restrict_brick<BD>(K, it.coord, *cg, rp + base * K, cp);
    } else {
      detail::for_each_brick_row<BD>(
          it, full, [&](index_t lj, index_t lk, index_t ilo, index_t ihi) {
            const std::size_t o =
                base + static_cast<std::size_t>((lk * BD::by + lj) * BD::bx);
            flat(o * K, ilo * K, ihi * K);
          });
      GMG_ASSERT(cp == nullptr || it.id >= ni);
    }
  });
}

/// Calls fn(std::true_type{}) when the sweep writes r, fn(false_type{})
/// otherwise — the residual store is resolved at compile time.
template <typename Fn>
void with_residual(const void* r, Fn&& fn) {
  if (r != nullptr)
    fn(std::true_type{});
  else
    fn(std::false_type{});
}

/// The x update of one cell, or of one row when T is a RowVec: x' = x +
/// gamma*(ax - b), and r = b - ax — the split smooth / smooth_residual
/// arithmetic verbatim, elementwise (`scale` is gamma, or -omega/diag
/// for the variable-coefficient operator).
template <bool kResidual, class T>
inline void jacobi_update_cell(real_t* __restrict xn, real_t* __restrict rp,
                               const real_t* __restrict xp,
                               const real_t* __restrict bp, real_t scale,
                               std::size_t i, const T& ax) {
  T rhs, x;
  detail::load_row(rhs, bp + i);
  detail::load_row(x, xp + i);
  if constexpr (kResidual) {
    const T res = rhs - ax;
    detail::store_row(rp + i, res);
  }
  const T next = x + scale * (ax - rhs);
  detail::store_row(xn + i, next);
}

/// The one-pass sweep of an operator given as a DSL expression (the
/// 13-point star, the variable coefficient): brick_pass over `active`
/// with each cell's A*x from the DSL engine's row body — dsl::apply's
/// per-element arithmetic, so its bits — consumed by the x update, lane
/// by lane. `scale(cell)` is the update factor of storage cell `cell`.
/// Slot 0 of `expr` is x; `shared` are its further slots, each one
/// field every lane reads.
template <class F, typename Expr, typename Scale, typename... Shared>
void dsl_sweep(const char* name, F& x_next, F* r, F* coarse_b, const F& x,
               const F& b, const Box& active, const Expr& expr,
               Scale&& scale, const Shared&... shared) {
  const dsl::Extents ext = expr.extents();
  with_field_dims(x, [&](auto bd, auto K) {
    using BD = decltype(bd);
    const std::tuple strides{K, dsl::detail::lane_stride(K, shared)...};
    detail::require_taps_in_grid(bd, x.grid(), active, ext.radius());
    real_t* __restrict xn = x_next.data();
    real_t* __restrict rp = r != nullptr ? r->data() : nullptr;
    const real_t* __restrict xp = x.data();
    const real_t* __restrict bp = b.data();
    with_residual(r, [&](auto res) {
      brick_pass(
          bd, K, name, x.grid(), active,
          [&](const BrickPlanItem& it, auto full, std::size_t base) {
            detail::for_each_brick_row<BD>(it, full, [&](index_t lj,
                                                         index_t lk,
                                                         index_t ilo,
                                                         index_t ihi) {
              const std::size_t o =
                  base + static_cast<std::size_t>((lk * BD::by + lj) * BD::bx);
              for (index_t c = 0; c < K; ++c) {
                const dsl::detail::BrickAccessors<
                    BD, decltype(K),
                    decltype(dsl::detail::lane_stride(K, shared))...>
                    acc({xp + c, shared.data()...}, strides, it.adj, it.id);
                dsl::detail::eval_row<BD>(
                    expr, ext, acc.slow, acc.fast, lj, lk, ilo, ihi,
                    [&](index_t li, real_t ax) {
                      const std::size_t cell =
                          o + static_cast<std::size_t>(li);
                      jacobi_update_cell<decltype(res)::value>(
                          xn, rp, xp, bp, scale(cell),
                          cell * K + static_cast<std::size_t>(c), ax);
                    });
              }
            });
          },
          NoStage{}, coarse_b != nullptr ? &coarse_b->grid() : nullptr, rp,
          coarse_b != nullptr ? coarse_b->data() : nullptr);
    });
  });
}

/// A fused restriction folds `fine` bricks into `coarse` octants: the
/// fine extent is twice the coarse one and both share the brick shape.
template <class F>
void require_coarse_image(const F& fine, const F& coarse) {
  const Vec3 fe = fine.extent(), ce = coarse.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(fine.shape() == coarse.shape(),
              "fused restriction assumes equal brick shapes on both levels");
}

/// Shared argument checks of the sweep family. Returns the interior
/// part of `active` a restricting sweep folds into the coarse RHS
/// (empty otherwise).
template <class F>
Box require_sweep_args(const F& x_next, const F* r, const F* coarse_b,
                       const F& x, const Box& active) {
  GMG_REQUIRE(x_next.data() != x.data(),
              "jacobi sweep output aliases its input x: an in-place "
              "stencil update races read-after-write across bricks");
  GMG_REQUIRE(&x_next.grid() == &x.grid() && x_next.shape() == x.shape(),
              "jacobi sweep fields must share a brick grid");
  if (coarse_b == nullptr) return Box{};
  GMG_REQUIRE(r != nullptr, "a restricting jacobi sweep writes r");
  require_coarse_image(x, *coarse_b);
  const Box fine = intersect(active, Box::from_extent(x.extent()));
  if (fine.empty()) return Box{};
  const Vec3 d = x.shape().dims();
  for (int a = 0; a < 3; ++a) {
    GMG_REQUIRE(fine.lo[a] % d[a] == 0 && fine.hi[a] % d[a] == 0,
                "a restricting jacobi sweep region must cut the interior "
                "at brick boundaries");
  }
  return fine;
}

}  // namespace gmg::fused

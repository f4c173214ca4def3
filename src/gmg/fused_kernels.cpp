#include "gmg/fused_kernels.hpp"

#include <array>
#include <cmath>
#include <tuple>
#include <type_traits>

#include "brick/brick_plan.hpp"
#include "check/shadow.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "exec/runtime.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/stencil_rows.hpp"
#include "trace/trace.hpp"

namespace gmg::fused {

// The one-pass sweeps read x through their operator's stencil — the
// 7-point star, star_stencil<2>, and apply_op_varcoef's expression
// (which also reads the coefficient): pin the summaries' reaches to
// those footprints.
static_assert(jacobi_sweep_effects(1).read_reach("x") ==
                  check::star_shape(1).radius(),
              "jacobi sweep x reach must be the 7-point star's");
static_assert(jacobi_sweep_star13_effects().read_reach("x") ==
                  dsl::star_stencil<2, 0>(std::array<real_t, 3>{1.0, 1.0, 1.0})
                      .offsets()
                      .radius(),
              "13-point sweep x reach must be star_stencil<2>'s");
static_assert(jacobi_sweep_varcoef_effects().read_reach("x") ==
                      vc::apply_expr(0, 1).offsets().slot_extents(0).radius() &&
                  jacobi_sweep_varcoef_effects().read_reach("coef") ==
                      vc::apply_expr(0, 1).offsets().slot_extents(1).radius(),
              "varcoef sweep reaches must be the operator expression's");

namespace {

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
  const auto K = lanes(x);
  const dsl::Extents ext = expr.extents();
  const std::tuple strides{K, lanes(shared)...};
  with_brick_dims(x.shape(), [&](auto bd) {
    using BD = decltype(bd);
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
                const dsl::detail::BrickAccessors<BD, decltype(K),
                                                  decltype(lanes(shared))...>
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

/// Shared argument checks for the in-place fused descent kernels.
void require_descent_args(const BrickedArray& r, const BrickedArray& coarse_b,
                          const Box& active) {
  require_coarse_image(r, coarse_b);
  GMG_REQUIRE(active.covers(Box::from_extent(r.extent())),
              "fused descent sweep must cover the fine interior");
}

}  // namespace

void require_fused_fits(const BrickShape& shape) {
  check::require_footprint_fits("fused smooth+residual+restriction",
                                descent_footprint().extents(), shape);
  GMG_REQUIRE(shape.bx % 2 == 0 && shape.by % 2 == 0 && shape.bz % 2 == 0,
              "fused smooth+residual+restriction needs even brick dims "
              "(per-brick 8->1 octant restriction)");
}

template <class F>
void jacobi_sweep(F& x_next, std::type_identity_t<F>* r,
                  std::type_identity_t<F>* coarse_b, const F& x, const F& b,
                  real_t alpha, real_t beta, real_t gamma, const Box& active) {
  const Box fine = require_sweep_args<F>(x_next, r, coarse_b, x, active);
  const auto K = lanes(x);
  trace::TraceSpan span("kernel.jacobiSweep");
  // A*x (8) + the x update (3) + the residual (1) per point; 8 per
  // coarse point for the restriction.
  count_flops(box_points(active, K), r != nullptr ? 12 : 11);
  if (coarse_b != nullptr) count_flops(box_points(fine, K) / 8, 8);
  const auto scope = check::scope(
      jacobi_sweep_effects(1), active,
      {check::bind("out", x_next), check::bind("r", r),
       check::bind("coarse", coarse_b, coarsen(fine, 2)),
       check::bind("x", x), check::bind("b", b)});
  with_brick_dims(x.shape(), [&](auto bd) {
    using BD = decltype(bd);
    detail::require_taps_in_grid(bd, x.grid(), active, 1);
    real_t* __restrict xn = x_next.data();
    real_t* __restrict rp = r != nullptr ? r->data() : nullptr;
    const real_t* __restrict xp = x.data();
    const real_t* __restrict bp = b.data();
    with_residual(r, [&](auto res) {
      brick_pass(
          bd, K, "kernel.jacobiSweep", x.grid(), active,
          [&](const BrickPlanItem& it, auto full, std::size_t base) {
            // A*x stays in registers: each cell's (or row's) ax goes
            // straight into its update. The update's operands are
            // captured by value, so its stores cannot force them to be
            // re-read.
            detail::star7<BD>(it, full, K, xp, alpha, beta,
                              [=, o = base * K](index_t s, const auto& ax) {
                                jacobi_update_cell<decltype(res)::value>(
                                    xn, rp, xp, bp, gamma,
                                    o + static_cast<std::size_t>(s), ax);
                              });
          },
          NoStage{}, coarse_b != nullptr ? &coarse_b->grid() : nullptr, rp,
          coarse_b != nullptr ? coarse_b->data() : nullptr);
    });
  });
}

template <class F>
void jacobi_sweep_star13(F& x_next, std::type_identity_t<F>* r,
                         std::type_identity_t<F>* coarse_b, const F& x,
                         const F& b, real_t alpha, real_t beta, real_t beta2,
                         real_t gamma, const Box& active) {
  const Box fine = require_sweep_args<F>(x_next, r, coarse_b, x, active);
  const auto K = lanes(x);
  trace::TraceSpan span("kernel.jacobiSweep");
  // A*x (15) + the x update (3) + the residual (1) per point; 8 per
  // coarse point for the restriction.
  count_flops(box_points(active, K), r != nullptr ? 19 : 18);
  if (coarse_b != nullptr) count_flops(box_points(fine, K) / 8, 8);
  const auto scope = check::scope(
      jacobi_sweep_star13_effects(), active,
      {check::bind("out", x_next), check::bind("r", r),
       check::bind("coarse", coarse_b, coarsen(fine, 2)),
       check::bind("x", x), check::bind("b", b)});
  // The operator is the 13-point applyOp's expression.
  dsl_sweep("kernel.jacobiSweep", x_next, r, coarse_b, x, b, active,
            dsl::star_stencil<2, 0>(std::array<real_t, 3>{alpha, beta, beta2}),
            [gamma](std::size_t) { return gamma; });
}

template <class F>
void jacobi_sweep_varcoef(F& x_next, std::type_identity_t<F>* r,
                          std::type_identity_t<F>* coarse_b, const F& x,
                          const F& b, const BrickedArray& coef,
                          const BrickedArray& diag, real_t identity_coef,
                          real_t h, real_t omega, const Box& active) {
  const Box fine = require_sweep_args<F>(x_next, r, coarse_b, x, active);
  const auto K = lanes(x);
  trace::TraceSpan span("kernel.jacobiSweepVarCoef");
  count_flops(box_points(active, K), r != nullptr ? 32 : 31);
  if (coarse_b != nullptr) count_flops(box_points(fine, K) / 8, 8);
  const auto scope = check::scope(
      jacobi_sweep_varcoef_effects(), active,
      {check::bind("out", x_next), check::bind("r", r),
       check::bind("coarse", coarse_b, coarsen(fine, 2)),
       check::bind("x", x), check::bind("coef", coef), check::bind("b", b),
       check::bind("diag", diag)});
  // The operator is apply_op_varcoef's expression, the coefficient
  // shared by every lane.
  const real_t* __restrict dp = diag.data();
  dsl_sweep("kernel.jacobiSweepVarCoef", x_next, r, coarse_b, x, b, active,
            vc::apply_expr(identity_coef, 0.5 / (h * h)),
            [dp, omega](std::size_t cell) { return -omega / dp[cell]; }, coef);
}

void smooth_residual_restrict(BrickedArray& x, BrickedArray& r,
                              BrickedArray& coarse_b, const BrickedArray& Ax,
                              const BrickedArray& b, real_t gamma,
                              const Box& active) {
  require_descent_args(r, coarse_b, active);
  trace::TraceSpan span("kernel.smoothResidualRestrict");
  count_flops(box_points(active), 4);
  count_flops(static_cast<std::uint64_t>(coarse_b.extent().x) *
                  coarse_b.extent().y * coarse_b.extent().z,
              8);
  const auto scope = check::scope(
      smooth_residual_restrict_effects(), active,
      {check::bind("x", x), check::bind("r", r),
       check::bind("coarse", coarse_b, Box::from_extent(coarse_b.extent())),
       check::bind("Ax", Ax), check::bind("b", b)});
  with_brick_dims(x.shape(), [&](auto bd) {
    using BD = decltype(bd);
    static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    brick_pass(
        bd, lanes(x), "kernel.smoothResidualRestrict", x.grid(), active,
        NoStage{},
        [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
          for (index_t i = ilo; i < ihi; ++i) {
            const real_t ax = axp[o + i];
            const real_t rhs = bp[o + i];
            rp[o + i] = rhs - ax;
            xp[o + i] += gamma * (ax - rhs);
          }
        },
        &coarse_b.grid(), rp, cp);
  });
}

void smooth_residual_restrict_varcoef(BrickedArray& x, BrickedArray& r,
                                      BrickedArray& coarse_b,
                                      const BrickedArray& Ax,
                                      const BrickedArray& b,
                                      const BrickedArray& diag, real_t omega,
                                      const Box& active) {
  require_descent_args(r, coarse_b, active);
  trace::TraceSpan span("kernel.smoothResidualRestrictVarCoef");
  count_flops(box_points(active), 6);
  count_flops(static_cast<std::uint64_t>(coarse_b.extent().x) *
                  coarse_b.extent().y * coarse_b.extent().z,
              8);
  const auto scope = check::scope(
      smooth_residual_restrict_varcoef_effects(), active,
      {check::bind("x", x), check::bind("r", r),
       check::bind("coarse", coarse_b, Box::from_extent(coarse_b.extent())),
       check::bind("Ax", Ax), check::bind("b", b), check::bind("diag", diag)});
  with_brick_dims(x.shape(), [&](auto bd) {
    using BD = decltype(bd);
    static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict dp = diag.data();
    brick_pass(
        bd, lanes(x), "kernel.smoothResidualRestrictVarCoef", x.grid(),
        active, NoStage{},
        [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
          for (index_t i = ilo; i < ihi; ++i) {
            const real_t ax = axp[o + i];
            const real_t rhs = bp[o + i];
            rp[o + i] = rhs - ax;
            xp[o + i] += (-omega / dp[o + i]) * (ax - rhs);
          }
        },
        &coarse_b.grid(), rp, cp);
  });
}

template <class F>
void residual_restrict(F& r, F& coarse_b, const F& b, const F& Ax) {
  require_coarse_image(r, coarse_b);
  const Vec3 fe = r.extent(), ce = coarse_b.extent();
  const auto K = lanes(r);
  trace::TraceSpan span("kernel.residualRestrict");
  const Box interior = Box::from_extent(fe);
  count_flops(box_points(interior, K), 1);
  count_flops(box_points(Box::from_extent(ce), K), 8);
  const auto scope = check::scope(
      residual_restrict_effects(), interior,
      {check::bind("r", r),
       check::bind("coarse", coarse_b, Box::from_extent(ce)),
       check::bind("b", b), check::bind("Ax", Ax)});
  with_brick_dims(r.shape(), [&](auto bd) {
    using BD = decltype(bd);
    static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
    const BrickGrid& fg = r.grid();
    const BrickGrid& cg = coarse_b.grid();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict axp = Ax.data();
    // Interior fine bricks are ids [0, num_interior): per brick, the
    // flat residual rows then the octant copy from the residual still
    // in cache. Any chunking is race-free (disjoint r bricks, disjoint
    // coarse octants).
    exec::parallel_for(
        "kernel.residualRestrict", fg.num_interior(),
        exec::brick_grain(BD::volume), [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t fid = lo; fid < hi; ++fid) {
            const std::size_t base =
                static_cast<std::size_t>(fid * BD::volume * K);
#pragma omp simd
            for (index_t i = 0; i < BD::volume * K; ++i) {
              rp[base + i] = bp[base + i] - axp[base + i];
            }
            detail::restrict_brick<BD>(
                K, fg.coord_of(static_cast<std::int32_t>(fid)), cg, rp + base,
                cp);
          }
        });
  });
}

template <class F>
real_t residual_max_norm(F& r, const F& b, const F& Ax) {
  trace::TraceSpan span("kernel.residualMaxNorm");
  const auto K = lanes(r);
  const Box interior = Box::from_extent(r.extent());
  count_flops(box_points(interior, K), 2);
  const auto scope = check::scope(
      residual_max_norm_effects(), interior,
      {check::bind("r", r), check::bind("b", b), check::bind("Ax", Ax)});
  real_t m = 0.0;
  with_brick_dims(r.shape(), [&](auto bd) {
    using BD = decltype(bd);
    real_t* __restrict rp = r.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict axp = Ax.data();
    // Identical flat range and chunk grain as the split max_norm: the
    // per-chunk partials — and the fixed combining tree over them —
    // see the same values in the same order, so the result is bitwise
    // equal to residual() followed by max_norm() (fp max is exactly
    // associative; the residual write is elementwise identical).
    const std::int64_t n =
        static_cast<std::int64_t>(r.grid().num_interior()) * BD::volume * K;
    m = exec::parallel_reduce_max<real_t>(
        "kernel.residualMaxNorm", n, exec::kElementGrain,
        [&](std::int64_t lo, std::int64_t hi) {
          real_t local = 0.0;
#pragma omp simd reduction(max : local)
          for (std::int64_t i = lo; i < hi; ++i) {
            const real_t v = bp[i] - axp[i];
            rp[i] = v;
            local = std::max(local, detail::norm_term(v));
          }
          return local;
        });
  });
  return m;
}

// The one kernel set, instantiated for both field types.
#define GMG_FUSED_KERNELS(F)                                                \
  template void jacobi_sweep<F>(F&, F*, F*, const F&, const F&, real_t,      \
                                real_t, real_t, const Box&);                 \
  template void jacobi_sweep_star13<F>(F&, F*, F*, const F&, const F&,       \
                                       real_t, real_t, real_t, real_t,       \
                                       const Box&);                          \
  template void jacobi_sweep_varcoef<F>(F&, F*, F*, const F&, const F&,      \
                                        const BrickedArray&,                 \
                                        const BrickedArray&, real_t, real_t, \
                                        real_t, const Box&);                 \
  template void residual_restrict(F&, F&, const F&, const F&);               \
  template real_t residual_max_norm(F&, const F&, const F&);
GMG_FUSED_KERNELS(BrickedArray)
GMG_FUSED_KERNELS(BatchedBrickedArray)
#undef GMG_FUSED_KERNELS

}  // namespace gmg::fused

#include "gmg/fused_kernels.hpp"

#include <algorithm>

#include "check/shadow.hpp"
#include "exec/runtime.hpp"
#include "gmg/sweep_pass.hpp"

namespace gmg::fused {

// The 7-point sweep reads x through the 7-point star: pin the summary's
// reach to that footprint. (The 13-point and variable-coefficient
// sweeps live in fused_sweep_star13.cpp and fused_sweep_varcoef.cpp.)
static_assert(jacobi_sweep_effects(1).read_reach("x") ==
                  check::star_shape(1).radius(),
              "jacobi sweep x reach must be the 7-point star's");

namespace {

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
  const index_t width = batch_width(x);
  trace::TraceSpan span("kernel.jacobiSweep");
  // A*x (8) + the x update (3) + the residual (1) per point; 8 per
  // coarse point for the restriction.
  count_flops(box_points(active, width), r != nullptr ? 12 : 11);
  if (coarse_b != nullptr) count_flops(box_points(fine, width) / 8, 8);
  const auto scope = check::scope(
      jacobi_sweep_effects(1), active,
      {check::bind("out", x_next), check::bind("r", r),
       check::bind("coarse", coarse_b, coarsen(fine, 2)),
       check::bind("x", x), check::bind("b", b)});
  with_field_dims(x, [&](auto bd, auto K) {
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
        bd, OneLane{}, "kernel.smoothResidualRestrict", x.grid(), active,
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
        bd, OneLane{}, "kernel.smoothResidualRestrictVarCoef", x.grid(),
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
  const index_t width = batch_width(r);
  trace::TraceSpan span("kernel.residualRestrict");
  const Box interior = Box::from_extent(fe);
  count_flops(box_points(interior, width), 1);
  count_flops(box_points(Box::from_extent(ce), width), 8);
  const auto scope = check::scope(
      residual_restrict_effects(), interior,
      {check::bind("r", r),
       check::bind("coarse", coarse_b, Box::from_extent(ce)),
       check::bind("b", b), check::bind("Ax", Ax)});
  with_field_dims(r, [&](auto bd, auto K) {
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
  const Box interior = Box::from_extent(r.extent());
  count_flops(box_points(interior, batch_width(r)), 2);
  const auto scope = check::scope(
      residual_max_norm_effects(), interior,
      {check::bind("r", r), check::bind("b", b), check::bind("Ax", Ax)});
  real_t m = 0.0;
  with_field_dims(r, [&](auto bd, auto K) {
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
  template void residual_restrict(F&, F&, const F&, const F&);               \
  template real_t residual_max_norm(F&, const F&, const F&);
GMG_FUSED_KERNELS(BrickedArray)
GMG_FUSED_KERNELS(BatchedBrickedArray)
#undef GMG_FUSED_KERNELS

}  // namespace gmg::fused

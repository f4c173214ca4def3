#include "gmg/operators.hpp"

#include <array>
#include <cmath>
#include <cstring>

#include "brick/brick_mask.hpp"
#include "brick/brick_plan.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "common/aligned.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "exec/runtime.hpp"
#include "gmg/stencil_rows.hpp"
#include "trace/trace.hpp"

namespace gmg {

// The summaries' read reaches (operators.hpp) restate the stencil
// footprints. A wrong reach would mislead both GMG_CHECK and the
// schedule proof, so each is pinned to its source here.
static_assert(apply_op_effects(1).read_reach("x") ==
                  dsl::laplacian_7pt<0>(1.0, 1.0).offsets().radius(),
              "applyOp reach must be the 7-point Laplacian's");
static_assert(apply_op_effects(2).read_reach("x") ==
                  dsl::star_stencil<2, 0>(std::array<real_t, 3>{1.0, 1.0, 1.0})
                      .offsets()
                      .radius(),
              "13-point applyOp reach must be star_stencil<2>'s");
static_assert(gs_color_sweep_effects().read_reach("x") ==
                  check::star_shape(1).radius(),
              "GS half-sweep x reach must be the 7-point star's");
static_assert(interpolation_trilinear_assign_effects().read_reach("coarse") ==
                  check::interpolation_trilinear_shape().radius(),
              "trilinear prolongation reach must be its coarse footprint's");

namespace {

using detail::for_each_row;

/// Tally a kernel's floating-point work so the trace metrics sink can
/// report achieved flop counts next to the measured span durations.
inline void count_flops(std::uint64_t pts, std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops", pts * flops_per_pt);
}

/// Cell-lane points of `b` for a field with `lanes` lanes.
inline std::uint64_t box_points(const Box& b, index_t lanes = 1) {
  return static_cast<std::uint64_t>(b.volume() * lanes);
}

/// Specialized 7-point star kernel: one detail::star7 call per brick
/// of the cached iteration plan (stencil_rows.hpp) — the whole-brick
/// vector body on full solo bricks, the row body elsewhere. The
/// generic DSL engine (dsl::apply) remains the fallback for arbitrary
/// stencils.
template <typename BD, typename KT, class F>
void apply_op_7pt(BD, KT K, F& Ax, const F& x, real_t alpha, real_t beta,
                  const Box& active, const BrickMask* mask = nullptr) {
  const BrickGrid& grid = x.grid();
  GMG_REQUIRE(&Ax.grid() == &grid, "fields must share a brick grid");
  const real_t* __restrict xp = x.data();
  real_t* __restrict op = Ax.data();

  detail::require_taps_in_grid(BD{}, grid, active, 1);
  const auto plan =
      grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz}, mask);

  for_each_plan_brick<BD>("kernel.applyOp", *plan, [&](const BrickPlanItem& it,
                                                       auto full) {
    real_t* __restrict ob =
        op + static_cast<std::size_t>(it.id * BD::volume * K);
    detail::star7<BD>(it, full, K, xp, alpha, beta,
                      [ob](index_t s, const auto& ax) {
                        detail::store_row(ob + s, ax);
                      });
  });
}

/// Contiguous interior storage range in cells (interior bricks are ids
/// [0, num_interior), each brick one dense block).
template <class F>
std::int64_t interior_cells(const F& a) {
  return static_cast<std::int64_t>(a.grid().num_interior()) *
         static_cast<std::int64_t>(a.shape().volume());
}

// Per-chunk reduction bodies. noinline so every reduction runs the
// exact same compiled loop: a batched lane's gathered chunk handed to
// the same function over the same chunk plan yields partial sums — and
// therefore a fixed reduction tree — bitwise identical to solo.
[[gnu::noinline]] real_t sum_sq_range(const real_t* p, std::int64_t n) {
  real_t sum = 0.0;
#pragma omp simd reduction(+ : sum)
  for (std::int64_t i = 0; i < n; ++i) sum += p[i] * p[i];
  return sum;
}

[[gnu::noinline]] real_t dot_range(const real_t* a, const real_t* b,
                                   std::int64_t n) {
  real_t sum = 0.0;
#pragma omp simd reduction(+ : sum)
  for (std::int64_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// Lane c of the cells [lo, lo + n) as a contiguous span: the field's
/// own storage at K = 1, else a gather into per-thread
/// scratch `slot`. The scratch is 64-byte aligned like the field
/// buffer, whose chunks start at multiples of the element grain, so
/// the shared reduction loop takes the same vector path either way.
template <class KT>
const real_t* lane_span(const real_t* p, KT K, int c, std::int64_t lo,
                        std::int64_t n, int slot) {
  if constexpr (kOneLane<KT>) {
    return p + lo;
  } else {
    static thread_local AlignedBuffer<real_t> scratch[2];
    AlignedBuffer<real_t>& s = scratch[slot];
    if (static_cast<std::int64_t>(s.size()) < n)
      s.reset(static_cast<std::size_t>(n), /*zero=*/false);
    for (std::int64_t i = 0; i < n; ++i)
      s[static_cast<std::size_t>(i)] = p[(lo + i) * K + c];
    return s.data();
  }
}

}  // namespace

template <class F>
void apply_op(F& Ax, const F& x, real_t alpha, real_t beta,
              const Box& active) {
  // 7-point star: 2 multiplies + 6 adds per output cell.
  trace::TraceSpan span("kernel.applyOp");
  count_flops(box_points(active, batch_width(x)), 8);
  const auto scope = check::scope(apply_op_effects(1), active,
                                  {check::bind("Ax", Ax), check::bind("x", x)});
  with_field_dims(x, [&](auto bd, auto K) {
    apply_op_7pt(bd, K, Ax, x, alpha, beta, active);
  });
}

void apply_op(BrickedArray& Ax, const BrickedArray& x, real_t alpha,
              real_t beta, const Box& active, const BrickMask& mask) {
  // Masked variant (AMR composite levels): only bricks selected by
  // `mask` are computed; taps may still read de-selected neighbor
  // bricks, which on a composite level hold the restricted fine
  // solution. The scope stays the conservative active box — the
  // shadow tracker needs no mask awareness.
  trace::TraceSpan span("kernel.applyOpMasked");
  count_flops(box_points(active), 8);
  const auto scope = check::scope(apply_op_effects(1), active,
                                  {check::bind("Ax", Ax), check::bind("x", x)});
  with_brick_dims(x.shape(), [&](auto bd) {
    apply_op_7pt(bd, OneLane{}, Ax, x, alpha, beta, active, &mask);
  });
}

void smooth(BrickedArray& x, const BrickedArray& Ax, const BrickedArray& b,
            real_t gamma, const Box& active) {
  trace::TraceSpan span("kernel.smooth");
  count_flops(box_points(active), 3);
  const auto scope =
      check::scope(smooth_effects(), active,
                   {check::bind("x", x), check::bind("Ax", Ax),
                    check::bind("b", b)});
  with_brick_dims(x.shape(), [&](auto bd) {
    real_t* __restrict xp = x.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    for_each_row(bd, OneLane{}, "kernel.smooth", x.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     xp[o + i] += gamma * (axp[o + i] - bp[o + i]);
                   }
                 });
  });
}

void smooth_residual(BrickedArray& x, BrickedArray& r, const BrickedArray& Ax,
                     const BrickedArray& b, real_t gamma, const Box& active) {
  trace::TraceSpan span("kernel.smoothResidual");
  count_flops(box_points(active), 4);
  const auto scope =
      check::scope(smooth_residual_effects(), active,
                   {check::bind("x", x), check::bind("r", r),
                    check::bind("Ax", Ax), check::bind("b", b)});
  with_brick_dims(x.shape(), [&](auto bd) {
    real_t* __restrict xp = x.data();
    real_t* __restrict rp = r.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    for_each_row(bd, OneLane{}, "kernel.smoothResidual", x.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     const real_t ax = axp[o + i];
                     const real_t rhs = bp[o + i];
                     rp[o + i] = rhs - ax;
                     xp[o + i] += gamma * (ax - rhs);
                   }
                 });
  });
}

template <class F>
void residual(F& r, const F& b, const F& Ax, const Box& active) {
  trace::TraceSpan span("kernel.residual");
  count_flops(box_points(active, batch_width(r)), 1);
  const auto scope =
      check::scope(residual_effects(), active,
                   {check::bind("r", r), check::bind("b", b),
                    check::bind("Ax", Ax)});
  with_field_dims(r, [&](auto bd, auto K) {
    real_t* __restrict rp = r.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    for_each_row(bd, K, "kernel.residual", r.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     rp[o + i] = bp[o + i] - axp[o + i];
                   }
                 });
  });
}

void residual(BrickedArray& r, const BrickedArray& b, const BrickedArray& Ax,
              const Box& active, const BrickMask& mask) {
  trace::TraceSpan span("kernel.residualMasked");
  count_flops(box_points(active), 1);
  const auto scope =
      check::scope(residual_effects(), active,
                   {check::bind("r", r), check::bind("b", b),
                    check::bind("Ax", Ax)});
  with_brick_dims(r.shape(), [&](auto bd) {
    using BD = decltype(bd);
    real_t* __restrict rp = r.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    for_each_row(bd, OneLane{}, "kernel.residualMasked",
                 *r.grid().iteration_plan(
                     active, Vec3{BD::bx, BD::by, BD::bz}, &mask),
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     rp[o + i] = bp[o + i] - axp[o + i];
                   }
                 });
  });
}

template <class F>
void restriction(F& coarse, const F& fine) {
  const Vec3 fe = fine.extent(), ce = coarse.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  // Full-weighting of a 2x2x2 cell block: 7 adds + 1 multiply.
  trace::TraceSpan span("kernel.restriction");
  count_flops(box_points(Box::from_extent(ce), batch_width(fine)), 8);
  GMG_REQUIRE(fine.shape() == coarse.shape(),
              "restriction assumes equal brick shapes on both levels");
  const auto scope = check::scope(
      restriction_effects(), Box::from_extent(fe),
      {check::bind("coarse", coarse, Box::from_extent(ce)),
       check::bind("fine", fine)});
  with_field_dims(fine, [&](auto bd, auto K) {
    using BD = decltype(bd);
    static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
    const BrickGrid& fg = fine.grid();
    const BrickGrid& cg = coarse.grid();
    const real_t* __restrict fp = fine.data();
    real_t* __restrict cp = coarse.data();
    // Interior fine bricks are ids [0, num_interior) in lexicographic
    // order; eight fine bricks write disjoint octants of one coarse
    // brick, so any chunking is race-free.
    exec::parallel_for(
        "kernel.restriction", fg.num_interior(), exec::brick_grain(BD::volume),
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t fid = lo; fid < hi; ++fid) {
            detail::restrict_brick<BD>(
                K, fg.coord_of(static_cast<std::int32_t>(fid)), cg,
                fp + static_cast<std::size_t>(fid * BD::volume * K), cp);
          }
        });
  });
}

template <class F>
void interpolation_increment(F& fine, const F& coarse) {
  const Vec3 fe = fine.extent(), ce = coarse.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  trace::TraceSpan span("kernel.interpIncrement");
  count_flops(box_points(Box::from_extent(fe), batch_width(fine)), 1);
  GMG_REQUIRE(fine.shape() == coarse.shape(),
              "interpolation assumes equal brick shapes on both levels");
  const auto scope = check::scope(
      interpolation_increment_effects(), Box::from_extent(fe),
      {check::bind("fine", fine),
       check::bind("coarse", coarse, Box::from_extent(ce))});
  with_field_dims(fine, [&](auto bd, auto K) {
    using BD = decltype(bd);
    const BrickGrid& fg = fine.grid();
    const BrickGrid& cg = coarse.grid();
    real_t* __restrict fp = fine.data();
    const real_t* __restrict cp = coarse.data();
    const index_t row = BD::bx * K;
    exec::parallel_for(
        "kernel.interpIncrement", fg.num_interior(),
        exec::brick_grain(BD::volume), [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t fid = lo; fid < hi; ++fid) {
            const Vec3 bc = fg.coord_of(static_cast<std::int32_t>(fid));
            const index_t bx = bc.x, by = bc.y, bz = bc.z;
            const std::int32_t cid = cg.storage_id({bx / 2, by / 2, bz / 2});
            GMG_ASSERT(cid >= 0);
            const index_t ox = (bx % 2) * (BD::bx / 2);
            const index_t oy = (by % 2) * (BD::by / 2);
            const index_t oz = (bz % 2) * (BD::bz / 2);
            real_t* fb = fp + static_cast<std::size_t>(fid * BD::volume * K);
            const real_t* cb =
                cp + static_cast<std::size_t>(cid * BD::volume * K);
            for (index_t lk = 0; lk < BD::bz; ++lk) {
              for (index_t lj = 0; lj < BD::by; ++lj) {
                real_t* frow = fb + (lk * BD::by + lj) * row;
                const real_t* crow =
                    cb + ((oz + lk / 2) * BD::by + (oy + lj / 2)) * row +
                    ox * K;
                // Fine element s (lane c of cell li) takes lane c of
                // coarse cell li / 2.
                detail::for_each_cell_lane(BD::bx, K, [&](index_t s) {
                  frow[s] += crow[s / (2 * K) * K + s % K];
                });
              }
            }
          }
        });
  });
}

template <class F>
void gs_color_sweep(F& x, const F& b, real_t alpha, real_t beta, int color,
                    Vec3 origin, const Box& active) {
  GMG_REQUIRE(color == 0 || color == 1, "color must be 0 (red) or 1 (black)");
  // One checkerboard color updates half the cells; ~9 flops each
  // (6 adds, 1 multiply, 1 subtract, 1 divide).
  trace::TraceSpan span("kernel.gsColorSweep");
  count_flops(box_points(active, batch_width(x)) / 2, 9);
  const auto scope = check::scope(gs_color_sweep_effects(), active,
                                  {check::bind("x", x), check::bind("b", b)});
  with_field_dims(x, [&](auto bd, auto K) {
    using BD = decltype(bd);
    const BrickGrid& grid = x.grid();
    GMG_REQUIRE(&b.grid() == &grid, "fields must share a brick grid");
    real_t* __restrict xp = x.data();
    const real_t* __restrict bp = b.data();
    const std::size_t bvol = static_cast<std::size_t>(BD::volume * K);

    detail::require_taps_in_grid(bd, grid, active, 1);
    const auto plan =
        grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});

    // Same-color cells never neighbor each other on the checkerboard,
    // so bricks (and cells within a color) can update concurrently.
    for_each_plan_brick<BD>(
        "kernel.gsColorSweep", *plan, [&](const BrickPlanItem& it, auto full) {
          constexpr bool kFull = decltype(full)::value;
          const auto& adj = it.adj;
          const auto brick_of = [&](int dx, int dy, int dz) {
            const std::int32_t nb = adj[direction_index(dx, dy, dz)];
            GMG_ASSERT(nb >= 0);
            return xp + static_cast<std::size_t>(nb) * bvol;
          };
          real_t* __restrict xb = xp + static_cast<std::size_t>(it.id) * bvol;
          const real_t* __restrict bb =
              bp + static_cast<std::size_t>(it.id) * bvol;

          const Vec3 c3 = it.coord;
          const index_t cx = c3.x * BD::bx, cy = c3.y * BD::by,
                        cz = c3.z * BD::bz;
          const index_t ilo = kFull ? 0 : it.ilo;
          const index_t ihi = kFull ? BD::bx : it.ihi;
          const index_t jlo = kFull ? 0 : it.jlo;
          const index_t jhi = kFull ? BD::by : it.jhi;
          const index_t klo = kFull ? 0 : it.klo;
          const index_t khi = kFull ? BD::bz : it.khi;

          const auto row_at = [&](auto* brick, index_t lj, index_t lk) {
            return brick + (lk * BD::by + lj) * BD::bx * K;
          };

          for (index_t lk = klo; lk < khi; ++lk) {
            for (index_t lj = jlo; lj < jhi; ++lj) {
              real_t* __restrict xr = row_at(xb, lj, lk);
              const real_t* __restrict br = row_at(bb, lj, lk);
              const real_t* __restrict ym =
                  lj > 0 ? row_at(xb, lj - 1, lk)
                         : row_at(brick_of(0, -1, 0), BD::by - 1, lk);
              const real_t* __restrict yprow =
                  lj < BD::by - 1 ? row_at(xb, lj + 1, lk)
                                  : row_at(brick_of(0, 1, 0), 0, lk);
              const real_t* __restrict zm =
                  lk > 0 ? row_at(xb, lj, lk - 1)
                         : row_at(brick_of(0, 0, -1), lj, BD::bz - 1);
              const real_t* __restrict zprow =
                  lk < BD::bz - 1 ? row_at(xb, lj, lk + 1)
                                  : row_at(brick_of(0, 0, 1), lj, 0);
              // Global parity of the first active cell in this row.
              const index_t row_parity =
                  (origin.x + cx + origin.y + cy + lj + origin.z + cz + lk) &
                  1;
              index_t first = ilo + (((color - row_parity - ilo) % 2) + 2) % 2;
              for (index_t li = first; li < ihi; li += 2) {
                for (index_t c = 0; c < K; ++c) {
                  const index_t s = li * K + c;
                  const real_t xm =
                      li > 0 ? xr[s - K]
                             : row_at(brick_of(-1, 0, 0), lj,
                                      lk)[(BD::bx - 1) * K + c];
                  const real_t xpv =
                      li < BD::bx - 1 ? xr[s + K]
                                      : row_at(brick_of(1, 0, 0), lj, lk)[c];
                  xr[s] = (br[s] - beta * (xm + xpv + ym[s] + yprow[s] +
                                           zm[s] + zprow[s])) /
                          alpha;
                }
              }
            }
          }
        });
  });
}

void init_zero(BrickedArray& a) {
  // Writes every brick of the storage, ghosts included.
  const Box bricks = a.grid().extended_box();
  const Vec3 d = a.shape().dims();
  const auto scope = check::scope(
      init_zero_effects(),
      Box{{bricks.lo.x * d.x, bricks.lo.y * d.y, bricks.lo.z * d.z},
          {bricks.hi.x * d.x, bricks.hi.y * d.y, bricks.hi.z * d.z}},
      {check::bind("a", a)});
  real_t* __restrict p = a.data();
  exec::parallel_for("kernel.initZero", static_cast<std::int64_t>(a.size()),
                     exec::kElementGrain, [&](std::int64_t lo, std::int64_t hi) {
                       std::memset(p + lo, 0,
                                   static_cast<std::size_t>(hi - lo) *
                                       sizeof(real_t));
                     });
}

template <class F>
real_t norm2_sq(const F& a, int c) {
  const auto scope = check::scope(
      norm2_sq_effects(), Box::from_extent(a.extent()), {check::bind("a", a)});
  const real_t* __restrict p = a.data();
  // Chunked tree reduction over lane c: per-chunk partial sums combined
  // in fixed chunk order — bitwise reproducible at any worker count and
  // any lane count.
  return with_lanes(a, [&](auto K) {
    return exec::parallel_reduce_sum<real_t>(
        "kernel.norm2", interior_cells(a), exec::kElementGrain,
        [&](std::int64_t lo, std::int64_t hi) {
          return sum_sq_range(lane_span(p, K, c, lo, hi - lo, 0), hi - lo);
        });
  });
}

template <class F>
real_t dot_interior(const F& a, const F& b, int c) {
  GMG_REQUIRE(&a.grid() == &b.grid(), "fields must share a brick grid");
  const auto scope = check::scope(dot_interior_effects(),
                                  Box::from_extent(a.extent()),
                                  {check::bind("a", a), check::bind("b", b)});
  const real_t* __restrict pa = a.data();
  const real_t* __restrict pb = b.data();
  return with_lanes(a, [&](auto K) {
    return exec::parallel_reduce_sum<real_t>(
        "kernel.dot", interior_cells(a), exec::kElementGrain,
        [&](std::int64_t lo, std::int64_t hi) {
          return dot_range(lane_span(pa, K, c, lo, hi - lo, 0),
                           lane_span(pb, K, c, lo, hi - lo, 1), hi - lo);
        });
  });
}

template <class F>
void axpy_interior(F& y, real_t alpha, const F& x, int c) {
  GMG_REQUIRE(&y.grid() == &x.grid(), "fields must share a brick grid");
  const auto scope = check::scope(axpy_interior_effects(),
                                  Box::from_extent(y.extent()),
                                  {check::bind("y", y), check::bind("x", x)});
  real_t* __restrict py = y.data() + c;
  const real_t* __restrict px = x.data() + c;
  with_lanes(y, [&](auto K) {
    exec::parallel_for("kernel.axpy", interior_cells(y), exec::kElementGrain,
                       [&](std::int64_t lo, std::int64_t hi) {
#pragma omp simd
                         for (std::int64_t i = lo; i < hi; ++i)
                           py[i * K] += alpha * px[i * K];
                       });
  });
}

template <class F>
void xpay_interior(F& y, const F& x, real_t beta, int c) {
  GMG_REQUIRE(&y.grid() == &x.grid(), "fields must share a brick grid");
  const auto scope = check::scope(xpay_interior_effects(),
                                  Box::from_extent(y.extent()),
                                  {check::bind("y", y), check::bind("x", x)});
  real_t* __restrict py = y.data() + c;
  const real_t* __restrict px = x.data() + c;
  with_lanes(y, [&](auto K) {
    exec::parallel_for("kernel.xpay", interior_cells(y), exec::kElementGrain,
                       [&](std::int64_t lo, std::int64_t hi) {
#pragma omp simd
                         for (std::int64_t i = lo; i < hi; ++i)
                           py[i * K] = px[i * K] + beta * py[i * K];
                       });
  });
}

template <class F>
void copy_interior(F& dst, const F& src) {
  GMG_REQUIRE(&dst.grid() == &src.grid(), "fields must share a brick grid");
  const auto scope = check::scope(
      copy_interior_effects(), Box::from_extent(dst.extent()),
      {check::bind("dst", dst), check::bind("src", src)});
  real_t* __restrict pd = dst.data();
  const real_t* __restrict ps = src.data();
  exec::parallel_for("kernel.copy", interior_cells(dst) * batch_width(dst),
                     exec::kElementGrain,
                     [&](std::int64_t lo, std::int64_t hi) {
                       std::memcpy(pd + lo, ps + lo,
                                   static_cast<std::size_t>(hi - lo) *
                                       sizeof(real_t));
                     });
}

template <class F>
void axpy(F& y, real_t alpha, const F& x, const Box& active) {
  const auto scope = check::scope(axpy_effects(), active,
                                  {check::bind("y", y), check::bind("x", x)});
  with_field_dims(y, [&](auto bd, auto K) {
    real_t* __restrict py = y.data();
    const real_t* __restrict px = x.data();
    for_each_row(bd, K, "kernel.axpyActive", y.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     py[o + i] += alpha * px[o + i];
                   }
                 });
  });
}

template <class F>
void cheby_p_update(F& p, const F& r, real_t inv_diag, real_t beta,
                    const Box& active) {
  const auto scope = check::scope(cheby_p_update_effects(), active,
                                  {check::bind("p", p), check::bind("r", r)});
  with_field_dims(p, [&](auto bd, auto K) {
    real_t* __restrict pp = p.data();
    const real_t* __restrict pr = r.data();
    for_each_row(bd, K, "kernel.chebyP", p.grid(), active,
                 [&](std::size_t o, index_t ilo, index_t ihi) {
#pragma omp simd
                   for (index_t i = ilo; i < ihi; ++i) {
                     pp[o + i] = inv_diag * pr[o + i] + beta * pp[o + i];
                   }
                 });
  });
}

void interpolation_trilinear_assign(BrickedArray& fine,
                                    const BrickedArray& coarse) {
  const Vec3 fe = fine.extent(), ce = coarse.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  // Element-accessor implementation: this transfer runs once per FMG
  // level, not in the V-cycle hot path. Chunked over k-planes (each
  // fine cell writes only its own plane).
  const Box interior = Box::from_extent(fe);
  const auto scope = check::scope(
      interpolation_trilinear_assign_effects(), interior,
      {check::bind("fine", fine),
       check::bind("coarse", coarse, Box::from_extent(ce))});
  exec::parallel_for(
      "kernel.interpTrilinear", fe.z, 1, [&](std::int64_t klo, std::int64_t khi) {
        for (index_t k = static_cast<index_t>(klo);
             k < static_cast<index_t>(khi); ++k) {
          for (index_t j = interior.lo.y; j < interior.hi.y; ++j) {
            for (index_t i = interior.lo.x; i < interior.hi.x; ++i) {
              const index_t ci = floor_div(i, 2), cj = floor_div(j, 2),
                            ck = floor_div(k, 2);
              // Neighbor side per axis: a fine cell sits 1/4 coarse cell
              // off its parent's center, toward -1 for even indices, +1
              // for odd.
              const index_t si = (i % 2 == 0) ? -1 : 1;
              const index_t sj = (j % 2 == 0) ? -1 : 1;
              const index_t sk = (k % 2 == 0) ? -1 : 1;
              real_t v = 0;
              for (int dz = 0; dz < 2; ++dz) {
                for (int dy = 0; dy < 2; ++dy) {
                  for (int dx = 0; dx < 2; ++dx) {
                    const real_t w = (dx ? 0.25 : 0.75) * (dy ? 0.25 : 0.75) *
                                     (dz ? 0.25 : 0.75);
                    v += w * coarse(ci + dx * si, cj + dy * sj, ck + dz * sk);
                  }
                }
              }
              fine(i, j, k) = v;
            }
          }
        }
      });
}

template <class F>
real_t max_norm(const F& a, int c) {
  const auto scope = check::scope(
      max_norm_effects(), Box::from_extent(a.extent()), {check::bind("a", a)});
  real_t m = 0.0;
  with_field_dims(a, [&](auto bd, auto K) {
    using BD = decltype(bd);
    const real_t* __restrict p = a.data() + c;
    // Interior bricks occupy storage ids [0, num_interior) — scan lane
    // c of them as one flat range (fp max is exact under any
    // association, so the strided lanes need no gather).
    const std::int64_t n =
        static_cast<std::int64_t>(a.grid().num_interior()) * BD::volume;
    m = exec::parallel_reduce_max<real_t>(
        "kernel.maxNorm", n, exec::kElementGrain,
        [&](std::int64_t lo, std::int64_t hi) {
          real_t local = 0.0;
#pragma omp simd reduction(max : local)
          for (std::int64_t i = lo; i < hi; ++i) {
            local = std::max(local, detail::norm_term(p[i * K]));
          }
          return local;
        });
  });
  return m;
}

// The one kernel set, instantiated for both field types.
#define GMG_OPERATORS(F)                                                    \
  template void apply_op(F&, const F&, real_t, real_t, const Box&);        \
  template void residual(F&, const F&, const F&, const Box&);              \
  template void restriction(F&, const F&);                                  \
  template void interpolation_increment(F&, const F&);                      \
  template void gs_color_sweep(F&, const F&, real_t, real_t, int, Vec3,     \
                               const Box&);                                 \
  template real_t max_norm(const F&, int);                                  \
  template real_t norm2_sq(const F&, int);                                  \
  template real_t dot_interior(const F&, const F&, int);                    \
  template void axpy_interior(F&, real_t, const F&, int);                   \
  template void xpay_interior(F&, const F&, real_t, int);                   \
  template void copy_interior(F&, const F&);                                \
  template void axpy(F&, real_t, const F&, const Box&);                     \
  template void cheby_p_update(F&, const F&, real_t, real_t, const Box&);
GMG_OPERATORS(BrickedArray)
GMG_OPERATORS(BatchedBrickedArray)
#undef GMG_OPERATORS

}  // namespace gmg

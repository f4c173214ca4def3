#include "batch/batched_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "batch/apply_batch.hpp"
#include "brick/brick_plan.hpp"
#include "check/shadow.hpp"
#include "common/aligned.hpp"
#include "exec/runtime.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "trace/trace.hpp"

namespace gmg::batch {

namespace {

inline void count_flops(std::uint64_t pts, std::uint64_t flops_per_pt) {
  trace::counter_add("gmg.flops", pts * flops_per_pt);
}

inline std::uint64_t batch_points(const Box& active,
                                  const BatchedBrickedArray& a) {
  return static_cast<std::uint64_t>(active.volume()) *
         static_cast<std::uint64_t>(a.batch());
}

/// Row visitor over the BASE brick plan — the twin of operators.cpp's
/// for_each_row. fn(base_row_offset, ilo, ihi) in BASE flat elements;
/// callers expand to the stretched storage via flat index
/// (base + i) * K + c. Full bricks collapse to one whole-brick call.
template <typename BD, typename Fn>
void for_each_row_b(BD, const char* name, const BrickGrid& grid,
                    const Box& active, Fn&& fn) {
  const auto plan =
      grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  for_each_plan_brick<BD>(name, *plan, [&](const BrickPlanItem& it,
                                           auto full) {
    const std::size_t brick_base = static_cast<std::size_t>(it.id) * BD::volume;
    if constexpr (decltype(full)::value) {
      fn(brick_base, index_t{0}, static_cast<index_t>(BD::volume));
    } else {
      for (index_t lk = it.klo; lk < it.khi; ++lk) {
        for (index_t lj = it.jlo; lj < it.jhi; ++lj) {
          fn(brick_base +
                 static_cast<std::size_t>((lk * BD::by + lj) * BD::bx),
             static_cast<index_t>(it.ilo), static_cast<index_t>(it.ihi));
        }
      }
    }
  });
}

/// 8->1 full weighting of ONE fine brick (all K components) into its
/// coarse octant — batched restriction()'s per-brick body verbatim
/// (same row pointers, same 0.125 * 8-term summation order), so fused
/// coarse RHS values are bitwise identical to the split pass. `bc` is
/// the fine brick's grid coordinate; `fb` points at its stretched
/// (freshly written) residual.
template <typename BD>
inline void restrict_brick_b(index_t K, const Vec3& bc, const BrickGrid& cg,
                             const real_t* __restrict fb,
                             real_t* __restrict cp) {
  const index_t bx = bc.x, by = bc.y, bz = bc.z;
  const std::int32_t cid = cg.storage_id({bx / 2, by / 2, bz / 2});
  GMG_ASSERT(cid >= 0);
  const index_t ox = (bx % 2) * (BD::bx / 2);
  const index_t oy = (by % 2) * (BD::by / 2);
  const index_t oz = (bz % 2) * (BD::bz / 2);
  const std::size_t bvol =
      static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
  real_t* cb = cp + static_cast<std::size_t>(cid) * bvol;
  for (index_t lk = 0; lk < BD::bz; lk += 2) {
    for (index_t lj = 0; lj < BD::by; lj += 2) {
      const real_t* r0 = fb + (lk * BD::by + lj) * BD::bx * K;
      const real_t* r1 = r0 + BD::bx * K;           // j+1
      const real_t* r2 = r0 + BD::by * BD::bx * K;  // k+1
      const real_t* r3 = r2 + BD::bx * K;           // j+1, k+1
      real_t* crow =
          cb + (((oz + lk / 2) * BD::by + (oy + lj / 2)) * BD::bx + ox) * K;
      for (index_t li = 0; li < BD::bx / 2; ++li) {
        const index_t f = 2 * li * K;
#pragma omp simd
        for (index_t c = 0; c < K; ++c) {
          crow[li * K + c] =
              0.125 * (r0[f + c] + r0[f + K + c] + r1[f + c] + r1[f + K + c] +
                       r2[f + c] + r2[f + K + c] + r3[f + c] + r3[f + K + c]);
        }
      }
    }
  }
}

/// The batched twin of gmg::fused's brick_pass: one pass over the
/// bricks of `active` running `pointwise(base_row_offset, ilo, ihi)` on
/// every BASE row (chunked exactly as for_each_row_b) and, with a coarse
/// array `cp`, the 8->1 restriction of each INTERIOR brick's
/// just-written residual. Interior bricks are full plan items there
/// (the caller's region cuts the interior only at brick boundaries);
/// clipped items are ghost-shell bricks.
template <typename BD, typename PointwiseRow>
void descent_pass_b(BD, const char* name, const BrickGrid& fg,
                    const BrickGrid* cg, index_t K,
                    const real_t* __restrict rp, real_t* __restrict cp,
                    const Box& active, PointwiseRow&& pointwise) {
  const std::int64_t ni = fg.num_interior();
  const std::size_t bvol =
      static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
  const auto plan = fg.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  for_each_plan_brick<BD>(name, *plan, [&](const BrickPlanItem& it,
                                           auto full) {
    const std::size_t base = static_cast<std::size_t>(it.id) * BD::volume;
    if constexpr (decltype(full)::value) {
      pointwise(base, index_t{0}, static_cast<index_t>(BD::volume));
      if (cp != nullptr && it.id < ni) {
        restrict_brick_b<BD>(K, it.coord, *cg,
                             rp + static_cast<std::size_t>(it.id) * bvol, cp);
      }
    } else {
      GMG_ASSERT(cp == nullptr || it.id >= ni);
      for (index_t lk = it.klo; lk < it.khi; ++lk) {
        for (index_t lj = it.jlo; lj < it.jhi; ++lj) {
          pointwise(base +
                        static_cast<std::size_t>((lk * BD::by + lj) * BD::bx),
                    static_cast<index_t>(it.ilo),
                    static_cast<index_t>(it.ihi));
        }
      }
    }
  });
}

/// Tap cover check in BASE bricks (ghost depth is one base brick on the
/// stretched storage exactly as on solo storage).
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

/// Contiguous interior range in BASE elements (interior bricks are ids
/// [0, num_interior)); the matching stretched range is K times longer.
std::int64_t interior_span_base(const BatchedBrickedArray& a) {
  return static_cast<std::int64_t>(a.grid().num_interior()) *
         static_cast<std::int64_t>(a.base_shape().volume());
}

void require_compatible(const BatchedBrickedArray& a,
                        const BatchedBrickedArray& b) {
  GMG_REQUIRE(&a.grid() == &b.grid(), "fields must share a brick grid");
  GMG_REQUIRE(a.batch() == b.batch() && a.base_shape() == b.base_shape(),
              "fields must share batch size and base brick shape");
}

/// Argument checks of a restricting update (stretched extents in x,
/// BASE `active` coordinates). Returns the interior part of `active`,
/// which must cut the interior only at brick boundaries.
Box require_restrict_args_b(const BatchedBrickedArray& r,
                            const BatchedBrickedArray& coarse_b,
                            const Box& active) {
  const Vec3 fe = r.inner().extent(), ce = coarse_b.inner().extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(r.base_shape() == coarse_b.base_shape() &&
                  r.batch() == coarse_b.batch(),
              "fused restriction assumes equal base shapes and batch sizes");
  const index_t K = static_cast<index_t>(r.batch());
  const Box fine =
      intersect(active, Box::from_extent({fe.x / K, fe.y, fe.z}));
  if (fine.empty()) return Box{};
  const Vec3 d = r.base_shape().dims();
  for (int a = 0; a < 3; ++a) {
    GMG_REQUIRE(fine.lo[a] % d[a] == 0 && fine.hi[a] % d[a] == 0,
                "a restricting jacobi update region must cut the interior "
                "at brick boundaries");
  }
  return fine;
}

/// 64-byte-aligned per-thread gather scratch for the '+'-reductions.
/// The alignment matters for bitwise identity: solo hands
/// detail::sum_sq_range pointers at p + lo with lo a multiple of the
/// element grain, preserving the field buffer's 64-byte alignment —
/// the gathered chunk must present the same alignment so the shared
/// compiled loop takes the same vector path.
using AlignedVec = AlignedBuffer<real_t>;

AlignedVec& tl_scratch(int which) {
  static thread_local AlignedVec bufs[2];
  return bufs[which];
}

void scratch_reserve(AlignedVec& s, std::int64_t n) {
  if (static_cast<std::int64_t>(s.size()) < n) {
    s.reset(static_cast<std::size_t>(n), /*zero=*/false);
  }
}

/// Batched 7-point star — the stretched-storage twin of operators.cpp's
/// apply_op_7pt. Row pointers carry all K components interleaved; the
/// SIMD core runs flat over [core_lo*K, core_hi*K) where the x-axis
/// taps sit at +-K, and the two x-boundary patch-ups loop over
/// components with the solo tap summation order (xm + xp + ym + yp +
/// zm + zp) kept identical.
template <typename BD>
void apply_op_7pt_b(BD, BatchedBrickedArray& Ax, const BatchedBrickedArray& x,
                    real_t alpha, real_t beta, const Box& active) {
  const BrickGrid& grid = x.grid();
  const index_t K = static_cast<index_t>(x.batch());
  const real_t* __restrict xp = x.data();
  real_t* __restrict op = Ax.data();

  require_taps_in_grid(BD{}, grid, active, 1);
  const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});

  for_each_plan_brick<BD>("kernel.applyOp", *plan, [&](const BrickPlanItem& it,
                                                       auto full) {
    constexpr bool kFull = decltype(full)::value;
    const auto& adj = it.adj;
    const std::size_t bvol =
        static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
    const auto brick_of = [&](int dx, int dy, int dz) {
      const std::int32_t b = adj[direction_index(dx, dy, dz)];
      GMG_ASSERT(b >= 0);
      return xp + static_cast<std::size_t>(b) * bvol;
    };
    const real_t* __restrict xb = xp + static_cast<std::size_t>(it.id) * bvol;
    real_t* __restrict ob = op + static_cast<std::size_t>(it.id) * bvol;

    const index_t ilo = kFull ? 0 : it.ilo;
    const index_t ihi = kFull ? BD::bx : it.ihi;
    const index_t jlo = kFull ? 0 : it.jlo;
    const index_t jhi = kFull ? BD::by : it.jhi;
    const index_t klo = kFull ? 0 : it.klo;
    const index_t khi = kFull ? BD::bz : it.khi;

    constexpr index_t kRow = BD::bx;
    constexpr index_t kPlane = BD::bx * BD::by;
    const auto row_at = [&](const real_t* brick, index_t lj, index_t lk) {
      return brick + (lk * kPlane + lj * kRow) * K;
    };

    for (index_t lk = klo; lk < khi; ++lk) {
      for (index_t lj = jlo; lj < jhi; ++lj) {
        const real_t* __restrict xr = row_at(xb, lj, lk);
        const real_t* __restrict ym =
            lj > 0 ? row_at(xb, lj - 1, lk)
                   : row_at(brick_of(0, -1, 0), BD::by - 1, lk);
        const real_t* __restrict yp =
            lj < BD::by - 1 ? row_at(xb, lj + 1, lk)
                            : row_at(brick_of(0, 1, 0), 0, lk);
        const real_t* __restrict zm =
            lk > 0 ? row_at(xb, lj, lk - 1)
                   : row_at(brick_of(0, 0, -1), lj, BD::bz - 1);
        const real_t* __restrict zp =
            lk < BD::bz - 1 ? row_at(xb, lj, lk + 1)
                            : row_at(brick_of(0, 0, 1), lj, 0);
        real_t* __restrict orow = ob + (lk * kPlane + lj * kRow) * K;

        const index_t core_lo = kFull ? 1 : std::max<index_t>(ilo, 1);
        const index_t core_hi =
            kFull ? BD::bx - 1 : std::min<index_t>(ihi, BD::bx - 1);
#pragma omp simd
        for (index_t s = core_lo * K; s < core_hi * K; ++s) {
          orow[s] = alpha * xr[s] +
                    beta * (xr[s - K] + xr[s + K] + ym[s] + yp[s] + zm[s] +
                            zp[s]);
        }
        if (kFull || ilo == 0) {
          const real_t* __restrict nb = row_at(brick_of(-1, 0, 0), lj, lk);
          for (index_t c = 0; c < K; ++c) {
            const real_t xm = nb[(BD::bx - 1) * K + c];
            orow[c] = alpha * xr[c] +
                      beta * (xm + xr[K + c] + ym[c] + yp[c] + zm[c] + zp[c]);
          }
        }
        if (kFull || ihi == BD::bx) {
          constexpr index_t e = BD::bx - 1;
          const real_t* __restrict nb = row_at(brick_of(1, 0, 0), lj, lk);
          for (index_t c = 0; c < K; ++c) {
            const index_t ei = e * K + c;
            const real_t xpv = nb[c];
            orow[ei] = alpha * xr[ei] +
                       beta * (xr[ei - K] + xpv + ym[ei] + yp[ei] + zm[ei] +
                               zp[ei]);
          }
        }
      }
    }
  });
}

}  // namespace

void apply_op(BatchedBrickedArray& Ax, const BatchedBrickedArray& x,
              real_t alpha, real_t beta, const Box& active) {
  require_compatible(Ax, x);
  trace::TraceSpan span("kernel.applyOp");
  count_flops(batch_points(active, x), 8);
  const auto scope = check::scope_if_enabled(
      "kernel.applyOp",
      {check::access(Ax.inner(), stretch_box(active, Ax.batch()))},
      {check::access(x.inner(), stretch_box(grow(active, 1), x.batch()))});
  with_brick_dims(x.base_shape(), [&](auto bd) {
    apply_op_7pt_b(bd, Ax, x, alpha, beta, active);
  });
}

void residual(BatchedBrickedArray& r, const BatchedBrickedArray& b,
              const BatchedBrickedArray& Ax, const Box& active) {
  require_compatible(r, b);
  require_compatible(r, Ax);
  trace::TraceSpan span("kernel.residual");
  count_flops(batch_points(active, r), 1);
  const auto scope = check::scope_if_enabled(
      "kernel.residual",
      {check::access(r.inner(), stretch_box(active, r.batch()))},
      {check::access(b.inner(), stretch_box(active, r.batch())),
       check::access(Ax.inner(), stretch_box(active, r.batch()))});
  with_brick_dims(r.base_shape(), [&](auto bd) {
    const index_t K = static_cast<index_t>(r.batch());
    real_t* __restrict rp = r.data();
    const real_t* __restrict axp = Ax.data();
    const real_t* __restrict bp = b.data();
    for_each_row_b(bd, "kernel.residual", r.grid(), active,
                   [&](std::size_t o, index_t ilo, index_t ihi) {
                     const std::size_t ob = o * static_cast<std::size_t>(K);
#pragma omp simd
                     for (index_t s = ilo * K; s < ihi * K; ++s) {
                       rp[ob + s] = bp[ob + s] - axp[ob + s];
                     }
                   });
  });
}

void restriction(BatchedBrickedArray& coarse, const BatchedBrickedArray& fine) {
  const Vec3 fe = fine.inner().extent(), ce = coarse.inner().extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(fine.base_shape() == coarse.base_shape() &&
                  fine.batch() == coarse.batch(),
              "restriction assumes equal base shapes and batch sizes");
  trace::TraceSpan span("kernel.restriction");
  count_flops(static_cast<std::uint64_t>(ce.x) * ce.y * ce.z, 8);
  const auto scope = check::scope_if_enabled(
      "kernel.restriction",
      {check::access(coarse.inner(), Box::from_extent(ce))},
      {check::access(fine.inner(), Box::from_extent(fe))});
  with_brick_dims(fine.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
    const index_t K = static_cast<index_t>(fine.batch());
    const std::size_t bvol =
        static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
    const BrickGrid& fg = fine.grid();
    const BrickGrid& cg = coarse.grid();
    const real_t* __restrict fp = fine.data();
    real_t* __restrict cp = coarse.data();
    exec::parallel_for(
        "kernel.restriction", fg.num_interior(), exec::brick_grain(BD::volume),
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t fid = lo; fid < hi; ++fid) {
            const Vec3 bc = fg.coord_of(static_cast<std::int32_t>(fid));
            const index_t bx = bc.x, by = bc.y, bz = bc.z;
            const std::int32_t cid = cg.storage_id({bx / 2, by / 2, bz / 2});
            GMG_ASSERT(cid >= 0);
            const index_t ox = (bx % 2) * (BD::bx / 2);
            const index_t oy = (by % 2) * (BD::by / 2);
            const index_t oz = (bz % 2) * (BD::bz / 2);
            const real_t* fb = fp + static_cast<std::size_t>(fid) * bvol;
            real_t* cb = cp + static_cast<std::size_t>(cid) * bvol;
            for (index_t lk = 0; lk < BD::bz; lk += 2) {
              for (index_t lj = 0; lj < BD::by; lj += 2) {
                const real_t* r0 = fb + (lk * BD::by + lj) * BD::bx * K;
                const real_t* r1 = r0 + BD::bx * K;           // j+1
                const real_t* r2 = r0 + BD::by * BD::bx * K;  // k+1
                const real_t* r3 = r2 + BD::bx * K;           // j+1, k+1
                real_t* crow =
                    cb +
                    (((oz + lk / 2) * BD::by + (oy + lj / 2)) * BD::bx + ox) *
                        K;
                for (index_t li = 0; li < BD::bx / 2; ++li) {
                  const index_t f = 2 * li * K;
#pragma omp simd
                  for (index_t c = 0; c < K; ++c) {
                    crow[li * K + c] =
                        0.125 * (r0[f + c] + r0[f + K + c] + r1[f + c] +
                                 r1[f + K + c] + r2[f + c] + r2[f + K + c] +
                                 r3[f + c] + r3[f + K + c]);
                  }
                }
              }
            }
          }
        });
  });
}

void jacobi_update(BatchedBrickedArray& x_next, BatchedBrickedArray* r,
                   BatchedBrickedArray* coarse_b, const BatchedBrickedArray& x,
                   const BatchedBrickedArray& b, real_t w,
                   const BrickedArray* diag, const Box& active) {
  GMG_REQUIRE(x_next.data() != x.data(),
              "jacobi update output aliases its input x");
  require_compatible(x_next, x);
  require_compatible(x_next, b);
  if (r != nullptr) require_compatible(x_next, *r);
  Box fine;
  if (coarse_b != nullptr) {
    GMG_REQUIRE(r != nullptr, "a restricting jacobi update writes r");
    fine = require_restrict_args_b(*r, *coarse_b, active);
  }
  trace::TraceSpan span("kernel.jacobiUpdate");
  count_flops(batch_points(active, x),
              (diag != nullptr ? 5 : 3) + (r != nullptr ? 1 : 0));
  if (coarse_b != nullptr) count_flops(batch_points(fine, x) / 8, 8);
  std::optional<check::KernelScope> scope;
  if (check::enabled()) {
    const int k = x.batch();
    std::vector<check::Access> writes{
        check::access(x_next.inner(), stretch_box(active, k))};
    std::vector<check::Access> reads{
        check::access(x_next.inner(), stretch_box(active, k)),
        check::access(x.inner(), stretch_box(active, k)),
        check::access(b.inner(), stretch_box(active, k))};
    if (diag != nullptr) reads.push_back(check::access(*diag, active));
    if (r != nullptr)
      writes.push_back(check::access(r->inner(), stretch_box(active, k)));
    if (coarse_b != nullptr && !fine.empty()) {
      writes.push_back(check::access(coarse_b->inner(),
                                     stretch_box(coarsen(fine, 2), k)));
      reads.push_back(check::access(r->inner(), stretch_box(fine, k)));
    }
    scope.emplace("kernel.jacobiUpdate", std::move(writes), std::move(reads));
  }
  with_brick_dims(x.base_shape(), [&](auto bd) {
    const index_t K = static_cast<index_t>(x.batch());
    real_t* __restrict xn = x_next.data();
    real_t* __restrict rp = r != nullptr ? r->data() : nullptr;
    const real_t* __restrict xp = x.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict dp = diag != nullptr ? diag->data() : nullptr;
    // x' = x + scale*(A*x - b) over the A*x x_next holds on entry, and
    // r = b - A*x: the solo update arithmetic verbatim, with scale = w,
    // or -w/diag shared across the batch.
    const auto pass = [&](auto res) {
      constexpr bool kRes = decltype(res)::value;
      descent_pass_b(
          bd, "kernel.jacobiUpdate", x.grid(),
          coarse_b != nullptr ? &coarse_b->grid() : nullptr, K, rp,
          coarse_b != nullptr ? coarse_b->data() : nullptr, active,
          [&](std::size_t o, index_t ilo, index_t ihi) {
            if (dp == nullptr) {
              const std::size_t ob = o * static_cast<std::size_t>(K);
#pragma omp simd
              for (index_t s = ilo * K; s < ihi * K; ++s) {
                const real_t ax = xn[ob + s];
                const real_t rhs = bp[ob + s];
                if constexpr (kRes) rp[ob + s] = rhs - ax;
                xn[ob + s] = xp[ob + s] + w * (ax - rhs);
              }
              return;
            }
            for (index_t i = ilo; i < ihi; ++i) {
              const real_t g = -w / dp[o + i];
              const std::size_t e = (o + i) * static_cast<std::size_t>(K);
              for (index_t c = 0; c < K; ++c) {
                const real_t ax = xn[e + c];
                const real_t rhs = bp[e + c];
                if constexpr (kRes) rp[e + c] = rhs - ax;
                xn[e + c] = xp[e + c] + g * (ax - rhs);
              }
            }
          });
    };
    if (r != nullptr)
      pass(std::true_type{});
    else
      pass(std::false_type{});
  });
}

void residual_restrict(BatchedBrickedArray& r, BatchedBrickedArray& coarse_b,
                       const BatchedBrickedArray& b,
                       const BatchedBrickedArray& Ax) {
  require_compatible(r, b);
  require_compatible(r, Ax);
  const Vec3 fe = r.inner().extent(), ce = coarse_b.inner().extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(r.base_shape() == coarse_b.base_shape() &&
                  r.batch() == coarse_b.batch(),
              "fused restriction assumes equal base shapes and batch sizes");
  trace::TraceSpan span("kernel.residualRestrict");
  count_flops(static_cast<std::uint64_t>(fe.x) * fe.y * fe.z, 1);
  count_flops(static_cast<std::uint64_t>(ce.x) * ce.y * ce.z, 8);
  const auto scope = check::scope_if_enabled(
      "kernel.residualRestrict",
      {check::access(r.inner(), Box::from_extent(fe)),
       check::access(coarse_b.inner(), Box::from_extent(ce))},
      {check::access(b.inner(), Box::from_extent(fe)),
       check::access(Ax.inner(), Box::from_extent(fe)),
       check::access(r.inner(), Box::from_extent(fe))});
  with_brick_dims(r.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    static_assert(BD::bx % 2 == 0 && BD::by % 2 == 0 && BD::bz % 2 == 0);
    const index_t K = static_cast<index_t>(r.batch());
    const std::size_t bvol =
        static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
    const BrickGrid& fg = r.grid();
    const BrickGrid& cg = coarse_b.grid();
    real_t* __restrict rp = r.data();
    real_t* __restrict cp = coarse_b.data();
    const real_t* __restrict bp = b.data();
    const real_t* __restrict axp = Ax.data();
    // Interior fine bricks are ids [0, num_interior): per brick, the
    // flat stretched residual rows then the octant copy from the
    // residual still in cache. Race-free under any chunking (disjoint
    // r bricks, disjoint coarse octants).
    exec::parallel_for(
        "kernel.residualRestrict", fg.num_interior(),
        exec::brick_grain(BD::volume), [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t fid = lo; fid < hi; ++fid) {
            const std::size_t base = static_cast<std::size_t>(fid) * bvol;
            const index_t n = static_cast<index_t>(BD::volume) * K;
#pragma omp simd
            for (index_t s = 0; s < n; ++s) {
              rp[base + s] = bp[base + s] - axp[base + s];
            }
            restrict_brick_b<BD>(K,
                                 fg.coord_of(static_cast<std::int32_t>(fid)),
                                 cg, rp + base, cp);
          }
        });
  });
}

void interpolation_increment(BatchedBrickedArray& fine,
                             const BatchedBrickedArray& coarse) {
  const Vec3 fe = fine.inner().extent(), ce = coarse.inner().extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  GMG_REQUIRE(fine.base_shape() == coarse.base_shape() &&
                  fine.batch() == coarse.batch(),
              "interpolation assumes equal base shapes and batch sizes");
  trace::TraceSpan span("kernel.interpIncrement");
  count_flops(static_cast<std::uint64_t>(fe.x) * fe.y * fe.z, 1);
  const auto scope = check::scope_if_enabled(
      "kernel.interpIncrement",
      {check::access(fine.inner(), Box::from_extent(fe))},
      {check::access(coarse.inner(), Box::from_extent(ce))});
  with_brick_dims(fine.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    const index_t K = static_cast<index_t>(fine.batch());
    const std::size_t bvol =
        static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
    const BrickGrid& fg = fine.grid();
    const BrickGrid& cg = coarse.grid();
    real_t* __restrict fp = fine.data();
    const real_t* __restrict cp = coarse.data();
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
            real_t* fb = fp + static_cast<std::size_t>(fid) * bvol;
            const real_t* cb = cp + static_cast<std::size_t>(cid) * bvol;
            for (index_t lk = 0; lk < BD::bz; ++lk) {
              for (index_t lj = 0; lj < BD::by; ++lj) {
                real_t* frow = fb + (lk * BD::by + lj) * BD::bx * K;
                const real_t* crow =
                    cb +
                    (((oz + lk / 2) * BD::by + (oy + lj / 2)) * BD::bx + ox) *
                        K;
                for (index_t li = 0; li < BD::bx; ++li) {
#pragma omp simd
                  for (index_t c = 0; c < K; ++c) {
                    frow[li * K + c] += crow[(li / 2) * K + c];
                  }
                }
              }
            }
          }
        });
  });
}

void gs_color_sweep(BatchedBrickedArray& x, const BatchedBrickedArray& b,
                    real_t alpha, real_t beta, int color, Vec3 origin,
                    const Box& active) {
  GMG_REQUIRE(color == 0 || color == 1, "color must be 0 (red) or 1 (black)");
  require_compatible(x, b);
  trace::TraceSpan span("kernel.gsColorSweep");
  count_flops(batch_points(active, x) / 2, 9);
  const auto scope = check::scope_if_enabled(
      "kernel.gsColorSweep",
      {check::access(x.inner(), stretch_box(active, x.batch()))},
      {check::access(x.inner(), stretch_box(grow(active, 1), x.batch())),
       check::access(b.inner(), stretch_box(active, x.batch()))});
  with_brick_dims(x.base_shape(), [&](auto bd) {
    using BD = decltype(bd);
    const BrickGrid& grid = x.grid();
    const index_t K = static_cast<index_t>(x.batch());
    const std::size_t bvol =
        static_cast<std::size_t>(BD::volume) * static_cast<std::size_t>(K);
    real_t* __restrict xp = x.data();
    const real_t* __restrict bp = b.data();

    require_taps_in_grid(bd, grid, active, 1);
    const auto plan =
        grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});

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

          constexpr index_t kRow = BD::bx;
          constexpr index_t kPlane = BD::bx * BD::by;
          const auto row_at = [&](const real_t* brick, index_t lj,
                                  index_t lk) {
            return brick + (lk * kPlane + lj * kRow) * K;
          };

          for (index_t lk = klo; lk < khi; ++lk) {
            for (index_t lj = jlo; lj < jhi; ++lj) {
              real_t* __restrict xr = xb + (lk * kPlane + lj * kRow) * K;
              const real_t* __restrict br =
                  bb + (lk * kPlane + lj * kRow) * K;
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
              const index_t row_parity =
                  (origin.x + cx + origin.y + cy + lj + origin.z + cz + lk) &
                  1;
              index_t first = ilo + (((color - row_parity - ilo) % 2) + 2) % 2;
              for (index_t li = first; li < ihi; li += 2) {
                const real_t* __restrict xmrow =
                    li > 0 ? xr + (li - 1) * K
                           : row_at(brick_of(-1, 0, 0), lj, lk) +
                                 (BD::bx - 1) * K;
                const real_t* __restrict xprow2 =
                    li < BD::bx - 1 ? xr + (li + 1) * K
                                    : row_at(brick_of(1, 0, 0), lj, lk);
                for (index_t c = 0; c < K; ++c) {
                  const index_t li_c = li * K + c;
                  xr[li_c] =
                      (br[li_c] - beta * (xmrow[c] + xprow2[c] + ym[li_c] +
                                          yprow[li_c] + zm[li_c] +
                                          zprow[li_c])) /
                      alpha;
                }
              }
            }
          }
        });
  });
}

void init_zero(BatchedBrickedArray& a) { gmg::init_zero(a.inner()); }

real_t max_norm(const BatchedBrickedArray& a, int c) {
  // fp max is exactly associative, so a direct strided reduce matches
  // solo regardless of chunking or vectorization.
  const real_t* __restrict p = a.data();
  const std::size_t K = static_cast<std::size_t>(a.batch());
  const std::size_t cc = static_cast<std::size_t>(c);
  return exec::parallel_reduce_max<real_t>(
      "kernel.maxNorm", interior_span_base(a), exec::kElementGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        real_t local = 0.0;
        for (std::int64_t i = lo; i < hi; ++i) {
          local = std::max(
              local, std::abs(p[static_cast<std::size_t>(i) * K + cc]));
        }
        return local;
      });
}

real_t norm2_sq(const BatchedBrickedArray& a, int c) {
  // Same chunk plan, same noinline per-chunk body, same 64-byte chunk
  // alignment as solo norm2_sq — the partial sums and the fixed
  // combine-in-chunk-order tree are bitwise identical to a solo field
  // holding component c's values.
  const real_t* __restrict p = a.data();
  const std::size_t K = static_cast<std::size_t>(a.batch());
  const std::size_t cc = static_cast<std::size_t>(c);
  return exec::parallel_reduce_sum<real_t>(
      "kernel.norm2", interior_span_base(a), exec::kElementGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        AlignedVec& s = tl_scratch(0);
        const std::int64_t n = hi - lo;
        scratch_reserve(s, n);
        for (std::int64_t i = 0; i < n; ++i) {
          s[static_cast<std::size_t>(i)] =
              p[static_cast<std::size_t>(lo + i) * K + cc];
        }
        return gmg::detail::sum_sq_range(s.data(), n);
      });
}

real_t dot_interior(const BatchedBrickedArray& a, const BatchedBrickedArray& b,
                    int c) {
  require_compatible(a, b);
  const real_t* __restrict pa = a.data();
  const real_t* __restrict pb = b.data();
  const std::size_t K = static_cast<std::size_t>(a.batch());
  const std::size_t cc = static_cast<std::size_t>(c);
  return exec::parallel_reduce_sum<real_t>(
      "kernel.dot", interior_span_base(a), exec::kElementGrain,
      [&](std::int64_t lo, std::int64_t hi) {
        AlignedVec& sa = tl_scratch(0);
        AlignedVec& sb = tl_scratch(1);
        const std::int64_t n = hi - lo;
        scratch_reserve(sa, n);
        scratch_reserve(sb, n);
        for (std::int64_t i = 0; i < n; ++i) {
          const std::size_t e = static_cast<std::size_t>(lo + i) * K + cc;
          sa[static_cast<std::size_t>(i)] = pa[e];
          sb[static_cast<std::size_t>(i)] = pb[e];
        }
        return gmg::detail::dot_range(sa.data(), sb.data(), n);
      });
}

void axpy_interior(BatchedBrickedArray& y, real_t alpha,
                   const BatchedBrickedArray& x, int c) {
  require_compatible(y, x);
  real_t* __restrict py = y.data();
  const real_t* __restrict px = x.data();
  const std::size_t K = static_cast<std::size_t>(y.batch());
  const std::size_t cc = static_cast<std::size_t>(c);
  exec::parallel_for("kernel.axpy", interior_span_base(y), exec::kElementGrain,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         const std::size_t e =
                             static_cast<std::size_t>(i) * K + cc;
                         py[e] += alpha * px[e];
                       }
                     });
}

void xpay_interior(BatchedBrickedArray& y, const BatchedBrickedArray& x,
                   real_t beta, int c) {
  require_compatible(y, x);
  real_t* __restrict py = y.data();
  const real_t* __restrict px = x.data();
  const std::size_t K = static_cast<std::size_t>(y.batch());
  const std::size_t cc = static_cast<std::size_t>(c);
  exec::parallel_for("kernel.xpay", interior_span_base(y), exec::kElementGrain,
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (std::int64_t i = lo; i < hi; ++i) {
                         const std::size_t e =
                             static_cast<std::size_t>(i) * K + cc;
                         py[e] = px[e] + beta * py[e];
                       }
                     });
}

void copy_interior(BatchedBrickedArray& dst, const BatchedBrickedArray& src) {
  require_compatible(dst, src);
  real_t* __restrict pd = dst.data();
  const real_t* __restrict ps = src.data();
  const std::int64_t n =
      interior_span_base(dst) * static_cast<std::int64_t>(dst.batch());
  exec::parallel_for("kernel.copy", n, exec::kElementGrain,
                     [&](std::int64_t lo, std::int64_t hi) {
                       std::memcpy(pd + lo, ps + lo,
                                   static_cast<std::size_t>(hi - lo) *
                                       sizeof(real_t));
                     });
}

void axpy(BatchedBrickedArray& y, real_t alpha, const BatchedBrickedArray& x,
          const Box& active) {
  require_compatible(y, x);
  const auto scope = check::scope_if_enabled(
      "kernel.axpyActive",
      {check::access(y.inner(), stretch_box(active, y.batch()))},
      {check::access(x.inner(), stretch_box(active, y.batch()))});
  with_brick_dims(y.base_shape(), [&](auto bd) {
    const index_t K = static_cast<index_t>(y.batch());
    real_t* __restrict py = y.data();
    const real_t* __restrict px = x.data();
    for_each_row_b(bd, "kernel.axpyActive", y.grid(), active,
                   [&](std::size_t o, index_t ilo, index_t ihi) {
                     const std::size_t ob = o * static_cast<std::size_t>(K);
#pragma omp simd
                     for (index_t s = ilo * K; s < ihi * K; ++s) {
                       py[ob + s] += alpha * px[ob + s];
                     }
                   });
  });
}

void cheby_p_update(BatchedBrickedArray& p, const BatchedBrickedArray& r,
                    real_t inv_diag, real_t beta, const Box& active) {
  require_compatible(p, r);
  const auto scope = check::scope_if_enabled(
      "kernel.chebyP",
      {check::access(p.inner(), stretch_box(active, p.batch()))},
      {check::access(r.inner(), stretch_box(active, p.batch()))});
  with_brick_dims(p.base_shape(), [&](auto bd) {
    const index_t K = static_cast<index_t>(p.batch());
    real_t* __restrict pp = p.data();
    const real_t* __restrict pr = r.data();
    for_each_row_b(bd, "kernel.chebyP", p.grid(), active,
                   [&](std::size_t o, index_t ilo, index_t ihi) {
                     const std::size_t ob = o * static_cast<std::size_t>(K);
#pragma omp simd
                     for (index_t s = ilo * K; s < ihi * K; ++s) {
                       pp[ob + s] = inv_diag * pr[ob + s] + beta * pp[ob + s];
                     }
                   });
  });
}

void apply_op_varcoef(BatchedBrickedArray& Ax, const BatchedBrickedArray& x,
                      const BrickedArray& beta, real_t identity_coef, real_t h,
                      const Box& active) {
  require_compatible(Ax, x);
  trace::TraceSpan span("kernel.applyOpVarCoef");
  count_flops(batch_points(active, x), 26);
  const real_t f = 0.5 / (h * h);
  // Literally the same expression tree as the solo kernel (vc::), run
  // by the batched engine with the coefficient as a shared slot.
  batch::apply(vc::apply_expr(identity_coef, f), Ax, active, x, beta);
}

void cheby_p_update_varcoef(BatchedBrickedArray& p,
                            const BatchedBrickedArray& r,
                            const BrickedArray& diag, real_t beta_ch,
                            const Box& active) {
  require_compatible(p, r);
  const auto scope = check::scope_if_enabled(
      "kernel.chebyPVarCoef",
      {check::access(p.inner(), stretch_box(active, p.batch()))},
      {check::access(r.inner(), stretch_box(active, p.batch())),
       check::access(diag, active)});
  with_brick_dims(p.base_shape(), [&](auto bd) {
    const index_t K = static_cast<index_t>(p.batch());
    real_t* __restrict pp = p.data();
    const real_t* __restrict pr = r.data();
    const real_t* __restrict dp = diag.data();
    for_each_row_b(bd, "kernel.chebyPVarCoef", p.grid(), active,
                   [&](std::size_t o, index_t ilo, index_t ihi) {
                     for (index_t i = ilo; i < ihi; ++i) {
                       const real_t d = dp[o + i];
                       const std::size_t e =
                           (o + i) * static_cast<std::size_t>(K);
                       for (index_t c = 0; c < K; ++c) {
                         pp[e + c] = pr[e + c] / d + beta_ch * pp[e + c];
                       }
                     }
                   });
  });
}

}  // namespace gmg::batch

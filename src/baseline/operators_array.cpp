#include "baseline/operators_array.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "exec/runtime.hpp"

namespace gmg::baseline {

namespace {

/// Chunk grain over the z-planes of `region`: at least
/// exec::kElementGrain cells per chunk.
std::int64_t plane_grain(const Box& region) {
  const Vec3 e = region.extent();
  return std::max<std::int64_t>(1, exec::kElementGrain / (e.x * e.y));
}

/// Run `plane(k)` for every z-plane k of `region` on the kernel runtime.
template <typename Plane>
void for_planes(const char* name, const Box& region, Plane&& plane) {
  if (region.empty()) return;
  exec::parallel_for(name, region.hi.z - region.lo.z, plane_grain(region),
                     [&](std::int64_t lo, std::int64_t hi) {
                       for (index_t k = region.lo.z + lo; k < region.lo.z + hi;
                            ++k)
                         plane(k);
                     });
}

}  // namespace

void apply_op(Array3D& Ax, const Array3D& x, real_t alpha, real_t beta,
              const Box& region) {
  GMG_REQUIRE(x.ghost() >= 1, "applyOp needs one ghost layer");
  const index_t sy = x.stride_y(), sz = x.stride_z();
  for_planes("baseline.applyOp", region, [&](index_t k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      const real_t* __restrict xp = &x(region.lo.x, j, k);
      real_t* __restrict op = &Ax(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) {
        op[i] = alpha * xp[i] +
                beta * (xp[i + 1] + xp[i - 1] + xp[i + sy] + xp[i - sy] +
                        xp[i + sz] + xp[i - sz]);
      }
    }
  });
}

void smooth(Array3D& x, const Array3D& Ax, const Array3D& b, real_t gamma,
            const Box& region) {
  for_planes("baseline.smooth", region, [&](index_t k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      real_t* __restrict xp = &x(region.lo.x, j, k);
      const real_t* __restrict ap = &Ax(region.lo.x, j, k);
      const real_t* __restrict bp = &b(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) xp[i] += gamma * (ap[i] - bp[i]);
    }
  });
}

void smooth_residual(Array3D& x, Array3D& r, const Array3D& Ax,
                     const Array3D& b, real_t gamma, const Box& region) {
  for_planes("baseline.smoothResidual", region, [&](index_t k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      real_t* __restrict xp = &x(region.lo.x, j, k);
      real_t* __restrict rp = &r(region.lo.x, j, k);
      const real_t* __restrict ap = &Ax(region.lo.x, j, k);
      const real_t* __restrict bp = &b(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) {
        const real_t ax = ap[i];
        const real_t rhs = bp[i];
        rp[i] = rhs - ax;
        xp[i] += gamma * (ax - rhs);
      }
    }
  });
}

void residual(Array3D& r, const Array3D& b, const Array3D& Ax,
              const Box& region) {
  for_planes("baseline.residual", region, [&](index_t k) {
    for (index_t j = region.lo.y; j < region.hi.y; ++j) {
      real_t* __restrict rp = &r(region.lo.x, j, k);
      const real_t* __restrict ap = &Ax(region.lo.x, j, k);
      const real_t* __restrict bp = &b(region.lo.x, j, k);
      const index_t n = region.hi.x - region.lo.x;
#pragma omp simd
      for (index_t i = 0; i < n; ++i) rp[i] = bp[i] - ap[i];
    }
  });
}

void restriction(Array3D& coarse, const Array3D& fine) {
  const Vec3 ce = coarse.extent(), fe = fine.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  for_planes("baseline.restriction", Box::from_extent(ce), [&](index_t k) {
    for (index_t j = 0; j < ce.y; ++j) {
      for (index_t i = 0; i < ce.x; ++i) {
        const index_t fi = 2 * i, fj = 2 * j, fk = 2 * k;
        coarse(i, j, k) =
            0.125 * (fine(fi, fj, fk) + fine(fi + 1, fj, fk) +
                     fine(fi, fj + 1, fk) + fine(fi + 1, fj + 1, fk) +
                     fine(fi, fj, fk + 1) + fine(fi + 1, fj, fk + 1) +
                     fine(fi, fj + 1, fk + 1) + fine(fi + 1, fj + 1, fk + 1));
      }
    }
  });
}

void interpolation_increment(Array3D& fine, const Array3D& coarse) {
  const Vec3 ce = coarse.extent(), fe = fine.extent();
  GMG_REQUIRE(fe.x == 2 * ce.x && fe.y == 2 * ce.y && fe.z == 2 * ce.z,
              "fine extent must be twice the coarse extent");
  for_planes("baseline.interpolationIncrement", Box::from_extent(fe),
             [&](index_t k) {
               for (index_t j = 0; j < fe.y; ++j) {
                 for (index_t i = 0; i < fe.x; ++i) {
                   fine(i, j, k) += coarse(i / 2, j / 2, k / 2);
                 }
               }
             });
}

void init_zero(Array3D& a) {
  std::memset(a.data(), 0, a.size() * sizeof(real_t));
}

real_t max_norm(const Array3D& a) {
  const Box region = a.interior();
  if (region.empty()) return 0.0;
  return exec::parallel_reduce_max<real_t>(
      "baseline.maxNorm", region.hi.z - region.lo.z, plane_grain(region),
      [&](std::int64_t lo, std::int64_t hi) {
        real_t m = 0.0;
        for (index_t k = region.lo.z + lo; k < region.lo.z + hi; ++k) {
          for (index_t j = region.lo.y; j < region.hi.y; ++j) {
            for (index_t i = region.lo.x; i < region.hi.x; ++i) {
              m = std::max(m, std::abs(a(i, j, k)));
            }
          }
        }
        return m;
      });
}

}  // namespace gmg::baseline

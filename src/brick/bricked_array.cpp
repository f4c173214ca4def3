#include "brick/bricked_array.hpp"

#include <cstring>

#include "exec/runtime.hpp"

namespace gmg {

BrickedArray::BrickedArray(std::shared_ptr<const BrickGrid> grid,
                           BrickShape shape, bool zero)
    : grid_(std::move(grid)),
      shape_(shape),
      data_(static_cast<std::size_t>(grid_->num_bricks()) *
                static_cast<std::size_t>(shape.volume()),
            /*zero=*/false) {
  if (!zero) return;
  // First-touch: fault the pages in under the same chunk plan the
  // kernels will use, so on NUMA hosts each page lands on the worker
  // that computes on it.
  real_t* p = data_.data();
  exec::parallel_for("brick.firstTouch", static_cast<std::int64_t>(size()),
                     exec::kElementGrain, [&](std::int64_t b, std::int64_t e) {
                       std::memset(p + b, 0,
                                   static_cast<std::size_t>(e - b) *
                                       sizeof(real_t));
                     });
}

void BrickedArray::copy_from(const Array3D& a) {
  GMG_REQUIRE(a.extent() == extent(), "extent mismatch");
  for_each(Box::from_extent(extent()),
           [&](index_t i, index_t j, index_t k) { (*this)(i, j, k) = a(i, j, k); });
}

void BrickedArray::copy_to(Array3D& a) const {
  GMG_REQUIRE(a.extent() == extent(), "extent mismatch");
  for_each(Box::from_extent(extent()),
           [&](index_t i, index_t j, index_t k) { a(i, j, k) = (*this)(i, j, k); });
}

void BrickedArray::fill_ghosts_periodic() {
  const Vec3 n = extent();
  const Vec3 g = ghost_depth();
  const Box whole = Box{{-g.x, -g.y, -g.z}, n + g};
  const Box interior = Box::from_extent(n);
  for_each(whole, [&](index_t i, index_t j, index_t k) {
    if (interior.contains({i, j, k})) return;
    const index_t si = ((i % n.x) + n.x) % n.x;
    const index_t sj = ((j % n.y) + n.y) % n.y;
    const index_t sk = ((k % n.z) + n.z) % n.z;
    (*this)(i, j, k) = (*this)(si, sj, sk);
  });
}

}  // namespace gmg

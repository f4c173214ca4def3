// A 3-D field stored as fine-grain bricks: the data structure at the
// center of the paper. Element (i,j,k) of the subdomain lives inside
// brick (i/B, j/B, k/B) at in-brick offset (i%B, j%B, k%B); each brick
// is a contiguous, aligned chunk of memory.
#pragma once

#include <memory>

#include "brick/brick_grid.hpp"
#include "brick/brick_shape.hpp"
#include "common/aligned.hpp"
#include "mesh/array3d.hpp"

namespace gmg {

class BrickedArray {
 public:
  BrickedArray() = default;

  /// Build over a shared grid. All fields of one multigrid level share
  /// the grid (geometry/adjacency); each owns its own storage. When
  /// `zero` is set the storage is zeroed through the kernel runtime's
  /// chunking (first-touch: pages fault in on the threads that will
  /// compute on them).
  BrickedArray(std::shared_ptr<const BrickGrid> grid, BrickShape shape,
               bool zero = true);

  /// Convenience: build a fresh grid for a subdomain of `cells`
  /// elements (must be divisible by the brick dims).
  static BrickedArray create(Vec3 cells, BrickShape shape, bool zero = true) {
    GMG_REQUIRE(cells.x % shape.bx == 0 && cells.y % shape.by == 0 &&
                    cells.z % shape.bz == 0,
                "subdomain extent must be a multiple of the brick shape");
    auto grid = std::make_shared<BrickGrid>(
        Vec3{cells.x / shape.bx, cells.y / shape.by, cells.z / shape.bz});
    return BrickedArray(std::move(grid), shape, zero);
  }

  const BrickGrid& grid() const { return *grid_; }
  std::shared_ptr<const BrickGrid> grid_ptr() const { return grid_; }
  BrickShape shape() const { return shape_; }

  /// Interior extent in cells.
  Vec3 extent() const {
    const Vec3 nb = grid_->interior_extent();
    return {nb.x * shape_.bx, nb.y * shape_.by, nb.z * shape_.bz};
  }
  /// Ghost depth in cells: one brick layer (on a wrapped axis the
  /// ghost cells alias owned cells — BrickGrid).
  Vec3 ghost_depth() const { return shape_.dims(); }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }
  std::size_t size() const { return data_.size(); }

  real_t* brick(std::int32_t id) {
    return data_.data() + static_cast<std::size_t>(id) *
                              static_cast<std::size_t>(shape_.volume());
  }
  const real_t* brick(std::int32_t id) const {
    return data_.data() + static_cast<std::size_t>(id) *
                              static_cast<std::size_t>(shape_.volume());
  }

  /// Random-access element read/write by subdomain cell coordinate
  /// (ghosts addressable via negative / >=n indices). This is the
  /// convenience path; kernels iterate bricks directly.
  real_t& operator()(index_t i, index_t j, index_t k) {
    return data_[element_index(i, j, k)];
  }
  const real_t& operator()(index_t i, index_t j, index_t k) const {
    return data_[element_index(i, j, k)];
  }

  std::size_t element_index(index_t i, index_t j, index_t k) const {
    const Vec3 bc{floor_div(i, shape_.bx), floor_div(j, shape_.by),
                  floor_div(k, shape_.bz)};
    const std::int32_t id = grid_->storage_id(bc);
    GMG_ASSERT(id >= 0);
    const index_t li = floor_mod(i, shape_.bx);
    const index_t lj = floor_mod(j, shape_.by);
    const index_t lk = floor_mod(k, shape_.bz);
    return static_cast<std::size_t>(id) *
               static_cast<std::size_t>(shape_.volume()) +
           static_cast<std::size_t>((lk * shape_.by + lj) * shape_.bx + li);
  }

  void fill(real_t v) {
    for (auto& x : data_) x = v;
  }

  /// Interchange with the conventional layout (used at setup, in tests
  /// and when comparing against the array baseline). Interior only.
  void copy_from(const Array3D& a);
  void copy_to(Array3D& a) const;

  /// Single-rank periodic ghost fill: copies the wrapped interior into
  /// the ghost bricks (multi-rank exchange lives in src/comm).
  void fill_ghosts_periodic();

 private:
  std::shared_ptr<const BrickGrid> grid_;
  BrickShape shape_{};
  AlignedBuffer<real_t> data_;
};

}  // namespace gmg

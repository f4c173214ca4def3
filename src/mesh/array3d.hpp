// Conventional lexicographic ijk array with a ghost shell — the data
// layout the paper's fine-grain blocking is measured against, and the
// layout used by the HPGMG-like baseline solver.
#pragma once

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "common/types.hpp"
#include "mesh/box.hpp"

namespace gmg {

/// A 3-D field over interior extent `n` with `g` ghost cells on every
/// side, stored contiguously in i-fastest order. Index space runs
/// [-g, n+g) per axis; (0,0,0) is the first interior cell.
class Array3D {
 public:
  Array3D() = default;
  Array3D(Vec3 n, index_t ghost, bool zero = true)
      : n_(n),
        g_(ghost),
        stride_y_(n.x + 2 * ghost),
        stride_z_(static_cast<index_t>(n.x + 2 * ghost) * (n.y + 2 * ghost)),
        data_(static_cast<std::size_t>(stride_z_) * (n.z + 2 * ghost), zero) {
    GMG_REQUIRE(n.x > 0 && n.y > 0 && n.z > 0, "extents must be positive");
    GMG_REQUIRE(ghost >= 0, "ghost depth must be non-negative");
  }

  Vec3 extent() const { return n_; }
  index_t ghost() const { return g_; }
  Box interior() const { return Box::from_extent(n_); }
  Box whole() const { return grow(interior(), g_); }
  std::size_t size() const { return data_.size(); }

  real_t* data() { return data_.data(); }
  const real_t* data() const { return data_.data(); }

  index_t linear_index(index_t i, index_t j, index_t k) const {
    GMG_ASSERT(i >= -g_ && i < n_.x + g_);
    GMG_ASSERT(j >= -g_ && j < n_.y + g_);
    GMG_ASSERT(k >= -g_ && k < n_.z + g_);
    return (k + g_) * stride_z_ + (j + g_) * stride_y_ + (i + g_);
  }

  real_t& operator()(index_t i, index_t j, index_t k) {
    return data_[static_cast<std::size_t>(linear_index(i, j, k))];
  }
  const real_t& operator()(index_t i, index_t j, index_t k) const {
    return data_[static_cast<std::size_t>(linear_index(i, j, k))];
  }

  index_t stride_y() const { return stride_y_; }
  index_t stride_z() const { return stride_z_; }

  void fill(real_t v) {
    for (auto& x : data_) x = v;
  }

  /// Fill this array's ghost shell from its own interior assuming the
  /// subdomain is itself the whole periodic domain (single-rank case).
  void fill_ghosts_periodic();

 private:
  Vec3 n_{0, 0, 0};
  index_t g_ = 0;
  index_t stride_y_ = 0;
  index_t stride_z_ = 0;
  AlignedBuffer<real_t> data_;
};

}  // namespace gmg

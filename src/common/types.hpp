// Fundamental scalar and small-vector types shared across the library.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace gmg {

/// Floating-point type used for all field data. The paper evaluates
/// double precision (FP64) exclusively; all roofline/AI accounting
/// assumes 8-byte elements.
using real_t = double;

/// Signed index type for cell/brick coordinates. Signed so that ghost
/// regions (negative offsets) are representable without casts.
using index_t = std::int64_t;

/// Number of bytes in one field element.
inline constexpr std::size_t kRealBytes = sizeof(real_t);

/// A small integer 3-vector used for extents, coordinates and strides.
struct Vec3 {
  index_t x = 0, y = 0, z = 0;

  constexpr index_t& operator[](int d) { return d == 0 ? x : (d == 1 ? y : z); }
  constexpr const index_t& operator[](int d) const {
    return d == 0 ? x : (d == 1 ? y : z);
  }

  constexpr friend Vec3 operator+(Vec3 a, Vec3 b) {
    return {a.x + b.x, a.y + b.y, a.z + b.z};
  }
  constexpr friend Vec3 operator-(Vec3 a, Vec3 b) {
    return {a.x - b.x, a.y - b.y, a.z - b.z};
  }
  constexpr friend Vec3 operator*(Vec3 a, index_t s) {
    return {a.x * s, a.y * s, a.z * s};
  }
  constexpr friend bool operator==(const Vec3&, const Vec3&) = default;

  /// Product of components (e.g. cell count of an extent).
  constexpr index_t volume() const { return x * y * z; }

  /// Whether volume() <= bound, for non-negative components and bound,
  /// decided without forming a product above `bound` — safe on extents
  /// read off the wire, whose full product can overflow.
  constexpr bool volume_at_most(index_t bound) const {
    if (x == 0 || y == 0 || z == 0) return true;
    return x <= bound / y && x * y <= bound / z;
  }
};

std::ostream& operator<<(std::ostream& os, const Vec3& v);

/// The 26 neighbor directions of a 3-D subdomain plus self, encoded as
/// a base-3 digit per axis: dir = (dz+1)*9 + (dy+1)*3 + (dx+1).
/// Index 13 is "self" (0,0,0).
inline constexpr int kNumDirections = 27;
inline constexpr int kSelfDirection = 13;

constexpr int direction_index(int dx, int dy, int dz) {
  return (dz + 1) * 9 + (dy + 1) * 3 + (dx + 1);
}

constexpr Vec3 direction_offset(int dir) {
  return {dir % 3 - 1, (dir / 3) % 3 - 1, dir / 9 - 1};
}

/// The opposite of a direction (used to match a send with the
/// neighbor's receive).
constexpr int opposite_direction(int dir) { return kNumDirections - 1 - dir; }

}  // namespace gmg

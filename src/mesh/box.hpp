// Integer axis-aligned boxes: the index-space vocabulary for
// subdomains, ghost regions, brick regions, and CA active regions.
#pragma once

#include <algorithm>
#include <iosfwd>

#include "common/error.hpp"
#include "common/types.hpp"

namespace gmg {

/// Half-open integer box [lo, hi) in 3-D cell (or brick) index space.
struct Box {
  Vec3 lo{0, 0, 0};
  Vec3 hi{0, 0, 0};

  static Box from_extent(Vec3 extent) { return Box{{0, 0, 0}, extent}; }

  constexpr Vec3 extent() const { return hi - lo; }
  constexpr index_t volume() const {
    const Vec3 e = extent();
    return empty() ? 0 : e.volume();
  }
  constexpr bool empty() const {
    return hi.x <= lo.x || hi.y <= lo.y || hi.z <= lo.z;
  }
  constexpr bool contains(Vec3 p) const {
    return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y &&
           p.z >= lo.z && p.z < hi.z;
  }
  /// True when `b` lies entirely inside this box.
  constexpr bool covers(const Box& b) const {
    return b.empty() ||
           (contains(b.lo) &&
            contains(Vec3{b.hi.x - 1, b.hi.y - 1, b.hi.z - 1}));
  }

  friend Box intersect(const Box& a, const Box& b) {
    Box r;
    for (int d = 0; d < 3; ++d) {
      r.lo[d] = std::max(a.lo[d], b.lo[d]);
      r.hi[d] = std::min(a.hi[d], b.hi[d]);
    }
    return r;
  }

  /// Translate by an offset.
  friend Box shift(const Box& b, Vec3 off) {
    return Box{b.lo + off, b.hi + off};
  }

  /// Symmetric growth by g cells on every side (negative shrinks).
  friend Box grow(const Box& b, index_t g) {
    return Box{{b.lo.x - g, b.lo.y - g, b.lo.z - g},
               {b.hi.x + g, b.hi.y + g, b.hi.z + g}};
  }

  /// Coarsen by a factor r (extents must divide evenly; this mirrors
  /// the paper's power-of-two level hierarchy).
  friend Box coarsen(const Box& b, index_t r) {
    Box c;
    for (int d = 0; d < 3; ++d) {
      GMG_REQUIRE(b.lo[d] % r == 0 && b.hi[d] % r == 0,
                  "box is not aligned to the coarsening ratio");
      c.lo[d] = b.lo[d] / r;
      c.hi[d] = b.hi[d] / r;
    }
    return c;
  }
  friend Box refine(const Box& b, index_t r) {
    return Box{b.lo * r, b.hi * r};
  }

  constexpr friend bool operator==(const Box&, const Box&) = default;
};

std::ostream& operator<<(std::ostream& os, const Box& b);

/// Visit every point of a box in k-outer, i-inner (lexicographic ijk)
/// order. `fn(i, j, k)`.
template <typename Fn>
inline void for_each(const Box& b, Fn&& fn) {
  for (index_t k = b.lo.z; k < b.hi.z; ++k)
    for (index_t j = b.lo.y; j < b.hi.y; ++j)
      for (index_t i = b.lo.x; i < b.hi.x; ++i) fn(i, j, k);
}

/// The region of `domain`'s ghost shell lying in direction `dir`
/// (one of the 26 neighbor directions), of depth `g`: e.g. the +x face
/// ghost region is [hi.x, hi.x+g) x [lo.y, hi.y) x [lo.z, hi.z).
/// Edge/corner directions combine per-axis face regions.
Box ghost_region(const Box& domain, int dir, index_t g);

/// The interior region whose data a neighbor in direction `dir` needs:
/// the `g`-deep strip adjacent to the boundary facing `dir`.
Box surface_region(const Box& domain, int dir, index_t g);

}  // namespace gmg

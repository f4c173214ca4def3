#include "mesh/box.hpp"

#include <ostream>

namespace gmg {

std::ostream& operator<<(std::ostream& os, const Box& b) {
  return os << '[' << b.lo << ", " << b.hi << ')';
}

Box ghost_region(const Box& domain, int dir, index_t g) {
  GMG_REQUIRE(dir >= 0 && dir < kNumDirections && dir != kSelfDirection,
              "dir must be one of the 26 neighbor directions");
  const Vec3 off = direction_offset(dir);
  Box r = domain;
  for (int d = 0; d < 3; ++d) {
    if (off[d] < 0) {
      r.lo[d] = domain.lo[d] - g;
      r.hi[d] = domain.lo[d];
    } else if (off[d] > 0) {
      r.lo[d] = domain.hi[d];
      r.hi[d] = domain.hi[d] + g;
    }
  }
  return r;
}

Box surface_region(const Box& domain, int dir, index_t g) {
  GMG_REQUIRE(dir >= 0 && dir < kNumDirections && dir != kSelfDirection,
              "dir must be one of the 26 neighbor directions");
  const Vec3 off = direction_offset(dir);
  Box r = domain;
  for (int d = 0; d < 3; ++d) {
    if (off[d] < 0) {
      r.hi[d] = domain.lo[d] + g;
    } else if (off[d] > 0) {
      r.lo[d] = domain.hi[d] - g;
    }
  }
  return r;
}

}  // namespace gmg

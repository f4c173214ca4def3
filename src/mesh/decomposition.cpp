#include "mesh/decomposition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace gmg {

Vec3 factor_ranks(int nranks) {
  GMG_REQUIRE(nranks >= 1, "need at least one rank");
  // Greedy: repeatedly give the smallest dimension the largest
  // remaining prime factor. Produces balanced grids for the powers of
  // two used throughout the paper (8, 64, 512 ranks -> cubes).
  Vec3 grid{1, 1, 1};
  int n = nranks;
  std::vector<int> primes;
  for (int p = 2; p * p <= n; ++p)
    while (n % p == 0) {
      primes.push_back(p);
      n /= p;
    }
  if (n > 1) primes.push_back(n);
  std::sort(primes.rbegin(), primes.rend());
  for (int p : primes) {
    int d = 0;
    for (int e = 1; e < 3; ++e)
      if (grid[e] < grid[d]) d = e;
    grid[d] *= p;
  }
  return grid;
}

CartDecomp::CartDecomp(Vec3 global_extent, Vec3 rank_grid)
    : global_(global_extent), grid_(rank_grid) {
  for (int d = 0; d < 3; ++d) {
    GMG_REQUIRE(grid_[d] > 0, "rank grid must be positive");
    GMG_REQUIRE(global_[d] % grid_[d] == 0,
                "global extent must divide evenly across ranks");
    sub_[d] = global_[d] / grid_[d];
  }
}

Vec3 CartDecomp::coord_of(int rank) const {
  GMG_REQUIRE(rank >= 0 && rank < num_ranks(), "rank out of range");
  return {rank % grid_.x, (rank / grid_.x) % grid_.y,
          rank / (grid_.x * grid_.y)};
}

int CartDecomp::rank_of(Vec3 coord) const {
  const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
  const index_t cx = wrap(coord.x, grid_.x);
  const index_t cy = wrap(coord.y, grid_.y);
  const index_t cz = wrap(coord.z, grid_.z);
  return static_cast<int>(cz * grid_.x * grid_.y + cy * grid_.x + cx);
}

int CartDecomp::neighbor(int rank, int dir) const {
  return rank_of(coord_of(rank) + direction_offset(dir));
}

Box CartDecomp::subdomain_box(int rank) const {
  const Vec3 c = coord_of(rank);
  const Vec3 lo{c.x * sub_.x, c.y * sub_.y, c.z * sub_.z};
  return Box{lo, lo + sub_};
}

}  // namespace gmg

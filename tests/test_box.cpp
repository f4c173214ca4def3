#include <gtest/gtest.h>

#include "mesh/box.hpp"
#include "mesh/decomposition.hpp"

namespace gmg {
namespace {

TEST(Box, VolumeAndEmpty) {
  const Box b{{0, 0, 0}, {4, 5, 6}};
  EXPECT_EQ(b.volume(), 120);
  EXPECT_FALSE(b.empty());
  const Box e{{2, 0, 0}, {2, 5, 6}};
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.volume(), 0);
}

TEST(Box, ContainsAndCovers) {
  const Box b{{-2, -2, -2}, {6, 6, 6}};
  EXPECT_TRUE(b.contains({-2, 0, 5}));
  EXPECT_FALSE(b.contains({6, 0, 0}));
  EXPECT_TRUE(b.covers(Box{{0, 0, 0}, {6, 6, 6}}));
  EXPECT_FALSE(b.covers(Box{{0, 0, 0}, {7, 6, 6}}));
  EXPECT_TRUE(b.covers(Box{{3, 3, 3}, {3, 4, 4}}));  // empty box
}

TEST(Box, IntersectShiftGrow) {
  const Box a{{0, 0, 0}, {8, 8, 8}}, b{{4, -2, 4}, {12, 4, 12}};
  EXPECT_EQ(intersect(a, b), (Box{{4, 0, 4}, {8, 4, 8}}));
  EXPECT_EQ(shift(a, {1, 2, 3}), (Box{{1, 2, 3}, {9, 10, 11}}));
  EXPECT_EQ(grow(a, 2), (Box{{-2, -2, -2}, {10, 10, 10}}));
  EXPECT_EQ(grow(grow(a, 2), -2), a);
}

TEST(Box, CoarsenRefineRoundTrip) {
  const Box a{{0, 0, 0}, {16, 32, 8}};
  EXPECT_EQ(coarsen(a, 2), (Box{{0, 0, 0}, {8, 16, 4}}));
  EXPECT_EQ(refine(coarsen(a, 2), 2), a);
  EXPECT_THROW(coarsen(Box{{0, 0, 0}, {7, 8, 8}}, 2), Error);
}

TEST(Box, ForEachVisitsLexicographically) {
  const Box b{{1, 2, 3}, {3, 4, 5}};
  std::vector<Vec3> visited;
  for_each(b, [&](index_t i, index_t j, index_t k) {
    visited.push_back({i, j, k});
  });
  ASSERT_EQ(visited.size(), 8u);
  EXPECT_EQ(visited.front(), (Vec3{1, 2, 3}));
  EXPECT_EQ(visited[1], (Vec3{2, 2, 3}));  // i fastest
  EXPECT_EQ(visited.back(), (Vec3{2, 3, 4}));
}

TEST(GhostSurfaceRegions, FaceEdgeCorner) {
  const Box dom{{0, 0, 0}, {8, 8, 8}};
  // +x face ghost
  EXPECT_EQ(ghost_region(dom, direction_index(1, 0, 0), 2),
            (Box{{8, 0, 0}, {10, 8, 8}}));
  // -y surface strip
  EXPECT_EQ(surface_region(dom, direction_index(0, -1, 0), 2),
            (Box{{0, 0, 0}, {8, 2, 8}}));
  // corner ghost
  EXPECT_EQ(ghost_region(dom, direction_index(-1, -1, -1), 1),
            (Box{{-1, -1, -1}, {0, 0, 0}}));
  // edge surface
  EXPECT_EQ(surface_region(dom, direction_index(1, 0, 1), 1),
            (Box{{7, 0, 7}, {8, 8, 8}}));
}

TEST(GhostSurfaceRegions, GhostVolumesTileTheShell) {
  const Box dom{{0, 0, 0}, {6, 6, 6}};
  const index_t g = 2;
  index_t total = 0;
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    total += ghost_region(dom, dir, g).volume();
  }
  EXPECT_EQ(total, grow(dom, g).volume() - dom.volume());
}

TEST(FactorRanks, BalancedCubes) {
  EXPECT_EQ(factor_ranks(1), (Vec3{1, 1, 1}));
  EXPECT_EQ(factor_ranks(8).volume(), 8);
  EXPECT_EQ(factor_ranks(8), (Vec3{2, 2, 2}));
  EXPECT_EQ(factor_ranks(64), (Vec3{4, 4, 4}));
  EXPECT_EQ(factor_ranks(512), (Vec3{8, 8, 8}));
  // Non-cubes still multiply out and stay balanced.
  const Vec3 g12 = factor_ranks(12);
  EXPECT_EQ(g12.volume(), 12);
  EXPECT_LE(std::max({g12.x, g12.y, g12.z}), 3);
}

TEST(CartDecomp, SubdomainsAndNeighbors) {
  const CartDecomp d({64, 64, 64}, {2, 2, 2});
  EXPECT_EQ(d.num_ranks(), 8);
  EXPECT_EQ(d.subdomain_extent(), (Vec3{32, 32, 32}));
  // rank 0 at (0,0,0); +x neighbor is rank 1; periodic -x is also 1.
  EXPECT_EQ(d.coord_of(0), (Vec3{0, 0, 0}));
  EXPECT_EQ(d.neighbor(0, direction_index(1, 0, 0)), 1);
  EXPECT_EQ(d.neighbor(0, direction_index(-1, 0, 0)), 1);
  // corner neighbor wraps in all axes
  EXPECT_EQ(d.neighbor(0, direction_index(-1, -1, -1)), 7);
  EXPECT_EQ(d.subdomain_box(3), (Box{{32, 32, 0}, {64, 64, 32}}));
}

TEST(CartDecomp, CoordRankRoundTrip) {
  const CartDecomp d({48, 96, 48}, {2, 4, 2});
  for (int r = 0; r < d.num_ranks(); ++r) {
    EXPECT_EQ(d.rank_of(d.coord_of(r)), r);
  }
  EXPECT_THROW(CartDecomp({10, 10, 10}, {3, 1, 1}), Error);
}

TEST(CartDecomp, SelfNeighborWhenSingleRankAxis) {
  const CartDecomp d({32, 32, 32}, {1, 2, 1});
  EXPECT_EQ(d.neighbor(0, direction_index(1, 0, 0)), 0);
  EXPECT_EQ(d.neighbor(0, direction_index(0, 1, 0)), 1);
  EXPECT_EQ(d.neighbor(0, direction_index(1, 1, 0)), 1);
  EXPECT_EQ(d.neighbor(0, direction_index(0, 0, 1)), 0);
}

}  // namespace
}  // namespace gmg

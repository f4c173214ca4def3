#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

#include "brick/brick_grid.hpp"
#include "brick/bricked_array.hpp"
#include "common/rng.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

TEST(FloorDivMod, NegativeCoordinates) {
  EXPECT_EQ(floor_div(-1, 8), -1);
  EXPECT_EQ(floor_div(-8, 8), -1);
  EXPECT_EQ(floor_div(-9, 8), -2);
  EXPECT_EQ(floor_div(7, 8), 0);
  EXPECT_EQ(floor_div(8, 8), 1);
  EXPECT_EQ(floor_mod(-1, 8), 7);
  EXPECT_EQ(floor_mod(-8, 8), 0);
  EXPECT_EQ(floor_mod(9, 8), 1);
}

TEST(BrickGrid, CountsAndOrdering) {
  const BrickGrid g({2, 3, 4});
  EXPECT_EQ(g.num_interior(), 24);
  // extended grid 4x5x6 = 120 bricks total
  EXPECT_EQ(g.num_bricks(), 120);
  // Interior bricks come first, lexicographically.
  EXPECT_EQ(g.storage_id({0, 0, 0}), 0);
  EXPECT_EQ(g.storage_id({1, 0, 0}), 1);
  EXPECT_EQ(g.storage_id({0, 1, 0}), 2);
  EXPECT_EQ(g.storage_id({1, 2, 3}), 23);
  // {2,0,0} is a ghost brick: valid id, after all interior bricks.
  EXPECT_GE(g.storage_id({2, 0, 0}), g.num_interior());
  // Outside the extended grid.
  EXPECT_EQ(g.storage_id({3, 0, 0}), -1);
  EXPECT_EQ(g.storage_id({-2, 0, 0}), -1);
}

TEST(BrickGrid, CoordIdRoundTrip) {
  const BrickGrid g({3, 3, 3});
  for (std::int32_t id = 0; id < g.num_bricks(); ++id) {
    EXPECT_EQ(g.storage_id(g.coord_of(id)), id);
  }
}

TEST(BrickGrid, GhostGroupsAreContiguousAndDisjoint) {
  const BrickGrid g({2, 2, 2});
  std::set<std::int32_t> seen;
  index_t total = 0;
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    const BrickRange r = g.ghost_range(dir);
    EXPECT_EQ(r.count, g.ghost_box(dir).volume());
    for (std::int32_t b = r.first; b < r.first + r.count; ++b) {
      EXPECT_TRUE(seen.insert(b).second) << "ghost brick in two groups";
      // Every ghost brick lies outside the interior box.
      EXPECT_FALSE(g.interior_box().contains(g.coord_of(b)));
    }
    total += r.count;
  }
  EXPECT_EQ(total, g.num_bricks() - g.num_interior());
}

TEST(BrickGrid, AdjacencyMatchesCoordinates) {
  const BrickGrid g({3, 2, 2});
  for (std::int32_t id = 0; id < g.num_bricks(); ++id) {
    const Vec3 c = g.coord_of(id);
    for (int dir = 0; dir < kNumDirections; ++dir) {
      const Vec3 n = c + direction_offset(dir);
      EXPECT_EQ(g.adjacent(id, dir), g.storage_id(n));
    }
    EXPECT_EQ(g.adjacent(id, kSelfDirection), id);
  }
}

// Wrapped grids (DESIGN.md §11): the axes of `wrap` are self-periodic,
// so their ghost coordinates alias owned bricks and only the ghost
// groups with no component along them are stored.
const std::array<std::array<bool, 3>, 4> kWraps{{{true, false, false},
                                                 {false, true, true},
                                                 {true, true, false},
                                                 {true, true, true}}};

TEST(WrappedBrickGrid, AdjacencyResolvesToOwnedBrickAtWrappedCoordinate) {
  const Vec3 nb{3, 2, 4};
  for (const auto& wrap : kWraps) {
    const BrickGrid g(nb, wrap);
    // The brick a coordinate resolves to: wrapped axes taken mod nb,
    // -1 once an unwrapped axis leaves the one-brick ghost shell.
    const auto expected = [&](Vec3 c) -> std::int32_t {
      for (int d = 0; d < 3; ++d) {
        if (wrap[static_cast<std::size_t>(d)]) {
          c[d] = floor_mod(c[d], nb[d]);
        } else if (c[d] < -1 || c[d] > nb[d]) {
          return -1;
        }
      }
      const std::int32_t id = g.storage_id(c);
      EXPECT_GE(id, 0);
      EXPECT_EQ(g.coord_of(id), c) << "a stored brick's home coordinate";
      return id;
    };
    for (std::int32_t id = 0; id < g.num_bricks(); ++id) {
      const Vec3 c = g.coord_of(id);
      for (int dir = 0; dir < kNumDirections; ++dir) {
        EXPECT_EQ(g.adjacent(id, dir), expected(c + direction_offset(dir)));
      }
      EXPECT_EQ(g.adjacent(id, kSelfDirection), id);
    }
    // The interior bricks on a wrapped face neighbor the owned bricks
    // on the opposite face directly.
    for (int d = 0; d < 3; ++d) {
      if (!wrap[static_cast<std::size_t>(d)]) continue;
      int off[3] = {0, 0, 0};
      off[d] = -1;
      const int lo_dir = direction_index(off[0], off[1], off[2]);
      Vec3 far{0, 0, 0};
      far[d] = nb[d] - 1;
      EXPECT_EQ(g.adjacent(g.storage_id({0, 0, 0}), lo_dir),
                g.storage_id(far));
      EXPECT_LT(g.storage_id(far), g.num_interior());
    }
  }
}

TEST(WrappedBrickGrid, StoresOnlyGroupsWithoutWrappedComponents) {
  const Vec3 nb{3, 2, 4};
  for (const auto& wrap : kWraps) {
    const BrickGrid g(nb, wrap);
    index_t stored = 1;
    for (int d = 0; d < 3; ++d) {
      stored *= nb[d] + (wrap[static_cast<std::size_t>(d)] ? 0 : 2);
    }
    EXPECT_EQ(g.num_bricks(), stored);
    EXPECT_EQ(g.num_interior(), nb.volume());
    index_t total = 0;
    for (int dir = 0; dir < kNumDirections; ++dir) {
      if (dir == kSelfDirection) continue;
      const Vec3 off = direction_offset(dir);
      bool aliased = false;
      for (int d = 0; d < 3; ++d) {
        aliased = aliased || (wrap[static_cast<std::size_t>(d)] && off[d] != 0);
      }
      EXPECT_EQ(g.stores_group(dir), !aliased);
      const BrickRange r = g.ghost_range(dir);
      EXPECT_EQ(r.count, aliased ? 0 : g.ghost_box(dir).volume());
      total += r.count;
    }
    EXPECT_EQ(total, g.num_bricks() - g.num_interior());
  }
}

TEST(WrappedBrickGrid, GrowsAndPlansAlongUnwrappedAxesOnly) {
  const BrickGrid g({4, 4, 4}, {true, false, true});
  const Box in = Box::from_extent({16, 16, 16});
  EXPECT_EQ(g.grow_unwrapped(in, 3), (Box{{0, -3, 0}, {16, 19, 16}}));
  EXPECT_NO_THROW(g.iteration_plan(g.grow_unwrapped(in, 3), {4, 4, 4}));
  // Past the interior on a wrapped axis the plan would list owned
  // bricks twice (once through their alias).
  EXPECT_THROW(g.iteration_plan(grow(in, 1), {4, 4, 4}), Error);
  EXPECT_THROW(g.iteration_plan(Box{{0, 0, 0}, {16, 16, 17}}, {4, 4, 4}),
               Error);
}

TEST(BrickIterPlan, CacheReturnsSameSharedPlan) {
  const BrickGrid g({4, 4, 4});
  const Box active = Box::from_extent({16, 16, 16});
  const auto p1 = g.iteration_plan(active, {4, 4, 4});
  const auto p2 = g.iteration_plan(active, {4, 4, 4});
  EXPECT_EQ(p1.get(), p2.get()) << "same key must hit the cache";
  // A different active box (a CA deep-ghost sweep margin) is a
  // distinct plan, and its own repeats hit the cache too.
  const Box grown = grow(active, 2);
  const auto p3 = g.iteration_plan(grown, {4, 4, 4});
  EXPECT_NE(p1.get(), p3.get());
  EXPECT_EQ(p3.get(), g.iteration_plan(grown, {4, 4, 4}).get());
}

TEST(BrickIterPlan, ClassifiesFullAndClippedAgainstBruteForce) {
  const BrickGrid g({4, 4, 4});
  const Vec3 bd{4, 4, 4};
  // Interior sweep, a CA sweep two cells into the deep ghosts, and an
  // off-brick-aligned box: every brick the plan lists must carry the
  // brute-force clip bounds, full bricks first, each half in
  // lexicographic brick order.
  const std::vector<Box> cases{Box::from_extent({16, 16, 16}),
                               grow(Box::from_extent({16, 16, 16}), 2),
                               Box{{1, 2, 3}, {15, 14, 13}}};
  for (const Box& active : cases) {
    const auto plan = g.iteration_plan(active, bd);
    EXPECT_EQ(plan->active, active);
    std::size_t idx = 0;
    std::int64_t seen_full = 0;
    for (index_t bz = plan->brick_region.lo.z; bz < plan->brick_region.hi.z;
         ++bz) {
      for (index_t by = plan->brick_region.lo.y;
           by < plan->brick_region.hi.y; ++by) {
        for (index_t bx = plan->brick_region.lo.x;
             bx < plan->brick_region.hi.x; ++bx) {
          // Find this brick in the plan (full prefix or clipped tail).
          const std::int32_t id = g.storage_id({bx, by, bz});
          ASSERT_GE(id, 0);
          const auto it_pos =
              std::find_if(plan->items.begin(), plan->items.end(),
                           [&](const BrickPlanItem& i) { return i.id == id; });
          ASSERT_NE(it_pos, plan->items.end());
          const BrickPlanItem& item = *it_pos;
          EXPECT_EQ(item.coord, (Vec3{bx, by, bz}));
          EXPECT_EQ(item.adj, g.adjacency(id).data());
          const index_t ilo = std::max<index_t>(0, active.lo.x - bx * bd.x);
          const index_t ihi =
              std::min<index_t>(bd.x, active.hi.x - bx * bd.x);
          const index_t jlo = std::max<index_t>(0, active.lo.y - by * bd.y);
          const index_t jhi =
              std::min<index_t>(bd.y, active.hi.y - by * bd.y);
          const index_t klo = std::max<index_t>(0, active.lo.z - bz * bd.z);
          const index_t khi =
              std::min<index_t>(bd.z, active.hi.z - bz * bd.z);
          EXPECT_EQ(item.ilo, ilo);
          EXPECT_EQ(item.ihi, ihi);
          EXPECT_EQ(item.jlo, jlo);
          EXPECT_EQ(item.jhi, jhi);
          EXPECT_EQ(item.klo, klo);
          EXPECT_EQ(item.khi, khi);
          const bool full = ilo == 0 && jlo == 0 && klo == 0 &&
                            ihi == bd.x && jhi == bd.y && khi == bd.z;
          const bool in_full_prefix =
              (it_pos - plan->items.begin()) < plan->num_full;
          EXPECT_EQ(full, in_full_prefix);
          seen_full += full ? 1 : 0;
          ++idx;
        }
      }
    }
    EXPECT_EQ(idx, plan->items.size()) << "plan lists exactly the cover";
    EXPECT_EQ(seen_full, plan->num_full);
    // Each half preserves lexicographic brick-coordinate order (z
    // outermost) — the property that makes chunked sweeps
    // deterministic. Storage ids are NOT monotonic here: ghost bricks
    // live in per-direction groups after the interior block.
    const auto lex_key = [](const BrickPlanItem& i) {
      return std::array<index_t, 3>{i.coord.z, i.coord.y, i.coord.x};
    };
    for (std::size_t i = 1; i < plan->items.size(); ++i) {
      if (static_cast<std::int64_t>(i) == plan->num_full) continue;
      EXPECT_LT(lex_key(plan->items[i - 1]), lex_key(plan->items[i]));
    }
  }
}

TEST(BrickIterPlan, RejectsActiveBeyondGhostBricks) {
  const BrickGrid g({2, 2, 2});
  // Growing by 5 cells reaches two bricks (dim 4) past the interior —
  // beyond the one-brick-deep ghost shell.
  EXPECT_THROW(
      g.iteration_plan(grow(Box::from_extent({8, 8, 8}), 5), {4, 4, 4}),
      Error);
}

TEST(BrickGrid, SegmentsCoverRegionInOrder) {
  const BrickGrid g({4, 4, 4});
  // A full interior x-layer is strided in storage: one run per row.
  const Box face{{3, 0, 0}, {4, 4, 4}};
  const auto runs = g.segments_of(face);
  index_t total = 0;
  for (const auto& r : runs) total += r.count;
  EXPECT_EQ(total, face.volume());
  // The whole interior is exactly one run.
  const auto all = g.segments_of(g.interior_box());
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first, 0);
  EXPECT_EQ(all[0].count, g.num_interior());
  // A ghost face region is exactly one run (the layout property that
  // makes receives packing-free).
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    const auto ghost_runs = g.segments_of(g.ghost_box(dir));
    ASSERT_EQ(ghost_runs.size(), 1u);
    EXPECT_EQ(ghost_runs[0].first, g.ghost_range(dir).first);
    EXPECT_EQ(ghost_runs[0].count, g.ghost_range(dir).count);
  }
}

class BrickedArrayTest : public ::testing::TestWithParam<index_t> {};

TEST_P(BrickedArrayTest, RoundTripThroughArray) {
  const index_t bdim = GetParam();
  const Vec3 n{2 * bdim, bdim, 3 * bdim};
  Array3D a(n, 1);
  test::randomize(a);
  BrickedArray b = test::to_bricks(a, BrickShape::cube(bdim));
  test::expect_equal(b, a);
  Array3D back(n, 1);
  b.copy_to(back);
  test::expect_equal(back, a);
}

TEST_P(BrickedArrayTest, ElementIndexBijection) {
  const index_t bdim = GetParam();
  const Vec3 n{bdim * 2, bdim * 2, bdim};
  BrickedArray b = BrickedArray::create(n, BrickShape::cube(bdim));
  std::set<std::size_t> seen;
  const Box whole = grow(Box::from_extent(n), bdim);
  for_each(whole, [&](index_t i, index_t j, index_t k) {
    const std::size_t idx = b.element_index(i, j, k);
    ASSERT_LT(idx, b.size());
    EXPECT_TRUE(seen.insert(idx).second)
        << "two cells map to one storage slot";
  });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(whole.volume()));
}

TEST_P(BrickedArrayTest, PeriodicGhostFill) {
  const index_t bdim = GetParam();
  const Vec3 n{bdim * 2, bdim * 2, bdim * 2};
  Array3D a(n, static_cast<index_t>(bdim));
  test::randomize(a, 3);
  BrickedArray b = test::to_bricks(a, BrickShape::cube(bdim));
  b.fill_ghosts_periodic();
  const Box whole = grow(Box::from_extent(n), bdim);
  int failures = 0;
  for_each(whole, [&](index_t i, index_t j, index_t k) {
    const index_t si = ((i % n.x) + n.x) % n.x;
    const index_t sj = ((j % n.y) + n.y) % n.y;
    const index_t sk = ((k % n.z) + n.z) % n.z;
    if (b(i, j, k) != a(si, sj, sk) && failures < 5) {
      ADD_FAILURE() << "ghost mismatch at (" << i << ',' << j << ',' << k
                    << ')';
      ++failures;
    }
  });
  ASSERT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(BrickDims, BrickedArrayTest,
                         ::testing::Values<index_t>(2, 4, 8));

TEST(BrickedArray, RejectsNonDivisibleExtent) {
  EXPECT_THROW(BrickedArray::create({10, 8, 8}, BrickShape::cube(8)), Error);
}

TEST(BrickedArray, StorageIsBrickContiguous) {
  // Consecutive cells of one brick row are consecutive in storage —
  // the fine-grain blocking property.
  BrickedArray b = BrickedArray::create({16, 16, 16}, BrickShape::cube(8));
  const std::size_t base = b.element_index(0, 3, 5);
  for (index_t i = 1; i < 8; ++i) {
    EXPECT_EQ(b.element_index(i, 3, 5), base + static_cast<std::size_t>(i));
  }
  // ...and a whole brick spans exactly volume() consecutive slots.
  const std::size_t first = b.element_index(8, 8, 8);
  EXPECT_EQ(b.element_index(15, 15, 15), first + 511);
}

}  // namespace
}  // namespace gmg

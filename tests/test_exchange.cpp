// Ghost-exchange correctness: after exchange(), every ghost cell must
// equal the periodically wrapped global field value — on every round
// of a reused engine — for all rank grids, brick shapes, and exchange
// modes, on full-shell grids (every ghost brick stored, self-periodic
// groups filled by local copies) and on the wrapped grids solver
// levels use (DESIGN.md §11), where a self-periodic ghost coordinate
// reads the owned brick itself.
#include <gtest/gtest.h>

#include <ostream>

#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "common/rng.hpp"
#include "tests/test_util.hpp"

namespace gmg::comm {
namespace {

/// Build the global field: deterministic value per global cell.
real_t global_value(Vec3 g, Vec3 cell) {
  return static_cast<real_t>(((cell.z * g.y + cell.y) * g.x + cell.x) % 977) +
         0.25;
}

struct BrickCase {
  Vec3 rank_grid;
  index_t bdim;
  BrickExchangeMode mode;
  bool wrapped = false;  // wrap the decomposition's one-rank axes
};

// Readable test names, e.g. "2x1x1_b4_packed_wrapped" (the default
// printer dumps the struct's bytes, padding included).
void PrintTo(const BrickCase& c, std::ostream* os) {
  static const char* const kModes[] = {"packfree", "packed", "perbrick"};
  *os << c.rank_grid.x << 'x' << c.rank_grid.y << 'x' << c.rank_grid.z
      << "_b" << c.bdim << '_' << kModes[static_cast<int>(c.mode)]
      << (c.wrapped ? "_wrapped" : "");
}

/// A zeroed field over a `sub`^3 subdomain: a full-shell grid, or one
/// wrapped on the axes where `decomp` has one rank.
BrickedArray make_field(const CartDecomp& decomp, index_t sub, index_t bdim,
                        bool wrapped) {
  if (!wrapped) {
    return BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
  }
  const index_t nb = sub / bdim;
  return BrickedArray(
      std::make_shared<BrickGrid>(Vec3{nb, nb, nb},
                                  decomp.self_periodic_axes()),
      BrickShape::cube(bdim));
}

/// The wrapped-grid cases: every one-rank axis wrapped, in all modes.
/// {3,2,1} splits x three ways, so a rank's two x-neighbors are distinct
/// ranks, as on the non-power-of-two solver grids.
std::vector<BrickCase> wrapped_cases() {
  std::vector<BrickCase> cases;
  for (const Vec3 rg : {Vec3{1, 1, 1}, Vec3{2, 1, 1}, Vec3{2, 2, 1},
                        Vec3{1, 2, 2}, Vec3{3, 2, 1}}) {
    for (const BrickExchangeMode mode :
         {BrickExchangeMode::kPackFree, BrickExchangeMode::kPacked,
          BrickExchangeMode::kPerBrick}) {
      cases.push_back(BrickCase{rg, 4, mode, true});
    }
  }
  return cases;
}

class BrickExchangeTest : public ::testing::TestWithParam<BrickCase> {};

TEST_P(BrickExchangeTest, GhostsMatchPeriodicWrap) {
  const auto [rank_grid, bdim, mode, wrapped] = GetParam();
  const index_t sub = 2 * bdim;  // two bricks per axis per rank
  const Vec3 global{sub * rank_grid.x, sub * rank_grid.y, sub * rank_grid.z};
  const CartDecomp decomp(global, rank_grid);

  World world(decomp.num_ranks());
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray field = make_field(decomp, sub, bdim, wrapped);
    for_each(Box::from_extent({sub, sub, sub}),
             [&](index_t i, index_t j, index_t k) {
               field(i, j, k) = global_value(
                   global, {my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k});
             });

    BrickExchange ex(field.grid_ptr(), field.shape(), decomp, c.rank(), mode);
    ex.exchange(c, field);

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    int failures = 0;
    const Box whole = grow(Box::from_extent({sub, sub, sub}), bdim);
    for_each(whole, [&](index_t i, index_t j, index_t k) {
      const Vec3 gcell{wrap(my_box.lo.x + i, global.x),
                       wrap(my_box.lo.y + j, global.y),
                       wrap(my_box.lo.z + k, global.z)};
      const real_t want = global_value(global, gcell);
      if (field(i, j, k) != want && failures++ < 3) {
        ADD_FAILURE() << "rank " << c.rank() << " ghost (" << i << ',' << j
                      << ',' << k << "): got " << field(i, j, k) << " want "
                      << want;
      }
    });
    ASSERT_EQ(failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Wrapped, BrickExchangeTest, ::testing::ValuesIn(wrapped_cases()));

INSTANTIATE_TEST_SUITE_P(
    Shapes, BrickExchangeTest,
    ::testing::Values(
        BrickCase{{1, 1, 1}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{1, 2, 1}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{2, 2, 2}, 4, BrickExchangeMode::kPackFree},
        BrickCase{{2, 2, 1}, 2, BrickExchangeMode::kPackFree},
        BrickCase{{3, 1, 1}, 2, BrickExchangeMode::kPackFree},
        BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPacked},
        BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPacked},
        BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPerBrick},
        BrickCase{{1, 2, 2}, 4, BrickExchangeMode::kPerBrick},
        BrickCase{{2, 2, 2}, 8, BrickExchangeMode::kPackFree},
        // Three-way axes in every mode: the low and high neighbors along
        // them are distinct ranks, so each direction's message must find
        // its own peer.
        BrickCase{{3, 1, 1}, 2, BrickExchangeMode::kPacked},
        BrickCase{{3, 1, 1}, 2, BrickExchangeMode::kPerBrick},
        BrickCase{{3, 2, 1}, 2, BrickExchangeMode::kPackFree},
        BrickCase{{3, 2, 1}, 2, BrickExchangeMode::kPacked},
        BrickCase{{3, 2, 1}, 2, BrickExchangeMode::kPerBrick},
        BrickCase{{1, 3, 3}, 2, BrickExchangeMode::kPackFree}));

TEST(BrickExchangeMultiField, AggregatesFieldsInOneRound) {
  const Vec3 rank_grid{2, 1, 1};
  const index_t bdim = 4, sub = 8;
  const Vec3 global{16, 8, 8};
  const CartDecomp decomp(global, rank_grid);
  World world(2);
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray f1 =
        BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
    BrickedArray f2(f1.grid_ptr(), f1.shape());
    for_each(Box::from_extent({sub, sub, sub}),
             [&](index_t i, index_t j, index_t k) {
               const Vec3 g{my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k};
               f1(i, j, k) = global_value(global, g);
               f2(i, j, k) = -2.0 * global_value(global, g);
             });
    BrickExchange ex(f1.grid_ptr(), f1.shape(), decomp, c.rank());
    const auto msgs_before = c.messages_sent();
    ex.exchange(c, {&f1, &f2});
    // Aggregation: at most one message per remote neighbor direction,
    // regardless of field count.
    EXPECT_LE(c.messages_sent() - msgs_before,
              static_cast<std::uint64_t>(ex.remote_neighbor_count()));

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    for (index_t i : {index_t{-1}, sub, sub + 1}) {
      const Vec3 g{wrap(my_box.lo.x + i, global.x), 0, 0};
      ASSERT_EQ(f1(i, 0, 0), global_value(global, g));
      ASSERT_EQ(f2(i, 0, 0), -2.0 * global_value(global, g));
    }
  });
}

class ExchangeReuseTest : public ::testing::TestWithParam<BrickCase> {};

// One engine serves every round of a level: its request list and
// (kPacked) staging buffers carry over from round to round. A round
// after a wider aggregated one, and a round over new values, must
// still fill every ghost from the current owned data.
TEST_P(ExchangeReuseTest, EveryRoundRefillsTheGhosts) {
  const auto [rank_grid, bdim, mode, wrapped] = GetParam();
  const index_t sub = 2 * bdim;
  const Vec3 global{sub * rank_grid.x, sub * rank_grid.y, sub * rank_grid.z};
  const CartDecomp decomp(global, rank_grid);

  World world(decomp.num_ranks());
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray f1 = make_field(decomp, sub, bdim, wrapped);
    BrickedArray f2(f1.grid_ptr(), f1.shape());
    const auto fill = [&](BrickedArray& f, real_t scale) {
      for_each(Box::from_extent({sub, sub, sub}),
               [&](index_t i, index_t j, index_t k) {
                 f(i, j, k) = scale * global_value(global, {my_box.lo.x + i,
                                                            my_box.lo.y + j,
                                                            my_box.lo.z + k});
               });
    };
    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    const auto ghost_failures = [&](const BrickedArray& f, real_t scale) {
      int failures = 0;
      for_each(grow(Box::from_extent({sub, sub, sub}), bdim),
               [&](index_t i, index_t j, index_t k) {
                 const Vec3 g{wrap(my_box.lo.x + i, global.x),
                              wrap(my_box.lo.y + j, global.y),
                              wrap(my_box.lo.z + k, global.z)};
                 if (f(i, j, k) != scale * global_value(global, g)) ++failures;
               });
      return failures;
    };

    BrickExchange ex(f1.grid_ptr(), f1.shape(), decomp, c.rank(), mode);
    fill(f1, 1.0);
    ex.exchange(c, f1);
    EXPECT_EQ(ghost_failures(f1, 1.0), 0) << "first round";
    fill(f1, -2.0);
    fill(f2, 3.0);
    ex.exchange(c, {&f1, &f2});  // wider: two fields aggregated
    EXPECT_EQ(ghost_failures(f1, -2.0), 0) << "aggregated round, field 1";
    EXPECT_EQ(ghost_failures(f2, 3.0), 0) << "aggregated round, field 2";
    fill(f1, 0.5);
    ex.exchange(c, f1);  // narrower again, new values
    EXPECT_EQ(ghost_failures(f1, 0.5), 0) << "third round";
  });
}

INSTANTIATE_TEST_SUITE_P(
    Wrapped, ExchangeReuseTest, ::testing::ValuesIn(wrapped_cases()));

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExchangeReuseTest,
    ::testing::Values(BrickCase{{1, 1, 1}, 4, BrickExchangeMode::kPackFree},
                      BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPackFree},
                      BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPackFree},
                      BrickCase{{2, 2, 2}, 2, BrickExchangeMode::kPacked},
                      BrickCase{{2, 1, 1}, 4, BrickExchangeMode::kPerBrick}));

TEST(BrickExchangeAccounting, BytesMatchGhostVolume) {
  const index_t bdim = 4, sub = 8;
  const CartDecomp decomp({16, 16, 16}, {2, 2, 2});
  BrickedArray f = BrickedArray::create({sub, sub, sub},
                                        BrickShape::cube(bdim));
  BrickExchange ex(f.grid_ptr(), f.shape(), decomp, 0);
  // Total ghost volume: (sub+2*bdim)^3 - sub^3 cells, 8 B each.
  const std::uint64_t shell =
      static_cast<std::uint64_t>((sub + 2 * bdim) * (sub + 2 * bdim) *
                                 (sub + 2 * bdim) -
                                 sub * sub * sub) *
      sizeof(real_t);
  EXPECT_EQ(ex.bytes_per_exchange(), shell);
  // 2x2x2 rank grid: every one of the 26 directions is remote.
  EXPECT_EQ(ex.remote_bytes_per_exchange(), shell);
  EXPECT_EQ(ex.remote_neighbor_count(), 26);
}

TEST(BrickExchangeAccounting, WrappedGridMovesOnlyStoredGroups) {
  const index_t bdim = 4, sub = 8;
  const std::uint64_t brick_bytes = 4 * 4 * 4 * sizeof(real_t);
  // 2x2x1 (the amr_ranks shape): z wraps, leaving the 4 x/y faces and
  // the 4 xy edges — 8 messages instead of 24, 2*2*2 + 2*2*2 + 4*2
  // ghost bricks.
  {
    const CartDecomp decomp({16, 16, 8}, {2, 2, 1});
    const BrickedArray f = make_field(decomp, sub, bdim, true);
    BrickExchange ex(f.grid_ptr(), f.shape(), decomp, 0);
    EXPECT_EQ(ex.remote_neighbor_count(), 8);
    EXPECT_EQ(ex.remote_bytes_per_exchange(), 24 * brick_bytes);
    EXPECT_EQ(ex.bytes_per_exchange(), ex.remote_bytes_per_exchange());
  }
  // One rank: every axis wraps and the exchange moves nothing.
  {
    const CartDecomp decomp({8, 8, 8}, {1, 1, 1});
    const BrickedArray f = make_field(decomp, sub, bdim, true);
    BrickExchange ex(f.grid_ptr(), f.shape(), decomp, 0);
    EXPECT_EQ(ex.remote_neighbor_count(), 0);
    EXPECT_EQ(ex.bytes_per_exchange(), 0u);
  }
  // A grid may not wrap an axis that has more than one rank.
  {
    const CartDecomp decomp({16, 8, 8}, {2, 1, 1});
    const BrickedArray f = make_field(
        CartDecomp({8, 8, 8}, {1, 1, 1}), sub, bdim, true);
    EXPECT_THROW(BrickExchange(f.grid_ptr(), f.shape(), decomp, 0), Error);
  }
}

struct ArrayCase {
  Vec3 rank_grid;
  index_t ghost;
};

class ArrayExchangeTest : public ::testing::TestWithParam<ArrayCase> {};

TEST_P(ArrayExchangeTest, GhostsMatchPeriodicWrap) {
  const auto [rank_grid, ghost] = GetParam();
  const index_t sub = 8;
  const Vec3 global{sub * rank_grid.x, sub * rank_grid.y, sub * rank_grid.z};
  const CartDecomp decomp(global, rank_grid);

  World world(decomp.num_ranks());
  world.run([&](Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    Array3D field({sub, sub, sub}, ghost);
    for_each(field.interior(), [&](index_t i, index_t j, index_t k) {
      field(i, j, k) = global_value(
          global, {my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k});
    });
    ArrayExchange ex({sub, sub, sub}, ghost, decomp, c.rank());
    ex.exchange(c, field);

    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    int failures = 0;
    for_each(field.whole(), [&](index_t i, index_t j, index_t k) {
      const Vec3 g{wrap(my_box.lo.x + i, global.x),
                   wrap(my_box.lo.y + j, global.y),
                   wrap(my_box.lo.z + k, global.z)};
      if (field(i, j, k) != global_value(global, g) && failures++ < 3) {
        ADD_FAILURE() << "rank " << c.rank() << " ghost (" << i << ',' << j
                      << ',' << k << ')';
      }
    });
    ASSERT_EQ(failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, ArrayExchangeTest,
                         ::testing::Values(ArrayCase{{1, 1, 1}, 1},
                                           ArrayCase{{2, 1, 1}, 1},
                                           ArrayCase{{2, 2, 2}, 1},
                                           ArrayCase{{1, 2, 1}, 3},
                                           ArrayCase{{2, 2, 2}, 2},
                                           ArrayCase{{4, 1, 1}, 2}));

}  // namespace
}  // namespace gmg::comm

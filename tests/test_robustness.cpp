// Failure injection and contract checks: every misuse a downstream
// user is likely to hit must fail loudly at the API boundary, not
// corrupt memory.
#include <gtest/gtest.h>

#include "comm/exchange.hpp"
#include "common/options.hpp"
#include "gmg/operators.hpp"
#include "gmg/solver.hpp"
#include "perf/movement.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

TEST(ExchangeContracts, RejectsForeignGridField) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  comm::World world(1);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
    BrickedArray a = BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
    BrickedArray other =
        BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
    comm::BrickExchange ex(a.grid_ptr(), a.shape(), decomp, 0);
    ex.exchange(c, other);  // different grid instance
  }),
               Error);
}

TEST(ExchangeContracts, RejectsEmptyFieldList) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  comm::World world(1);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
    BrickedArray a = BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
    comm::BrickExchange ex(a.grid_ptr(), a.shape(), decomp, 0);
    ex.exchange(c, std::vector<BrickedArray*>{});
  }),
               Error);
}

TEST(ExchangeContracts, ArrayExchangeChecksGeometry) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  comm::World world(1);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
    Array3D wrong({8, 8, 8}, 1);
    comm::ArrayExchange ex({16, 16, 16}, 1, decomp, 0);
    ex.exchange(c, wrong);
  }),
               Error);
  EXPECT_THROW(comm::ArrayExchange({16, 16, 16}, 0, decomp, 0), Error);
}

TEST(SolverContracts, RejectsImpossibleGeometry) {
  // Subdomain smaller than one brick.
  const CartDecomp tiny({4, 4, 4}, {1, 1, 1});
  GmgOptions o;
  o.brick = BrickShape::cube(8);
  EXPECT_THROW(GmgSolver(o, tiny, 0), Error);
  // Zero smoothing iterations.
  const CartDecomp ok({16, 16, 16}, {1, 1, 1});
  o = GmgOptions{};
  o.brick = BrickShape::cube(4);
  o.smooths = 0;
  EXPECT_THROW(GmgSolver(o, ok, 0), Error);
  // Non-brick-divisible subdomain clamps to zero levels and throws.
  const CartDecomp odd({12, 12, 12}, {1, 1, 1});
  o = GmgOptions{};
  o.brick = BrickShape::cube(8);
  EXPECT_THROW(GmgSolver(o, odd, 0), Error);
}

TEST(SolverContracts, UnsupportedBrickShapes) {
  // Storage accepts any divisible shape; the compiled kernels dispatch
  // only to the supported (2/4/8, cubic) dimensions.
  BrickedArray odd = BrickedArray::create({18, 18, 18}, BrickShape::cube(3));
  EXPECT_THROW(max_norm(odd), Error);
  EXPECT_THROW(with_brick_dims(BrickShape{4, 4, 8}, [](auto) {}), Error);
  EXPECT_THROW(with_brick_dims(BrickShape::cube(16), [](auto) {}), Error);
}


TEST(MovementContracts, OddExtentRejected) {
  EXPECT_THROW(perf::measure_movement(arch::Op::kApplyOp,
                                      perf::Layout::kBrick, 31, 8, 0, 64),
               Error);
  EXPECT_THROW(perf::CacheSim(32, 64), Error);  // smaller than one line
}

TEST(OptionsContracts, RepeatedFlagLastWins) {
  Options opt;
  opt.add_flag("s", "size", "8");
  const char* argv[] = {"exe", "-s", "16", "-s", "32"};
  opt.parse(5, argv);
  EXPECT_EQ(opt.get_int("s"), 32);
}

TEST(OptionsContracts, MissingValueThrows) {
  Options opt;
  opt.add_flag("s", "size", "8");
  const char* argv[] = {"exe", "-s"};
  EXPECT_THROW(opt.parse(2, argv), Error);
}

TEST(DecompositionContracts, BadInputs) {
  EXPECT_THROW(factor_ranks(0), Error);
  EXPECT_THROW(CartDecomp({16, 16, 16}, {0, 1, 1}), Error);
  const CartDecomp d({16, 16, 16}, {2, 2, 2});
  EXPECT_THROW(d.coord_of(8), Error);
  EXPECT_THROW(d.coord_of(-1), Error);
}

TEST(WorldContracts, NeedsAtLeastOneRank) {
  EXPECT_THROW(comm::World(0), Error);
}

}  // namespace
}  // namespace gmg

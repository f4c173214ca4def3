// Property-style sweeps and edge cases across the stack: solver
// configuration space, non-cubic domains, aggregated exchanges,
// zero-size messages, random-region brick segmentation.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>

#include "comm/exchange.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

struct SolverConfig {
  index_t brick;
  int levels;
  int smooths;
  bool ca;
};

class SolverConfigSweep : public ::testing::TestWithParam<SolverConfig> {};

TEST_P(SolverConfigSweep, ConvergesAndResidualRechecks) {
  const SolverConfig cfg = GetParam();
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = cfg.levels;
    o.smooths = cfg.smooths;
    o.bottom_smooths = 60;
    o.brick = BrickShape::cube(cfg.brick);
    o.communication_avoiding = cfg.ca;
    o.max_vcycles = 80;
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    const SolveResult r = solver.solve(c);
    EXPECT_TRUE(r.converged)
        << "brick " << cfg.brick << " levels " << cfg.levels << " smooths "
        << cfg.smooths << " ca " << cfg.ca;
    // Recomputing from scratch must agree with the recorded residual.
    EXPECT_NEAR(solver.residual_norm(c), r.final_residual,
                r.final_residual * 1e-6 + 1e-16);
  });
}

// gtest names each case by the struct's bytes, padding included. A static
// array is zero-initialized, padding too, so every build and every run
// lists the same names (temporaries left stack bytes in the padding).
constexpr SolverConfig kSolverConfigs[] = {
    {2, 4, 6, true},  {2, 4, 6, false}, {4, 3, 4, true}, {4, 3, 12, true},
    {4, 2, 8, false}, {8, 2, 8, true},  {8, 1, 8, true}};

INSTANTIATE_TEST_SUITE_P(Grid, SolverConfigSweep,
                         ::testing::ValuesIn(kSolverConfigs));

TEST(NonCubicDomains, SolverConvergesOnAnisotropicExtents) {
  // Global 64x32x32 cells; h is uniform (1/64), so the physical domain
  // is [0,1] x [0,1/2] x [0,1/2]. An x-only sine is periodic on it.
  const CartDecomp decomp({64, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = 3;
    o.smooths = 8;
    o.bottom_smooths = 60;
    o.brick = BrickShape::cube(4);
    GmgSolver solver(o, decomp, 0);
    EXPECT_EQ(solver.level(0).cells, (Vec3{64, 32, 32}));
    EXPECT_EQ(solver.level(2).cells, (Vec3{16, 8, 8}));
    solver.set_rhs(
        [](real_t x, real_t, real_t) { return std::sin(2 * M_PI * x); });
    const SolveResult r = solver.solve(c);
    EXPECT_TRUE(r.converged);
    // 1-D eigenfunction: lambda = 2(cos(2 pi h) - 1)/h^2.
    const real_t h = solver.level(0).h;
    const real_t lambda = 2.0 * (std::cos(2 * M_PI * h) - 1.0) / (h * h);
    real_t max_err = 0;
    for_each(Box::from_extent({64, 32, 32}),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = std::sin(2 * M_PI * (i + 0.5) * h) / lambda;
               max_err = std::max(
                   max_err, std::abs(solver.solution()(i, j, k) - want));
             });
    EXPECT_LT(max_err, 1e-10);
  });
}

TEST(NonCubicDomains, MultiRankAnisotropicGrid) {
  const CartDecomp decomp({64, 32, 32}, {4, 2, 1});
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = 3;
    o.smooths = 8;
    o.bottom_smooths = 100;
    o.brick = BrickShape::cube(4);
    GmgSolver solver(o, decomp, c.rank());
    EXPECT_EQ(solver.num_levels(), 3);  // 16x16x32 -> 8x8x16 -> 4x4x8
    solver.set_rhs(
        [](real_t x, real_t, real_t) { return std::sin(2 * M_PI * x); });
    const SolveResult r = solver.solve(c);
    EXPECT_TRUE(r.converged);
  });
}

TEST(MultiFieldExchange, ThreeFieldsStayIndependent) {
  const CartDecomp decomp({16, 8, 8}, {2, 1, 1});
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    const Box my_box = decomp.subdomain_box(c.rank());
    BrickedArray a = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
    BrickedArray b(a.grid_ptr(), a.shape());
    BrickedArray p(a.grid_ptr(), a.shape());
    const auto val = [&](Vec3 g, int field) {
      return static_cast<real_t>(field * 10000 +
                                 (g.z * 16 + g.y) * 16 + g.x);
    };
    for_each(Box::from_extent({8, 8, 8}), [&](index_t i, index_t j, index_t k) {
      const Vec3 g{my_box.lo.x + i, my_box.lo.y + j, my_box.lo.z + k};
      a(i, j, k) = val(g, 0);
      b(i, j, k) = val(g, 1);
      p(i, j, k) = val(g, 2);
    });
    comm::BrickExchange ex(a.grid_ptr(), a.shape(), decomp, c.rank());
    ex.exchange(c, {&a, &b, &p});
    const auto wrap = [](index_t v, index_t n) { return ((v % n) + n) % n; };
    int failures = 0;
    for_each(grow(Box::from_extent({8, 8, 8}), 4),
             [&](index_t i, index_t j, index_t k) {
               const Vec3 g{wrap(my_box.lo.x + i, 16),
                            wrap(my_box.lo.y + j, 8),
                            wrap(my_box.lo.z + k, 8)};
               if ((a(i, j, k) != val(g, 0) || b(i, j, k) != val(g, 1) ||
                    p(i, j, k) != val(g, 2)) &&
                   failures++ < 3) {
                 ADD_FAILURE() << "field mix-up at (" << i << ',' << j << ','
                               << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

TEST(SimMpiEdgeCases, ZeroByteMessageAndEmptyWaitAll) {
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    std::vector<comm::Request> none;
    c.wait_all(none);  // must be a no-op
    if (c.rank() == 0) {
      comm::Request s = c.isend(nullptr, 0, 1, 5);
      c.wait(s);
    } else {
      comm::Request r = c.irecv(nullptr, 0, 0, 5);
      c.wait(r);
    }
  });
}

TEST(BrickGridProperties, RandomRegionSegmentsCoverExactly) {
  const BrickGrid g({4, 3, 5});
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Box region;
    for (int d = 0; d < 3; ++d) {
      const index_t n = g.interior_extent()[d];
      const index_t lo = rng.uniform_int(-1, n);
      const index_t hi = rng.uniform_int(lo + 1, n + 1);
      region.lo[d] = lo;
      region.hi[d] = hi;
    }
    const auto runs = g.segments_of(region);
    index_t total = 0;
    std::set<std::int32_t> seen;
    for (const auto& r : runs) {
      total += r.count;
      for (std::int32_t i = r.first; i < r.first + r.count; ++i) {
        EXPECT_TRUE(seen.insert(i).second);
      }
    }
    EXPECT_EQ(total, region.volume());
    // Every brick of the region is present.
    for_each(region, [&](index_t i, index_t j, index_t k) {
      EXPECT_TRUE(seen.count(g.storage_id({i, j, k})));
    });
  }
}

TEST(TableOutput, CsvFileRoundTrip) {
  Table t({"a", "b"});
  t.row().cell("x").cell(1.5, 1);
  const std::string path = "/tmp/gmg_test_table.csv";
  t.write_csv(path);
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::getline(f, line);
  EXPECT_EQ(line, "x,1.5");
}

TEST(OptionsHelp, ListsDeclaredFlags) {
  Options opt;
  opt.add_flag("s", "subdomain size", "64");
  opt.add_switch("verbose", "print more");
  const std::string help = opt.help("prog");
  EXPECT_NE(help.find("-s <value>"), std::string::npos);
  EXPECT_NE(help.find("subdomain size"), std::string::npos);
  EXPECT_NE(help.find("default: 64"), std::string::npos);
  EXPECT_NE(help.find("-verbose"), std::string::npos);
}

}  // namespace
}  // namespace gmg

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/options.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace gmg {
namespace {

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ((a + b), (Vec3{5, 7, 9}));
  EXPECT_EQ((b - a), (Vec3{3, 3, 3}));
  EXPECT_EQ((a * 2), (Vec3{2, 4, 6}));
  EXPECT_EQ(a.volume(), 6);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(a[1], 2);
  EXPECT_EQ(a[2], 3);
}

TEST(Vec3, VolumeAtMostNeverOverflows) {
  EXPECT_TRUE((Vec3{8, 8, 8}).volume_at_most(512));
  EXPECT_FALSE((Vec3{8, 8, 9}).volume_at_most(512));
  EXPECT_TRUE((Vec3{0, 1 << 30, 1 << 30}).volume_at_most(0));
  // Products that wrap a 64-bit integer to 0 and to a negative value.
  EXPECT_FALSE((Vec3{1 << 22, 1 << 21, 1 << 21}).volume_at_most(512));
  EXPECT_FALSE((Vec3{1 << 22, 1 << 21, (1 << 21) - 1}).volume_at_most(512));
  const index_t big = index_t{1} << 31;
  EXPECT_FALSE((Vec3{big, big, big}).volume_at_most(index_t{1} << 62));
  EXPECT_TRUE((Vec3{big, big, 1}).volume_at_most(index_t{1} << 62));
}

TEST(Directions, RoundTrip) {
  int seen = 0;
  for (int dz = -1; dz <= 1; ++dz)
    for (int dy = -1; dy <= 1; ++dy)
      for (int dx = -1; dx <= 1; ++dx) {
        const int dir = direction_index(dx, dy, dz);
        ASSERT_GE(dir, 0);
        ASSERT_LT(dir, kNumDirections);
        EXPECT_EQ(direction_offset(dir), (Vec3{dx, dy, dz}));
        ++seen;
      }
  EXPECT_EQ(seen, kNumDirections);
  EXPECT_EQ(direction_index(0, 0, 0), kSelfDirection);
}

TEST(Directions, OppositeIsNegated) {
  for (int dir = 0; dir < kNumDirections; ++dir) {
    const Vec3 off = direction_offset(dir);
    const Vec3 opp = direction_offset(opposite_direction(dir));
    EXPECT_EQ(opp, (Vec3{-off.x, -off.y, -off.z}));
  }
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  RunningStats a, b, all;
  for (int i = 0; i < 10; ++i) {
    a.add(i);
    all.add(i);
  }
  for (int i = 10; i < 25; ++i) {
    b.add(i * 0.5);
    all.add(i * 0.5);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, SummaryFormat) {
  RunningStats s;
  s.add(1.0);
  s.add(3.0);
  const std::string out = s.summary();
  EXPECT_NE(out.find("[1, 2, 3]"), std::string::npos) << out;
  EXPECT_NE(out.find("σ"), std::string::npos);
}

TEST(Options, ArtifactStyleFlags) {
  Options opt;
  opt.add_flag("s", "subdomain size", "64");
  opt.add_flag("I", "iterations", "10");
  opt.add_flag("l", "levels", "6");
  opt.add_flag("n", "max solver iterations", "20");
  const char* argv[] = {"exe", "-s", "512,512,512", "-I", "10", "-l", "6",
                        "-n", "20"};
  opt.parse(9, argv);
  EXPECT_EQ(opt.get_vec3("s"), (Vec3{512, 512, 512}));
  EXPECT_EQ(opt.get_int("I"), 10);
  EXPECT_EQ(opt.get_int("l"), 6);
  EXPECT_EQ(opt.get_int("n"), 20);
}

TEST(Options, CubeShorthandAndDefaults) {
  Options opt;
  opt.add_flag("s", "size", "64");
  opt.add_switch("ca", "communication avoiding");
  const char* argv[] = {"exe", "-s", "32"};
  opt.parse(3, argv);
  EXPECT_EQ(opt.get_vec3("s"), (Vec3{32, 32, 32}));
  EXPECT_FALSE(opt.get_bool("ca"));
  EXPECT_TRUE(opt.has("s"));
  EXPECT_FALSE(opt.has("ca"));
}

TEST(Options, SwitchAndEqualsSyntax) {
  Options opt;
  opt.add_flag("mode", "exchange mode", "packfree");
  opt.add_switch("v", "verbose");
  const char* argv[] = {"exe", "--mode=packed", "-v"};
  opt.parse(3, argv);
  EXPECT_EQ(opt.get("mode"), "packed");
  EXPECT_TRUE(opt.get_bool("v"));
}

TEST(Options, RejectsUnknownFlag) {
  Options opt;
  opt.add_flag("s", "size", "64");
  const char* argv[] = {"exe", "-bogus", "1"};
  EXPECT_THROW(opt.parse(3, argv), Error);
}

TEST(Options, RejectsBadInteger) {
  Options opt;
  opt.add_flag("n", "count", "1");
  const char* argv[] = {"exe", "-n", "abc"};
  opt.parse(3, argv);
  EXPECT_THROW(opt.get_int("n"), Error);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table t({"op", "value"});
  t.row().cell("applyOp").cell(0.5, 2);
  t.row().cell("smooth").cell_percent(0.73);
  const std::string s = t.str();
  EXPECT_NE(s.find("applyOp"), std::string::npos);
  EXPECT_NE(s.find("0.50"), std::string::npos);
  EXPECT_NE(s.find("73.0%"), std::string::npos);
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("op,value"), std::string::npos);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

}  // namespace
}  // namespace gmg

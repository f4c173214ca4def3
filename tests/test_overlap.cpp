// Compute–comm overlap (DESIGN.md §10): the interior/surface brick
// partition must classify every owned brick exactly once and agree
// with a brute-force adjacency scan, and the overlapped solver must be
// bitwise identical to the blocking one — same residual history, same
// solution, for every smoother and CA schedule, solo and batched —
// with its interior pass run on each rank's own thread between begin()
// and finish(); a level under either overlap cutoff stays blocking.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <set>
#include <vector>

#include "batch/batched_solver.hpp"
#include "brick/brick_grid.hpp"
#include "comm/simmpi.hpp"
#include "gmg/solver.hpp"
#include "mesh/array3d.hpp"
#include "mesh/decomposition.hpp"
#include "trace/trace.hpp"

namespace gmg {
namespace {

// ---------------------------------------------------------------------------
// Partition exactness.

/// Ground truth, straight from the definition: a brick is surface iff
/// any of its 26 stencil neighbors is a ghost brick filled by a remote
/// rank.
bool brute_force_surface(const BrickGrid& grid, std::int32_t id,
                         const std::array<bool, kNumDirections>& remote) {
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    const std::int32_t n = grid.adjacent(id, dir);
    if (n >= grid.num_interior() && remote[grid.ghost_group(n)]) return true;
  }
  return false;
}

class PartitionExactness : public ::testing::TestWithParam<Vec3> {};

TEST_P(PartitionExactness, MatchesBruteForceOnEveryRank) {
  const Vec3 rank_grid = GetParam();
  // 24 is divisible by every rank-grid factor used below.
  const CartDecomp decomp({24, 24, 24}, rank_grid);
  // Include a slab-thin grid: with a remote x-neighbor its whole x
  // extent is surface and the interior partition collapses to empty.
  const std::vector<Vec3> shapes{{3, 3, 3}, {1, 3, 2}, {4, 1, 1}};

  for (int rank = 0; rank < decomp.num_ranks(); ++rank) {
    const auto remote = decomp.remote_neighbors(rank);
    for (const Vec3 nb : shapes) {
      const BrickGrid grid(nb);
      const BrickPartition part = grid.partition(remote);

      // Every owned brick lands in exactly one list, both ascending.
      EXPECT_TRUE(std::is_sorted(part.interior.begin(), part.interior.end()));
      EXPECT_TRUE(std::is_sorted(part.surface.begin(), part.surface.end()));
      std::set<std::int32_t> seen;
      for (std::int32_t id : part.interior) seen.insert(id);
      for (std::int32_t id : part.surface) seen.insert(id);
      ASSERT_EQ(static_cast<std::int32_t>(seen.size()), grid.num_interior())
          << "rank " << rank << " nb " << nb.x << 'x' << nb.y << 'x' << nb.z;
      ASSERT_EQ(part.interior.size() + part.surface.size(), seen.size());
      EXPECT_EQ(*seen.begin(), 0);
      EXPECT_EQ(*seen.rbegin(), grid.num_interior() - 1);

      // Classification agrees with the definition, brick by brick.
      for (std::int32_t id = 0; id < grid.num_interior(); ++id) {
        const bool surf = brute_force_surface(grid, id, remote);
        const bool listed_surf =
            std::binary_search(part.surface.begin(), part.surface.end(), id);
        EXPECT_EQ(listed_surf, surf)
            << "rank " << rank << " brick " << id << " at ("
            << grid.coord_of(id).x << ',' << grid.coord_of(id).y << ','
            << grid.coord_of(id).z << ')';
        // The box forms agree with the lists.
        EXPECT_EQ(part.interior_box.contains(grid.coord_of(id)), !surf);
        int boxes_hit = 0;
        for (const Box& s : part.surface_boxes)
          if (s.contains(grid.coord_of(id))) ++boxes_hit;
        EXPECT_EQ(boxes_hit, surf ? 1 : 0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RankGrids, PartitionExactness,
                         ::testing::Values(Vec3{1, 1, 1}, Vec3{2, 1, 1},
                                           Vec3{2, 2, 2}, Vec3{3, 3, 3}));

TEST(PartitionExactness, SingleRankIsAllInterior) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const BrickGrid grid({2, 2, 2});
  const BrickPartition part = grid.partition(decomp.remote_neighbors(0));
  EXPECT_EQ(static_cast<std::int32_t>(part.interior.size()),
            grid.num_interior());
  EXPECT_TRUE(part.surface.empty());
  EXPECT_EQ(part.interior_box, grid.interior_box());
  EXPECT_TRUE(part.surface_boxes.empty());
}

// ---------------------------------------------------------------------------
// Bitwise identity of the overlapped solver.

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

/// From the trace of one overlapped solve: the split path ran on every
/// rank, and each rank's interior pass ran on its own thread — every
/// `overlap.interior` span shares the thread of that rank's
/// `exchange.wait` spans and ends before the wait of the round it
/// overlaps starts.
void expect_interior_pass_on_rank_thread(const trace::Snapshot& snap,
                                         int nranks, const char* name) {
  for (int r = 0; r < nranks; ++r) {
    std::vector<const trace::SpanRecord*> interior;
    std::vector<const trace::SpanRecord*> waits;
    for (const trace::SpanRecord& s : snap.spans) {
      if (s.rank != r) continue;
      if (s.name == "overlap.interior") interior.push_back(&s);
      if (s.name == "exchange.wait") waits.push_back(&s);
    }
    ASSERT_FALSE(interior.empty())
        << name << " rank " << r << ": the split path never ran";
    ASSERT_FALSE(waits.empty()) << name << " rank " << r;
    const int rank_tid = waits.front()->tid;
    for (const trace::SpanRecord* w : waits)
      ASSERT_EQ(w->tid, rank_tid) << name << " rank " << r;
    for (const trace::SpanRecord* in : interior) {
      EXPECT_EQ(in->tid, rank_tid)
          << name << " rank " << r << ": interior pass off the rank thread";
      const trace::SpanRecord* next = nullptr;
      for (const trace::SpanRecord* w : waits) {
        if (w->t0_ns >= in->t0_ns &&
            (next == nullptr || w->t0_ns < next->t0_ns))
          next = w;
      }
      ASSERT_NE(next, nullptr) << name << " rank " << r;
      EXPECT_LE(in->t1_ns(), next->t0_ns)
          << name << " rank " << r << ": interior pass overlaps its wait";
    }
  }
}

/// 32^3 on 2x2x2 ranks with 4^3 bricks: each rank's 16^3 L0 block has
/// 8 interior bricks and an interior/payload ratio of 0.053; L1 has no
/// interior brick.
constexpr Vec3 kGlobal{32, 32, 32};

GmgOptions fixed_cycle_options() {
  GmgOptions o;
  o.levels = 2;
  o.smooths = 4;
  o.bottom_smooths = 20;
  o.tolerance = 1e-30;  // never reached: fixed-cycle comparison
  o.max_vcycles = 3;
  o.brick = BrickShape::cube(4);
  return o;
}

struct OverlapCase {
  Smoother smoother;
  bool ca;
  const char* name;
};

class OverlapBitwise : public ::testing::TestWithParam<OverlapCase> {};

TEST_P(OverlapBitwise, MatchesBlockingSolveExactly) {
  const OverlapCase& tc = GetParam();
  const CartDecomp decomp(kGlobal, {2, 2, 2});

  GmgOptions base = fixed_cycle_options();
  base.smoother = tc.smoother;
  base.communication_avoiding = tc.ca;

  const Vec3 sub = decomp.subdomain_extent();
  const int nranks = decomp.num_ranks();
  std::vector<std::vector<real_t>> history(2);
  std::vector<std::vector<Array3D>> solution(2);

  for (int overlap = 0; overlap < 2; ++overlap) {
    GmgOptions opts = base;
    opts.overlap = overlap == 1;
    // The L0 interior/payload ratio here is 0.053, under the default
    // cutoff: force the split so the overlapped arm really splits.
    opts.overlap_min_compute_bytes_ratio = 0;
    trace::clear();
    for (int r = 0; r < nranks; ++r)
      solution[static_cast<std::size_t>(overlap)].emplace_back(sub, 0);
    comm::World world(nranks);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(opts, decomp, c.rank());
      solver.set_rhs(sine_rhs);
      const SolveResult res = solver.solve(c);
      solver.solution().copy_to(
          solution[static_cast<std::size_t>(overlap)]
                  [static_cast<std::size_t>(c.rank())]);
      if (c.rank() == 0)
        history[static_cast<std::size_t>(overlap)] = res.history;
    });
    if (overlap == 1)
      expect_interior_pass_on_rank_thread(trace::collect(), nranks, tc.name);
  }

  // Residual histories are bitwise identical, cycle by cycle.
  ASSERT_EQ(history[0].size(), history[1].size());
  ASSERT_EQ(history[0].size(), 4u);  // initial + 3 cycles
  for (std::size_t i = 0; i < history[0].size(); ++i)
    EXPECT_EQ(history[0][i], history[1][i]) << tc.name << " cycle " << i;

  // So are the solutions, on every rank.
  for (int r = 0; r < nranks; ++r) {
    int failures = 0;
    for_each(Box::from_extent(sub), [&](index_t i, index_t j, index_t k) {
      const real_t off = solution[0][static_cast<std::size_t>(r)](i, j, k);
      const real_t on = solution[1][static_cast<std::size_t>(r)](i, j, k);
      if (off != on && failures++ < 3) {
        ADD_FAILURE() << tc.name << " rank " << r << " (" << i << ',' << j
                      << ',' << k << "): blocking " << off << " overlapped "
                      << on;
      }
    });
    ASSERT_EQ(failures, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Smoothers, OverlapBitwise,
    ::testing::Values(OverlapCase{Smoother::kPointJacobi, true, "jacobi_ca"},
                      OverlapCase{Smoother::kPointJacobi, false, "jacobi"},
                      OverlapCase{Smoother::kChebyshev, true, "cheby_ca"},
                      OverlapCase{Smoother::kRedBlackGS, true, "gs_ca"},
                      OverlapCase{Smoother::kRedBlackGS, false, "gs"}),
    [](const ::testing::TestParamInfo<OverlapCase>& info) {
      return std::string(info.param.name);
    });

real_t sine_rhs_2x(real_t x, real_t y, real_t z) {
  return std::sin(4 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

// The batched solve runs the same executor, so its split sweeps take
// the same rank-thread order and stay bitwise equal to blocking ones.
TEST(BatchedOverlap, InteriorPassRunsOnRankThreadAndMatchesBlocking) {
  const CartDecomp decomp(kGlobal, {2, 2, 2});
  const int nranks = decomp.num_ranks();
  const std::vector<std::function<real_t(real_t, real_t, real_t)>> rhs{
      sine_rhs, sine_rhs_2x};
  const int k = static_cast<int>(rhs.size());
  // [overlap][component]: rank 0's history; [overlap][rank][component]:
  // the solution.
  std::vector<std::vector<std::vector<real_t>>> history(2);
  std::vector<std::vector<std::vector<std::vector<real_t>>>> solution(2);

  for (int overlap = 0; overlap < 2; ++overlap) {
    GmgOptions opts = fixed_cycle_options();
    opts.communication_avoiding = true;
    opts.overlap = overlap == 1;
    opts.overlap_min_compute_bytes_ratio = 0;  // force the split
    const auto o = static_cast<std::size_t>(overlap);
    solution[o].resize(static_cast<std::size_t>(nranks));
    trace::clear();
    comm::World world(nranks);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(opts, decomp, c.rank());
      batch::BatchedSolver bs(solver, k);
      bs.set_rhs(rhs);
      std::vector<batch::BatchSolveSpec> specs(static_cast<std::size_t>(k));
      for (batch::BatchSolveSpec& spec : specs) {
        spec.tolerance = opts.tolerance;
        spec.max_vcycles = opts.max_vcycles;
      }
      const std::vector<SolveResult> res = bs.solve(c, specs);
      for (int i = 0; i < k; ++i) {
        solution[o][static_cast<std::size_t>(c.rank())].push_back(
            bs.solution(i));
        if (c.rank() == 0)
          history[o].push_back(res[static_cast<std::size_t>(i)].history);
      }
    });
    if (overlap == 1)
      expect_interior_pass_on_rank_thread(trace::collect(), nranks, "batched");
  }

  ASSERT_EQ(history[0].size(), static_cast<std::size_t>(k));
  ASSERT_EQ(history[1].size(), history[0].size());
  for (std::size_t i = 0; i < history[0].size(); ++i) {
    ASSERT_EQ(history[0][i].size(), 4u);  // initial + 3 cycles
    EXPECT_EQ(history[0][i], history[1][i]) << "component " << i;
  }
  for (int r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    ASSERT_EQ(solution[0][ri].size(), solution[1][ri].size());
    for (std::size_t i = 0; i < solution[0][ri].size(); ++i)
      EXPECT_TRUE(solution[0][ri][i] == solution[1][ri][i])
          << "rank " << r << " component " << i;
  }
}

// Cycle::use_overlap's two cutoffs: a level under either one exchanges
// blocking, so no interior pass runs anywhere in the solve.
TEST(OverlapCutoff, LevelUnderEitherCutoffStaysBlocking) {
  const CartDecomp decomp(kGlobal, {2, 2, 2});
  GmgOptions by_bytes = fixed_cycle_options();  // ratio 0.053 < 8.0
  GmgOptions by_bricks = fixed_cycle_options();
  by_bricks.overlap_min_compute_bytes_ratio = 0;
  by_bricks.overlap_min_interior_bricks = 9;  // L0 has 8
  for (const GmgOptions& opts : {by_bytes, by_bricks}) {
    ASSERT_TRUE(opts.overlap);
    trace::clear();
    comm::World world(decomp.num_ranks());
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(opts, decomp, c.rank());
      solver.set_rhs(sine_rhs);
      solver.solve(c);
    });
    const trace::Snapshot snap = trace::collect();
    const auto spans_named = [&snap](const char* name) {
      return std::count_if(
          snap.spans.begin(), snap.spans.end(),
          [name](const trace::SpanRecord& s) { return s.name == name; });
    };
    EXPECT_GT(spans_named("exchange.wait"), 0);
    EXPECT_EQ(spans_named("overlap.interior"), 0)
        << "min interior bricks " << opts.overlap_min_interior_bricks;
  }
}

}  // namespace
}  // namespace gmg

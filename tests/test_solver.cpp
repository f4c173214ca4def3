// End-to-end GMG solver correctness: convergence, the exact discrete
// solution oracle, CA vs non-CA equivalence, multi-rank vs single-rank
// equivalence, and agreement with the conventional-layout baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/solver_array.hpp"
#include "gmg/operators.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

GmgOptions small_options(index_t bdim = 8, int levels = 3) {
  GmgOptions o;
  o.levels = levels;
  o.smooths = 8;
  o.bottom_smooths = 50;
  o.tolerance = 1e-10;
  o.max_vcycles = 60;
  o.brick = BrickShape::cube(bdim);
  return o;
}

TEST(GmgSolver, LevelHierarchyGeometry) {
  const CartDecomp decomp({64, 64, 64}, {1, 1, 1});
  GmgSolver solver(small_options(8, 3), decomp, 0);
  ASSERT_EQ(solver.num_levels(), 3);
  EXPECT_EQ(solver.level(0).cells, (Vec3{64, 64, 64}));
  EXPECT_EQ(solver.level(1).cells, (Vec3{32, 32, 32}));
  EXPECT_EQ(solver.level(2).cells, (Vec3{16, 16, 16}));
  EXPECT_DOUBLE_EQ(solver.level(0).h, 1.0 / 64);
  EXPECT_DOUBLE_EQ(solver.level(1).h, 1.0 / 32);
  // Coefficients follow the paper: alpha=-6/h^2, beta=1/h^2, g=h^2/12.
  const auto& l1 = solver.level(1);
  EXPECT_DOUBLE_EQ(l1.alpha, -6.0 / (l1.h * l1.h));
  EXPECT_DOUBLE_EQ(l1.beta, 1.0 / (l1.h * l1.h));
  EXPECT_NEAR(l1.gamma, l1.h * l1.h / 12.0, 1e-18);
}

TEST(GmgSolver, ClampsLevelsToBrickSize) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  GmgSolver solver(small_options(8, 6), decomp, 0);
  // 32 -> 16 -> 8; the next level (4) would be below one 8^3 brick.
  EXPECT_EQ(solver.num_levels(), 3);
}

TEST(GmgSolver, ResidualDecreasesMonotonicallyOverVcycles) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 3), decomp, 0);
    solver.set_rhs(sine_rhs);
    real_t prev = solver.residual_norm(c);
    for (int i = 0; i < 4; ++i) {
      solver.vcycle(c);
      const real_t now = solver.residual_norm(c);
      EXPECT_LT(now, prev * 0.5) << "V-cycle " << i << " barely converged";
      prev = now;
    }
  });
}

TEST(GmgSolver, ConvergesToPaperTolerance) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 3), decomp, 0);
    solver.set_rhs(sine_rhs);
    const SolveResult res = solver.solve(c);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.final_residual, 1e-10);
    EXPECT_LE(res.vcycles, 30);
  });
}

TEST(GmgSolver, MatchesExactDiscreteSolution) {
  // The RHS is an eigenfunction of A, so x* = b / lambda exactly.
  const index_t nn = 32;
  const CartDecomp decomp({nn, nn, nn}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(8, 2), decomp, 0);
    solver.set_rhs(sine_rhs);
    solver.solve(c);
    const real_t h = 1.0 / static_cast<real_t>(nn);
    const real_t lambda = 6.0 * (std::cos(2 * M_PI * h) - 1.0) / (h * h);
    const BrickedArray& x = solver.solution();
    real_t max_err = 0;
    for_each(Box::from_extent({nn, nn, nn}),
             [&](index_t i, index_t j, index_t k) {
               const real_t want =
                   sine_rhs((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h) /
                   lambda;
               max_err = std::max(max_err, std::abs(x(i, j, k) - want));
             });
    // |r|_inf <= 1e-10 and |A^-1| ~ 1/|lambda_min|; generous bound.
    EXPECT_LT(max_err, 1e-10);
  });
}

TEST(GmgSolver, CommunicationAvoidingMatchesNaiveSchedule) {
  // CA redundant-ghost smoothing must be bitwise identical to
  // exchange-every-iteration (same arithmetic, same data).
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions ca = small_options(4, 3);
    ca.communication_avoiding = true;
    GmgOptions naive = ca;
    naive.communication_avoiding = false;

    GmgSolver s1(ca, decomp, 0), s2(naive, decomp, 0);
    s1.set_rhs(sine_rhs);
    s2.set_rhs(sine_rhs);
    for (int v = 0; v < 3; ++v) {
      s1.vcycle(c);
      s2.vcycle(c);
    }
    const BrickedArray& x1 = s1.solution();
    const BrickedArray& x2 = s2.solution();
    for_each(Box::from_extent({32, 32, 32}),
             [&](index_t i, index_t j, index_t k) {
               ASSERT_EQ(x1(i, j, k), x2(i, j, k))
                   << "at (" << i << ',' << j << ',' << k << ')';
             });
  });
}

class MultiRankSolve : public ::testing::TestWithParam<Vec3> {};

TEST_P(MultiRankSolve, MatchesSingleRankBitwise) {
  const Vec3 rank_grid = GetParam();
  const Vec3 global{32, 32, 32};

  // Reference: one rank owning the whole domain.
  const CartDecomp ref_decomp(global, {1, 1, 1});
  Array3D reference(global, 0);
  {
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(small_options(4, 2), ref_decomp, 0);
      solver.set_rhs(sine_rhs);
      for (int v = 0; v < 2; ++v) solver.vcycle(c);
      solver.solution().copy_to(reference);
    });
  }

  const CartDecomp decomp(global, rank_grid);
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 2), decomp, c.rank());
    solver.set_rhs(sine_rhs);
    for (int v = 0; v < 2; ++v) solver.vcycle(c);
    const Box my_box = decomp.subdomain_box(c.rank());
    const BrickedArray& x = solver.solution();
    int failures = 0;
    for_each(Box::from_extent(decomp.subdomain_extent()),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = reference(my_box.lo.x + i, my_box.lo.y + j,
                                             my_box.lo.z + k);
               if (x(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << "rank " << c.rank() << " (" << i << ',' << j
                               << ',' << k << "): got " << x(i, j, k)
                               << " want " << want;
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

// Each grid wraps its one-rank axes (DESIGN.md §11) and grows its CA
// sweeps along the rest; {1,1,2}, {1,2,2} and {4,1,1} put the remote
// axes where the others do not.
INSTANTIATE_TEST_SUITE_P(RankGrids, MultiRankSolve,
                         ::testing::Values(Vec3{2, 1, 1}, Vec3{1, 2, 1},
                                           Vec3{2, 2, 1}, Vec3{2, 2, 2},
                                           Vec3{1, 1, 2}, Vec3{1, 2, 2},
                                           Vec3{4, 1, 1}));

TEST(ArrayBaseline, ConvergesToSameSolutionAsBricks) {
  const Vec3 global{32, 32, 32};
  const CartDecomp decomp(global, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver brick_solver(small_options(4, 3), decomp, 0);
    brick_solver.set_rhs(sine_rhs);
    const SolveResult br = brick_solver.solve(c);

    baseline::ArrayGmgOptions aopts;
    aopts.levels = 3;
    aopts.smooths = 8;
    aopts.bottom_smooths = 50;
    aopts.tolerance = 1e-10;
    aopts.max_vcycles = 60;
    baseline::ArrayGmgSolver array_solver(aopts, decomp, 0);
    array_solver.set_rhs(sine_rhs);
    const auto ar = array_solver.solve(c);

    EXPECT_TRUE(br.converged);
    EXPECT_TRUE(ar.converged);
    // Both reach the same tolerance; the iterates are algorithmically
    // identical, so the V-cycle counts must match.
    EXPECT_EQ(br.vcycles, ar.vcycles);

    const BrickedArray& xb = brick_solver.solution();
    const Array3D& xa = array_solver.solution();
    real_t max_diff = 0;
    for_each(Box::from_extent(global), [&](index_t i, index_t j, index_t k) {
      max_diff = std::max(max_diff, std::abs(xb(i, j, k) - xa(i, j, k)));
    });
    EXPECT_LT(max_diff, 1e-10);
  });
}

TEST(GmgSolver, ProfilerRecordsAllPhases) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 3), decomp, 0);
    solver.set_rhs(sine_rhs);
    solver.vcycle(c);
    const auto& prof = solver.profiler();
    // Jacobi sweeps run as one pass per brick (DESIGN.md §16) and are
    // labelled as such, not as a separate applyOp + smooth+residual.
    EXPECT_TRUE(prof.has(0, perf::Phase::kJacobiSweep));
    EXPECT_FALSE(prof.has(0, perf::Phase::kApplyOp));
    EXPECT_FALSE(prof.has(0, perf::Phase::kSmoothResidual));
    // With the default fused descent (DESIGN.md §16) the final
    // smooth+residual and the restriction merge into one phase.
    // Branch on the solver's resolved option so the suite also passes
    // under a GMG_FUSE_STAGES CI override.
    if (solver.options().fuse_stages) {
      EXPECT_TRUE(prof.has(0, perf::Phase::kFusedDescent));
      EXPECT_FALSE(prof.has(0, perf::Phase::kRestriction));
    } else {
      EXPECT_TRUE(prof.has(0, perf::Phase::kRestriction));
      EXPECT_FALSE(prof.has(0, perf::Phase::kFusedDescent));
    }
    EXPECT_TRUE(prof.has(0, perf::Phase::kInterpIncrement));
    EXPECT_TRUE(prof.has(0, perf::Phase::kExchange));
    EXPECT_TRUE(prof.has(2, perf::Phase::kJacobiSweep));  // bottom solver
    EXPECT_GT(prof.level_total(0), 0.0);
    // Report contains artifact-style lines.
    const std::string report = prof.report();
    EXPECT_NE(report.find("level 0 applyOp+smooth ["), std::string::npos);

    // Split configuration: the separate restriction phase comes back
    // (unless a GMG_FUSE_STAGES=1 override forces fusion back on).
    GmgOptions split = small_options(4, 3);
    split.fuse_stages = false;
    GmgSolver split_solver(split, decomp, 0);
    split_solver.set_rhs(sine_rhs);
    split_solver.vcycle(c);
    if (!split_solver.options().fuse_stages) {
      EXPECT_TRUE(split_solver.profiler().has(0, perf::Phase::kRestriction));
      EXPECT_FALSE(
          split_solver.profiler().has(0, perf::Phase::kFusedDescent));
    }
  });
}

TEST(GmgSolver, WorksWithAllExchangeModes) {
  const CartDecomp decomp({16, 16, 16}, {2, 2, 2});
  for (auto mode : {comm::BrickExchangeMode::kPackFree,
                    comm::BrickExchangeMode::kPacked,
                    comm::BrickExchangeMode::kPerBrick}) {
    comm::World world(8);
    world.run([&](comm::Communicator& c) {
      GmgOptions o = small_options(4, 1);
      o.exchange_mode = mode;
      o.smooths = 4;
      GmgSolver solver(o, decomp, c.rank());
      solver.set_rhs(sine_rhs);
      solver.vcycle(c);
      EXPECT_LT(solver.residual_norm(c), 1e3);
    });
  }
}

}  // namespace
}  // namespace gmg

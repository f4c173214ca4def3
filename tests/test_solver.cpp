// End-to-end GMG solver correctness: convergence, the exact discrete
// solution oracle, CA vs non-CA equivalence, multi-rank vs single-rank
// equivalence (per rank grid and per smoother), and agreement with the
// conventional-layout baseline.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/solver_array.hpp"
#include "gmg/operators.hpp"
#include "gmg/phase.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"
#include "trace/report.hpp"

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

/// A global extent and the rank grid that splits it.
struct RankGridCase {
  Vec3 global;
  Vec3 rank_grid;
};

// Readable, stable test names: the rank grid, plus the extent where it
// is not 32^3.
void PrintTo(const RankGridCase& c, std::ostream* os) {
  *os << c.rank_grid;
  if (c.global.x != 32) *os << "@" << c.global.x << "^3";
}

class MultiRankSolve : public ::testing::TestWithParam<RankGridCase> {};

TEST_P(MultiRankSolve, MatchesSingleRankBitwise) {
  const auto [global, rank_grid] = GetParam();

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
// axes where the others do not. The 48^3 grids split an axis three
// ways, so a rank's two neighbors along it are distinct ranks, and
// {3,2,1} mixes a three-way and a two-way axis.
constexpr Vec3 k32{32, 32, 32};
constexpr Vec3 k48{48, 48, 48};
INSTANTIATE_TEST_SUITE_P(
    RankGrids, MultiRankSolve,
    ::testing::Values(
        RankGridCase{k32, {2, 1, 1}}, RankGridCase{k32, {1, 2, 1}},
        RankGridCase{k32, {2, 2, 1}}, RankGridCase{k32, {2, 2, 2}},
        RankGridCase{k32, {1, 1, 2}}, RankGridCase{k32, {1, 2, 2}},
        RankGridCase{k32, {4, 1, 1}}, RankGridCase{k48, {3, 1, 1}},
        RankGridCase{k48, {3, 2, 1}}, RankGridCase{k48, {1, 3, 3}}));

struct SmootherCase {
  Smoother smoother;
  bool ca;
  const char* name;
};

// Stable test names: print the case name, not the struct's bytes.
void PrintTo(const SmootherCase& c, std::ostream* os) { *os << c.name; }

class MultiRankSmoother : public ::testing::TestWithParam<SmootherCase> {};

// Every smoother has its own exchange pattern — red-black GS exchanges
// between colors, Chebyshev exchanges its direction with the iterate,
// CA deepens the ghosts and skips rounds — and each must leave a
// 3x2x1 solve of 48^3 (distinct x-neighbors, a two-way y axis, z
// wrapped) bitwise equal to the one-rank solve: the residual history
// of three fixed cycles and the solution on every rank.
TEST_P(MultiRankSmoother, MatchesSingleRankBitwise) {
  const SmootherCase& tc = GetParam();
  const Vec3 global{48, 48, 48};
  GmgOptions o = small_options(4, 2);
  o.smoother = tc.smoother;
  o.communication_avoiding = tc.ca;
  o.smooths = 4;
  o.bottom_smooths = 20;
  o.tolerance = 1e-30;  // never reached: fixed-cycle comparison
  o.max_vcycles = 3;

  Array3D reference(global, 0);
  std::vector<real_t> ref_history;
  {
    const CartDecomp decomp(global, {1, 1, 1});
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, 0);
      solver.set_rhs(sine_rhs);
      ref_history = solver.solve(c).history;
      solver.solution().copy_to(reference);
    });
  }
  ASSERT_EQ(ref_history.size(), 4u);  // initial + 3 cycles

  const CartDecomp decomp(global, {3, 2, 1});
  std::vector<real_t> history;
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    const SolveResult r = solver.solve(c);
    if (c.rank() == 0) history = r.history;
    const Box my_box = decomp.subdomain_box(c.rank());
    const BrickedArray& x = solver.solution();
    int failures = 0;
    for_each(Box::from_extent(decomp.subdomain_extent()),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = reference(my_box.lo.x + i, my_box.lo.y + j,
                                             my_box.lo.z + k);
               if (x(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << tc.name << " rank " << c.rank() << " ("
                               << i << ',' << j << ',' << k << "): got "
                               << x(i, j, k) << " want " << want;
               }
             });
    ASSERT_EQ(failures, 0);
  });
  ASSERT_EQ(history.size(), ref_history.size());
  for (std::size_t i = 0; i < history.size(); ++i)
    EXPECT_EQ(history[i], ref_history[i]) << tc.name << " cycle " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Smoothers, MultiRankSmoother,
    ::testing::Values(SmootherCase{Smoother::kJacobi, true, "jacobi_ca"},
                      SmootherCase{Smoother::kJacobi, false, "jacobi"},
                      SmootherCase{Smoother::kChebyshev, true, "cheby_ca"},
                      SmootherCase{Smoother::kChebyshev, false, "cheby"},
                      SmootherCase{Smoother::kRedBlackGS, true, "gs_ca"},
                      SmootherCase{Smoother::kRedBlackGS, false, "gs"}),
    [](const ::testing::TestParamInfo<SmootherCase>& info) {
      return std::string(info.param.name);
    });

TEST(GmgSolver, MultiRankBottomCgIsReproducible) {
  // The bottom CG's dot products are summed across the four ranks of a
  // 2x2x1 grid; the reductions combine in rank order, so two runs give
  // identical residual histories whichever rank reaches each collective
  // first.
  const CartDecomp decomp({32, 32, 32}, {2, 2, 1});
  GmgOptions o = small_options(4, 3);
  o.bottom = BottomSolverType::kConjugateGradient;
  o.bottom_cg_tolerance = 1e-30;  // run the whole iteration budget
  o.bottom_smooths = 12;
  o.max_vcycles = 6;
  o.tolerance = 0;
  const auto run = [&] {
    std::vector<real_t> history;
    comm::World world(decomp.num_ranks());
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, c.rank());
      solver.set_rhs(sine_rhs);
      const SolveResult r = solver.solve(c);
      if (c.rank() == 0) history = r.history;
    });
    return history;
  };
  const std::vector<real_t> first = run();
  const std::vector<real_t> second = run();
  ASSERT_EQ(first.size(), 7u);
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_EQ(first[i], second[i]) << "cycle " << i;
}

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

/// Whether `stats` holds phase p at level l.
bool has(const trace::LevelStats& stats, int l, Phase p) {
  return stats.count({l, phase_name(p)}) != 0;
}

TEST(GmgSolver, TraceRecordsAllPhases) {
  const bool was = trace::enabled();
  trace::set_enabled(true);
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 3), decomp, 0);
    solver.set_rhs(sine_rhs);
    trace::clear();
    solver.vcycle(c);
    const trace::Snapshot snap = trace::collect();
    const trace::LevelStats prof = trace::level_stats(snap);
    // Jacobi sweeps run as one pass per brick (DESIGN.md §16) and are
    // labelled as such, not as a separate applyOp + smooth+residual.
    EXPECT_TRUE(has(prof, 0, Phase::kJacobiSweep));
    EXPECT_FALSE(has(prof, 0, Phase::kApplyOp));
    EXPECT_FALSE(has(prof, 0, Phase::kSmoothResidual));
    // The descent's last sweep and the restriction run as one pass
    // (DESIGN.md §16), timed as one phase.
    EXPECT_TRUE(has(prof, 0, Phase::kFusedDescent));
    EXPECT_FALSE(has(prof, 0, Phase::kRestriction));
    EXPECT_TRUE(has(prof, 0, Phase::kInterpIncrement));
    EXPECT_TRUE(has(prof, 0, Phase::kExchange));
    EXPECT_TRUE(has(prof, 2, Phase::kJacobiSweep));  // bottom solver
    EXPECT_GT(prof.at({0, phase_name(Phase::kJacobiSweep)}).sum(), 0.0);
    // Report contains artifact-style lines.
    const std::string report = trace::format_level_stats(snap);
    EXPECT_NE(report.find("level 0 applyOp+smooth ["), std::string::npos);

    // Chebyshev's recurrence reads r on every sweep, so its descent
    // keeps the restriction as a separate phase.
    GmgOptions cheby = small_options(4, 3);
    cheby.smoother = Smoother::kChebyshev;
    GmgSolver cheby_solver(cheby, decomp, 0);
    cheby_solver.set_rhs(sine_rhs);
    trace::clear();
    cheby_solver.vcycle(c);
    const trace::LevelStats cheby_prof = trace::level_stats(trace::collect());
    EXPECT_TRUE(has(cheby_prof, 0, Phase::kRestriction));
    EXPECT_FALSE(has(cheby_prof, 0, Phase::kFusedDescent));
  });
  trace::set_enabled(was);
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

TEST(GmgSolver, NanRhsNeverConverges) {
  // One NaN RHS cell. Every max on the way to the convergence test
  // drops a NaN operand, so the solve used to read as converged after
  // one cycle (residual 0) with every solution cell NaN. The norm
  // counts the NaN as +inf: the solve retires before its first cycle,
  // unconverged.
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  const real_t inf = std::numeric_limits<real_t>::infinity();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 3), decomp, 0);
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      const real_t h = 1.0 / 32;
      return x < h && y < h && z < h ? std::numeric_limits<real_t>::quiet_NaN()
                                     : sine_rhs(x, y, z);
    });
    const SolveResult r = solver.solve(c);
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.vcycles, 0);
    EXPECT_EQ(r.final_residual, inf);
    ASSERT_EQ(r.history.size(), 1u);
    EXPECT_EQ(r.history[0], inf);
  });
}

}  // namespace
}  // namespace gmg

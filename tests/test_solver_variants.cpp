// Solver variants beyond the paper's baseline configuration: weighted
// Jacobi and Chebyshev smoothers, conjugate-gradient bottom solver,
// W-cycles, full multigrid, the 4th-order (radius-2) operator, and the
// Helmholtz (shifted) operator — each validated against exact discrete
// solutions or cross-checked against the baseline configuration.
#include <gtest/gtest.h>

#include <cmath>

#include "gmg/operators.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

GmgOptions base_options() {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 8;
  o.bottom_smooths = 50;
  o.tolerance = 1e-10;
  o.max_vcycles = 60;
  o.brick = BrickShape::cube(4);
  return o;
}

SolveResult run_solve(const GmgOptions& opts, Vec3 n = {32, 32, 32}) {
  const CartDecomp decomp(n, {1, 1, 1});
  comm::World world(1);
  SolveResult result;
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(opts, decomp, 0);
    solver.set_rhs(sine_rhs);
    result = solver.solve(c);
  });
  return result;
}

TEST(SmootherVariants, WeightedJacobiHalfMatchesPointJacobiBitwise) {
  GmgOptions a = base_options();
  a.smoother = Smoother::kPointJacobi;
  GmgOptions b = base_options();
  b.smoother = Smoother::kWeightedJacobi;
  b.jacobi_weight = 0.5;
  const SolveResult ra = run_solve(a);
  const SolveResult rb = run_solve(b);
  EXPECT_EQ(ra.vcycles, rb.vcycles);
  EXPECT_EQ(ra.final_residual, rb.final_residual);
}

class JacobiWeightSweep : public ::testing::TestWithParam<double> {};

TEST_P(JacobiWeightSweep, Converges) {
  GmgOptions o = base_options();
  o.smoother = Smoother::kWeightedJacobi;
  o.jacobi_weight = GetParam();
  const SolveResult r = run_solve(o);
  EXPECT_TRUE(r.converged) << "omega = " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Omegas, JacobiWeightSweep,
                         ::testing::Values(0.4, 0.5, 2.0 / 3.0, 0.8));

TEST(SmootherVariants, ChebyshevConvergesAtLeastAsFastAsJacobi) {
  GmgOptions jac = base_options();
  GmgOptions cheb = base_options();
  cheb.smoother = Smoother::kChebyshev;
  const SolveResult rj = run_solve(jac);
  const SolveResult rc = run_solve(cheb);
  EXPECT_TRUE(rc.converged);
  EXPECT_LE(rc.vcycles, rj.vcycles);
}

TEST(SmootherVariants, ChebyshevHistoryMonotone) {
  GmgOptions o = base_options();
  o.smoother = Smoother::kChebyshev;
  const SolveResult r = run_solve(o);
  ASSERT_GE(r.history.size(), 2u);
  for (std::size_t i = 1; i < r.history.size(); ++i) {
    EXPECT_LT(r.history[i], r.history[i - 1]);
  }
}

TEST(SmootherVariants, ChebyshevMultiRankMatchesSingleRankBitwise) {
  // The Chebyshev recurrence runs through the CA redundant-ghost
  // machinery (p is exchanged alongside x), so the decomposition must
  // not change the iterate.
  const Vec3 global{32, 32, 32};
  GmgOptions o = base_options();
  o.smoother = Smoother::kChebyshev;
  o.levels = 2;

  Array3D reference(global, 0);
  {
    const CartDecomp decomp(global, {1, 1, 1});
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, 0);
      solver.set_rhs(sine_rhs);
      for (int v = 0; v < 2; ++v) solver.vcycle(c);
      solver.solution().copy_to(reference);
    });
  }
  const CartDecomp decomp(global, {2, 2, 2});
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    for (int v = 0; v < 2; ++v) solver.vcycle(c);
    const Box my_box = decomp.subdomain_box(c.rank());
    int failures = 0;
    for_each(Box::from_extent(decomp.subdomain_extent()),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = reference(my_box.lo.x + i, my_box.lo.y + j,
                                             my_box.lo.z + k);
               if (solver.solution()(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << "rank " << c.rank() << " mismatch at ("
                               << i << ',' << j << ',' << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

TEST(CycleVariants, WcycleConvergesInNoMoreCyclesThanV) {
  GmgOptions v = base_options();
  GmgOptions w = base_options();
  w.cycle = CycleType::kW;
  const SolveResult rv = run_solve(v);
  const SolveResult rw = run_solve(w);
  EXPECT_TRUE(rw.converged);
  EXPECT_LE(rw.vcycles, rv.vcycles);
}

TEST(BottomSolvers, CgBeatsWeakJacobiBottom) {
  // With a deliberately weak smoothing bottom (8 Jacobi sweeps on a
  // 8^3 coarsest grid), CG's exact-ish coarse solve pays off.
  GmgOptions jac = base_options();
  jac.bottom_smooths = 8;
  GmgOptions cg = base_options();
  cg.bottom = BottomSolverType::kConjugateGradient;
  cg.bottom_smooths = 50;  // CG iteration budget
  const SolveResult rj = run_solve(jac);
  const SolveResult rc = run_solve(cg);
  EXPECT_TRUE(rc.converged);
  EXPECT_LT(rc.vcycles, rj.vcycles);
}

TEST(BottomSolvers, CgBottomMultiRank) {
  // CG's global dot products go through allreduce_sum; verify the
  // distributed path converges to the same tolerance.
  const CartDecomp decomp({32, 32, 32}, {2, 2, 2});
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    GmgOptions o = base_options();
    o.bottom = BottomSolverType::kConjugateGradient;
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    const SolveResult r = solver.solve(c);
    EXPECT_TRUE(r.converged);
  });
}

TEST(FullMultigrid, OnePassReachesSmallResidual) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions o = base_options();
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    const real_t before = solver.residual_norm(c);
    solver.fmg(c);
    const real_t after = solver.residual_norm(c);
    // One FMG pass must beat two orders of magnitude...
    EXPECT_LT(after, before * 0.01);
    // ...and clearly beat a single plain V-cycle from a zero guess
    // (same top-level work, but FMG starts from the prolonged coarse
    // solution).
    GmgSolver plain(o, decomp, 0);
    plain.set_rhs(sine_rhs);
    plain.vcycle(c);
    EXPECT_LT(after, plain.residual_norm(c) * 0.5);
    // ...and a follow-up solve() needs fewer cycles than from scratch.
    const SolveResult warm = solver.solve(c);
    EXPECT_TRUE(warm.converged);

    GmgSolver cold_solver(o, decomp, 0);
    cold_solver.set_rhs(sine_rhs);
    const SolveResult cold = cold_solver.solve(c);
    EXPECT_LT(warm.vcycles, cold.vcycles);
  });
}

TEST(FourthOrderOperator, EigenfunctionOfRadiusTwoStar) {
  // The sine product is an eigenfunction of any axis-symmetric
  // stencil; for the 4th-order star the per-axis symbol is
  // (-5/2 + (8/3)cos(t) - (1/6)cos(2t)) / h^2.
  const index_t nn = 32;
  const CartDecomp decomp({nn, nn, nn}, {1, 1, 1});
  GmgOptions o = base_options();
  o.operator_radius = 2;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    MgLevel& fine = solver.level(0);
    const real_t h = fine.h;
    const real_t t = 2 * M_PI * h;
    const real_t axis =
        (-2.5 + (8.0 / 3.0) * std::cos(t) - (1.0 / 6.0) * std::cos(2 * t)) /
        (h * h);
    const real_t lambda = 3.0 * axis;

    fine.x.copy_from([&] {
      Array3D tmp({nn, nn, nn}, 0);
      for_each(tmp.interior(), [&](index_t i, index_t j, index_t k) {
        tmp(i, j, k) = sine_rhs((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h);
      });
      return tmp;
    }());
    solver.fine_fields_written();
    const real_t res = solver.residual_norm(c);
    (void)res;
    // Ax (computed by residual_norm) must equal lambda * x.
    int failures = 0;
    for_each(Box::from_extent({nn, nn, nn}),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = lambda * fine.x(i, j, k);
               if (std::abs(fine.Ax(i, j, k) - want) > 1e-6 &&
                   failures++ < 3) {
                 ADD_FAILURE() << "Ax != lambda*x at (" << i << ',' << j
                               << ',' << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

TEST(FourthOrderOperator, SolvesAndIsMoreAccurateThanSecondOrder) {
  // Against the CONTINUUM solution u = b / (-12 pi^2), the 4th-order
  // discretization must be far more accurate at the same resolution.
  const index_t nn = 32;
  const real_t h = 1.0 / nn;
  const auto max_error_vs_continuum = [&](int radius) {
    GmgOptions o = base_options();
    o.operator_radius = radius;
    o.max_vcycles = 80;
    const CartDecomp decomp({nn, nn, nn}, {1, 1, 1});
    real_t max_err = 0;
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, 0);
      solver.set_rhs(sine_rhs);
      const SolveResult r = solver.solve(c);
      EXPECT_TRUE(r.converged) << "radius " << radius;
      for_each(Box::from_extent({nn, nn, nn}),
               [&](index_t i, index_t j, index_t k) {
                 const real_t want =
                     sine_rhs((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h) /
                     (-12.0 * M_PI * M_PI);
                 max_err = std::max(
                     max_err, std::abs(solver.solution()(i, j, k) - want));
               });
    });
    return max_err;
  };
  const real_t e2 = max_error_vs_continuum(1);
  const real_t e4 = max_error_vs_continuum(2);
  EXPECT_LT(e4, e2 / 20.0);
}

TEST(FourthOrderOperator, CaMultiRankStillBitwise) {
  // Radius-2 CA consumes two ghost layers per sweep; the margin
  // bookkeeping must keep multi-rank runs bitwise identical.
  const Vec3 global{32, 32, 32};
  GmgOptions o = base_options();
  o.operator_radius = 2;
  o.levels = 2;
  Array3D reference(global, 0);
  {
    const CartDecomp decomp(global, {1, 1, 1});
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, 0);
      solver.set_rhs(sine_rhs);
      for (int v = 0; v < 2; ++v) solver.vcycle(c);
      solver.solution().copy_to(reference);
    });
  }
  const CartDecomp decomp(global, {2, 2, 1});
  comm::World world(4);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    for (int v = 0; v < 2; ++v) solver.vcycle(c);
    const Box my_box = decomp.subdomain_box(c.rank());
    int failures = 0;
    for_each(Box::from_extent(decomp.subdomain_extent()),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = reference(my_box.lo.x + i, my_box.lo.y + j,
                                             my_box.lo.z + k);
               if (solver.solution()(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << "rank " << c.rank() << " at (" << i << ','
                               << j << ',' << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

TEST(HelmholtzOperator, ShiftedEigenproblemSolvesExactly) {
  // (I - 0.01 * Laplacian) x = b with the eigenfunction RHS: the
  // exact discrete solution is b / (1 - 0.01 * lambda_h).
  const index_t nn = 32;
  const real_t h = 1.0 / nn;
  GmgOptions o = base_options();
  o.identity_coef = 1.0;
  o.laplacian_coef = -0.01;
  o.tolerance = 1e-12;
  const CartDecomp decomp({nn, nn, nn}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    const SolveResult r = solver.solve(c);
    EXPECT_TRUE(r.converged);
    const real_t lambda = 6.0 * (std::cos(2 * M_PI * h) - 1.0) / (h * h);
    const real_t scale = 1.0 / (1.0 - 0.01 * lambda);
    real_t max_err = 0;
    for_each(Box::from_extent({nn, nn, nn}),
             [&](index_t i, index_t j, index_t k) {
               const real_t want =
                   sine_rhs((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h) *
                   scale;
               max_err = std::max(max_err,
                                  std::abs(solver.solution()(i, j, k) - want));
             });
    EXPECT_LT(max_err, 1e-12);
  });
}

TEST(SolveDiagnostics, HistoryAndL2Norm) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions o = base_options();
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    const SolveResult r = solver.solve(c);
    ASSERT_EQ(r.history.size(), static_cast<std::size_t>(r.vcycles) + 1);
    EXPECT_EQ(r.history.back(), r.final_residual);
    for (std::size_t i = 1; i < r.history.size(); ++i)
      EXPECT_LT(r.history[i], r.history[i - 1]);
    // L2 norm after convergence: bounded by sqrt(N) * max-norm.
    const real_t l2 = solver.residual_norm_l2(c);
    EXPECT_LE(l2, r.final_residual * std::sqrt(32.0 * 32 * 32) * 1.01);
    EXPECT_GT(l2, 0.0);
  });
}

TEST(SolverOptions, RejectsBadConfigurations) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  GmgOptions o = base_options();
  o.operator_radius = 3;
  EXPECT_THROW(GmgSolver(o, decomp, 0), Error);
  o = base_options();
  o.operator_radius = 2;
  o.brick = BrickShape::cube(2);
  EXPECT_NO_THROW(GmgSolver(o, decomp, 0));  // radius == brick dim is ok
  o = base_options();
  o.identity_coef = 6.0 * 32.0 * 32.0;  // diagonal exactly cancels
  o.laplacian_coef = 1.0;
  EXPECT_THROW(GmgSolver(o, decomp, 0), Error);
}

}  // namespace
}  // namespace gmg

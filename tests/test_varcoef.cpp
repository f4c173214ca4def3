// Variable-coefficient operator: DSL-built flux-form kernels and the
// solver integration (set_coefficient).
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>

#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

TEST(VarCoefOperator, ConstantCoefficientReducesToStandardOperator) {
  const index_t n = 16;
  const real_t h = 1.0 / n;
  Array3D xa({n, n, n}, 1);
  test::randomize(xa, 5);
  xa.fill_ghosts_periodic();
  BrickedArray x = test::to_bricks(xa, BrickShape::cube(4));
  x.fill_ghosts_periodic();
  BrickedArray beta(x.grid_ptr(), x.shape());
  beta.fill(2.5);  // constant coefficient

  BrickedArray got(x.grid_ptr(), x.shape());
  apply_op_varcoef(got, x, beta, 0.0, h, Box::from_extent({n, n, n}));

  // div(2.5 grad x) == 2.5 * Laplacian x.
  BrickedArray want(x.grid_ptr(), x.shape());
  apply_op(want, x, 2.5 * -6.0 / (h * h), 2.5 / (h * h),
           Box::from_extent({n, n, n}));
  int failures = 0;
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    if (std::abs(got(i, j, k) - want(i, j, k)) > 1e-6 && failures++ < 3) {
      ADD_FAILURE() << "at (" << i << ',' << j << ',' << k << ')';
    }
  });
  ASSERT_EQ(failures, 0);
}

TEST(VarCoefOperator, OperatorIsSymmetric) {
  // Flux-form discretization with face averaging is symmetric:
  // <A u, v> == <u, A v> for any u, v.
  const index_t n = 16;
  const real_t h = 1.0 / n;
  Array3D ua({n, n, n}, 1), va({n, n, n}, 1);
  test::randomize(ua, 11);
  test::randomize(va, 13);
  ua.fill_ghosts_periodic();
  va.fill_ghosts_periodic();
  BrickedArray u = test::to_bricks(ua, BrickShape::cube(4));
  u.fill_ghosts_periodic();
  BrickedArray v(u.grid_ptr(), u.shape());
  v.copy_from(va);
  v.fill_ghosts_periodic();
  BrickedArray beta(u.grid_ptr(), u.shape());
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    beta(i, j, k) = wavy_coef((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h);
  });
  beta.fill_ghosts_periodic();

  BrickedArray Au(u.grid_ptr(), u.shape()), Av(u.grid_ptr(), u.shape());
  apply_op_varcoef(Au, u, beta, 0.3, h, Box::from_extent({n, n, n}));
  apply_op_varcoef(Av, v, beta, 0.3, h, Box::from_extent({n, n, n}));
  const real_t uAv = dot_interior(u, Av);
  const real_t vAu = dot_interior(v, Au);
  EXPECT_NEAR(uAv, vAu, std::abs(uAv) * 1e-10);
}

TEST(VarCoefOperator, AppliedToConstantGivesIdentityTerm) {
  const index_t n = 16;
  const real_t h = 1.0 / n;
  BrickedArray x = BrickedArray::create({n, n, n}, BrickShape::cube(4));
  x.fill(3.0);
  x.fill_ghosts_periodic();
  BrickedArray beta(x.grid_ptr(), x.shape());
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    beta(i, j, k) = wavy_coef((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h);
  });
  beta.fill_ghosts_periodic();
  BrickedArray Ax(x.grid_ptr(), x.shape());
  apply_op_varcoef(Ax, x, beta, 0.7, h, Box::from_extent({n, n, n}));
  // Diffusion of a constant is zero regardless of beta.
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    ASSERT_NEAR(Ax(i, j, k), 0.7 * 3.0, 1e-8);
  });
}

TEST(VarCoefOperator, DiagonalMatchesOperatorColumn) {
  // diag(i) must equal (A e_i)_i: probe with a unit vector.
  const index_t n = 8;
  const real_t h = 1.0 / n;
  BrickedArray x = BrickedArray::create({n, n, n}, BrickShape::cube(4));
  BrickedArray beta(x.grid_ptr(), x.shape());
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    beta(i, j, k) = wavy_coef((i + 0.5) * h, (j + 0.5) * h, (k + 0.5) * h);
  });
  beta.fill_ghosts_periodic();
  BrickedArray diag(x.grid_ptr(), x.shape());
  varcoef_diagonal(diag, beta, 0.2, h, Box::from_extent({n, n, n}));

  init_zero(x);
  x(3, 4, 5) = 1.0;
  x.fill_ghosts_periodic();
  BrickedArray Ax(x.grid_ptr(), x.shape());
  apply_op_varcoef(Ax, x, beta, 0.2, h, Box::from_extent({n, n, n}));
  EXPECT_NEAR(Ax(3, 4, 5), diag(3, 4, 5), 1e-8);
}

struct VarCoefCase {
  Smoother smoother;
  BottomSolverType bottom;
};

// Readable, stable test names, e.g. "cheby_smooth" (the default printer
// names a case by its enum bytes, which renumbering an enum renames).
void PrintTo(const VarCoefCase& c, std::ostream* os) {
  *os << (c.smoother == Smoother::kChebyshev ? "cheby" : "jacobi")
      << (c.bottom == BottomSolverType::kConjugateGradient ? "_cg"
                                                           : "_smooth");
}

class VarCoefSolve : public ::testing::TestWithParam<VarCoefCase> {};

TEST_P(VarCoefSolve, ConvergesOnWavyCoefficientProblem) {
  const auto [smoother, bottom] = GetParam();
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = 3;
    o.smooths = 8;
    o.bottom_smooths = 60;
    o.brick = BrickShape::cube(4);
    o.max_vcycles = 80;
    o.smoother = smoother;
    o.bottom = bottom;
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    solver.set_coefficient(c, wavy_coef);
    const SolveResult r = solver.solve(c);
    EXPECT_TRUE(r.converged) << "residual " << r.final_residual;
    // Verify the converged x truly satisfies the discrete equations:
    // residual_norm recomputes b - Ax from scratch.
    EXPECT_LE(solver.residual_norm(c), o.tolerance * 1.01);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VarCoefSolve,
    ::testing::Values(
        VarCoefCase{Smoother::kJacobi, BottomSolverType::kSmooth},
        VarCoefCase{Smoother::kChebyshev, BottomSolverType::kSmooth},
        VarCoefCase{Smoother::kJacobi, BottomSolverType::kConjugateGradient}));

TEST(VarCoefSolve, MultiRankMatchesSingleRankBitwise) {
  const Vec3 global{32, 32, 32};
  GmgOptions o;
  o.levels = 2;
  o.smooths = 6;
  o.bottom_smooths = 30;
  o.brick = BrickShape::cube(4);

  Array3D reference(global, 0);
  {
    const CartDecomp decomp(global, {1, 1, 1});
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, 0);
      solver.set_rhs(sine_rhs);
      solver.set_coefficient(c, wavy_coef);
      for (int v = 0; v < 2; ++v) solver.vcycle(c);
      solver.solution().copy_to(reference);
    });
  }
  const CartDecomp decomp(global, {2, 2, 2});
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    solver.set_coefficient(c, wavy_coef);
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

TEST(VarCoefSolve, RejectsNonPositiveCoefficient) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  comm::World world(1);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = 2;
    o.brick = BrickShape::cube(4);
    GmgSolver solver(o, decomp, 0);
    solver.set_coefficient(c, [](real_t x, real_t, real_t) {
      return x - 0.5;  // negative on half the domain
    });
  }),
               Error);
}

TEST(VarCoefSolve, RejectsRadiusTwo) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  comm::World world(1);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
    GmgOptions o;
    o.levels = 2;
    o.brick = BrickShape::cube(4);
    o.operator_radius = 2;
    GmgSolver solver(o, decomp, 0);
    solver.set_coefficient(c, [](real_t, real_t, real_t) { return 1.0; });
  }),
               Error);
}

}  // namespace
}  // namespace gmg

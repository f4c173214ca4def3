// Red-black Gauss-Seidel smoother: kernel semantics, convergence
// advantage over Jacobi, and decomposition independence.
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

TEST(GsColorSweep, UpdatesOnlyItsColor) {
  const index_t n = 8;
  Array3D xa({n, n, n}, 1);
  test::randomize(xa, 5);
  BrickedArray x = test::to_bricks(xa, BrickShape::cube(4));
  x.fill_ghosts_periodic();
  BrickedArray before(x.grid_ptr(), x.shape());
  copy_interior(before, x);
  BrickedArray b(x.grid_ptr(), x.shape());
  b.fill(1.0);
  b.fill_ghosts_periodic();

  gs_color_sweep(x, b, -6.0, 1.0, /*color=*/0, {0, 0, 0},
                 Box::from_extent({n, n, n}));
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    if ((i + j + k) % 2 == 1) {
      ASSERT_EQ(x(i, j, k), before(i, j, k))
          << "black cell touched by red sweep at (" << i << ',' << j << ','
          << k << ')';
    }
  });
}

TEST(GsColorSweep, UpdatedCellsSatisfyTheirEquationExactly) {
  // After a red sweep, every red cell's equation holds exactly given
  // its (black) neighbors.
  const index_t n = 8;
  Array3D xa({n, n, n}, 1);
  test::randomize(xa, 7);
  BrickedArray x = test::to_bricks(xa, BrickShape::cube(4));
  x.fill_ghosts_periodic();
  BrickedArray b(x.grid_ptr(), x.shape());
  Array3D ba({n, n, n}, 1);
  test::randomize(ba, 9);
  b.copy_from(ba);
  b.fill_ghosts_periodic();

  const real_t alpha = -6.0, beta = 1.0;
  gs_color_sweep(x, b, alpha, beta, 0, {0, 0, 0},
                 Box::from_extent({n, n, n}));
  x.fill_ghosts_periodic();  // refresh ghosts with updated values
  BrickedArray ax(x.grid_ptr(), x.shape());
  apply_op(ax, x, alpha, beta, Box::from_extent({n, n, n}));
  for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
    if ((i + j + k) % 2 == 0) {
      ASSERT_NEAR(ax(i, j, k), b(i, j, k), 1e-9)
          << "red cell equation violated at (" << i << ',' << j << ',' << k
          << ')';
    }
  });
}

GmgOptions gs_options() {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 4;
  o.bottom_smooths = 40;
  o.brick = BrickShape::cube(4);
  o.max_vcycles = 60;
  o.smoother = Smoother::kRedBlackGS;
  return o;
}

TEST(GaussSeidelSmoother, ConvergesFasterThanJacobi) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver gs(gs_options(), decomp, 0);
    gs.set_rhs(sine_rhs);
    const SolveResult rg = gs.solve(c);
    EXPECT_TRUE(rg.converged);

    GmgOptions jo = gs_options();
    jo.smoother = Smoother::kJacobi;
    GmgSolver jac(jo, decomp, 0);
    jac.set_rhs(sine_rhs);
    const SolveResult rj = jac.solve(c);
    EXPECT_LT(rg.vcycles, rj.vcycles);
  });
}

class GsParallel : public ::testing::TestWithParam<bool> {};

TEST_P(GsParallel, MultiRankMatchesSingleRankBitwise) {
  const bool ca = GetParam();
  const Vec3 global{32, 32, 32};
  GmgOptions o = gs_options();
  o.levels = 2;
  o.communication_avoiding = ca;

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
                 ADD_FAILURE() << "rank " << c.rank() << " ca=" << ca
                               << " at (" << i << ',' << j << ',' << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

INSTANTIATE_TEST_SUITE_P(CaModes, GsParallel, ::testing::Bool());

TEST(GaussSeidelSmoother, RejectsUnsupportedOperators) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  EXPECT_THROW(world.run([&](comm::Communicator& c) {
    GmgOptions o = gs_options();
    o.operator_radius = 2;
    GmgSolver solver(o, decomp, 0);
    solver.set_rhs(sine_rhs);
    solver.vcycle(c);
  }),
               Error);
}

}  // namespace
}  // namespace gmg

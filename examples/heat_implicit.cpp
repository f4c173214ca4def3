// Implicit heat equation: u_t = nu * Laplacian(u) on the periodic unit
// cube, discretized with backward Euler. Every step solves the
// Helmholtz system
//     (I - nu*dt*Laplacian_h) u^{n+1} = u^n
// with the bricked GMG solver (identity_coef = 1, laplacian_coef =
// -nu*dt) — the kind of production use the paper's intro motivates
// (GMG as the inner linear solver of a PDE time stepper).
//
// The initial condition sin(2*pi*x)sin(2*pi*y)sin(2*pi*z) is a
// discrete eigenfunction, so each implicit step scales it by exactly
// 1 / (1 - nu*dt*lambda_h); the example checks the simulated decay
// against that closed form.
#include <cmath>
#include <cstring>
#include <iostream>

#include "comm/simmpi.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "gmg/operators.hpp"
#include "gmg/solver.hpp"

using namespace gmg;

int main(int argc, char** argv) {
  Options opt;
  opt.add_flag("s", "grid size per axis", "32");
  opt.add_flag("steps", "time steps", "8");
  opt.add_flag("nu", "diffusivity", "0.1");
  opt.add_flag("dt", "time step", "0.01");
  try {
    opt.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opt.help(argv[0]);
    return 1;
  }
  const Vec3 n = opt.get_vec3("s");
  const int steps = static_cast<int>(opt.get_int("steps"));
  const real_t nu = opt.get_double("nu");
  const real_t dt = opt.get_double("dt");

  GmgOptions opts;
  opts.levels = 3;
  opts.smooths = 6;
  opts.bottom_smooths = 40;
  opts.brick = BrickShape::cube(4);
  opts.max_vcycles = 30;
  opts.tolerance = 1e-12;
  opts.identity_coef = 1.0;
  opts.laplacian_coef = -nu * dt;

  const CartDecomp decomp(n, {1, 1, 1});
  comm::World world(1);
  int exit_code = 0;
  world.run([&](comm::Communicator& comm) {
    GmgSolver solver(opts, decomp, 0);
    const real_t h = solver.level(0).h;
    const real_t lambda = 6.0 * (std::cos(2 * M_PI * h) - 1.0) / (h * h);
    const real_t step_factor = 1.0 / (1.0 - nu * dt * lambda);

    // u^0 = the eigenmode; kept in a scratch field between steps.
    BrickedArray u(solver.level(0).x.grid_ptr(), opts.brick);
    for_each(Box::from_extent(n), [&](index_t i, index_t j, index_t k) {
      u(i, j, k) = std::sin(2 * M_PI * (i + 0.5) * h) *
                   std::sin(2 * M_PI * (j + 0.5) * h) *
                   std::sin(2 * M_PI * (k + 0.5) * h);
    });

    std::cout << "Implicit heat, " << n << " cells, nu=" << nu
              << ", dt=" << dt << ", per-step decay should be "
              << step_factor << "\n";
    Table t({"step", "max|u|", "expected", "V-cycles", "residual"});
    real_t expected = max_norm(u);  // the mode peaks slightly below 1
    bool ok = true;
    for (int s = 1; s <= steps; ++s) {
      // rhs of this step is u^n: copy into the solver's b.
      BrickedArray& b = solver.level(0).b;
      std::memcpy(b.data(), u.data(), u.size() * sizeof(real_t));
      init_zero(solver.level(0).x);
      solver.fine_fields_written();
      const SolveResult res = solver.solve(comm);

      std::memcpy(u.data(), solver.solution().data(),
                  u.size() * sizeof(real_t));
      const real_t amplitude = max_norm(u);
      expected *= step_factor;
      t.row()
          .cell(static_cast<long>(s))
          .cell(amplitude, 9)
          .cell(expected, 9)
          .cell(static_cast<long>(res.vcycles))
          .cell(res.final_residual, 14);
      if (std::abs(amplitude - expected) > 1e-7 || !res.converged) ok = false;
    }
    t.print();
    std::cout << (ok ? "decay matches the closed-form backward-Euler factor"
                     : "MISMATCH vs closed form")
              << "\n";
    if (!ok) exit_code = 1;
  });
  return exit_code;
}

// Tour of the solver variants beyond the paper's baseline: smoothers
// (point/weighted Jacobi, Chebyshev), W-cycles, the conjugate-gradient
// bottom solver, full multigrid, the 4th-order operator, and a
// variable-coefficient diffusion problem — each solved on the same
// grid with V-cycle counts and times side by side.
//
//   ./advanced_solvers -s 64
#include <cmath>
#include <iostream>

#include "comm/simmpi.hpp"
#include "common/options.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "gmg/solver.hpp"

using namespace gmg;

namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.add_flag("s", "domain size per axis", "64");
  try {
    opt.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opt.help(argv[0]);
    return 1;
  }
  const Vec3 n = opt.get_vec3("s");
  const CartDecomp decomp(n, {1, 1, 1});

  GmgOptions base;
  base.levels = 4;
  base.smooths = 8;
  base.bottom_smooths = 60;
  base.brick = BrickShape::cube(4);
  base.max_vcycles = 60;

  struct Variant {
    const char* name;
    GmgOptions opts;
    bool use_fmg = false;
    bool varcoef = false;
  };
  std::vector<Variant> variants;
  variants.push_back({"point Jacobi, V-cycle (paper baseline)", base});
  {
    GmgOptions o = base;
    o.jacobi_weight = 2.0 / 3.0;
    variants.push_back({"weighted Jacobi (omega = 2/3)", o});
  }
  {
    GmgOptions o = base;
    o.smoother = Smoother::kChebyshev;
    variants.push_back({"Chebyshev smoother", o});
  }
  {
    GmgOptions o = base;
    o.cycle = CycleType::kW;
    variants.push_back({"W-cycle", o});
  }
  {
    GmgOptions o = base;
    o.bottom = BottomSolverType::kConjugateGradient;
    variants.push_back({"CG bottom solver", o});
  }
  {
    GmgOptions o = base;
    variants.push_back({"FMG start + V-cycles", o, /*use_fmg=*/true});
  }
  {
    GmgOptions o = base;
    o.operator_radius = 2;
    variants.push_back({"4th-order (13-point) operator", o});
  }
  {
    GmgOptions o = base;
    variants.push_back({"variable-coefficient diffusion", o, false, true});
  }

  Table t({"configuration", "V-cycles", "final max|r|", "seconds"});
  comm::World world(1);
  for (const Variant& v : variants) {
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(v.opts, decomp, 0);
      solver.set_rhs(sine_rhs);
      if (v.varcoef) solver.set_coefficient(c, wavy_coef);
      Timer timer;
      if (v.use_fmg) solver.fmg(c);
      const SolveResult r = solver.solve(c);
      t.row()
          .cell(v.name)
          .cell(static_cast<long>(r.vcycles))
          .cell(r.final_residual, 14)
          .cell(timer.elapsed(), 3);
    });
  }
  t.print();
  std::cout << "\nAll configurations share the brick data layout, the\n"
            << "communication-avoiding schedule, and the packing-free\n"
            << "exchange; only the numerical components differ (the\n"
            << "paper's §IX future-work axis).\n";
  return 0;
}

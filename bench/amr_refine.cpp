// AMR refinement payoff: composite solve (coarse grid + one 2x
// refined patch over the central 12.5% of the domain) vs a uniformly
// fine solve of the whole domain, at matched accuracy on the refined
// region. The composite solve touches ~4.3x fewer cells; this harness
// measures how much of that shows up as wall time at equal
// discretization error where it matters. Writes BENCH_amr.json;
// ci/tier1.sh smoke-runs it at a reduced size.
#include <cmath>
#include <fstream>
#include <iostream>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "bench/bench_util.hpp"
#include "comm/simmpi.hpp"
#include "gmg/solver.hpp"

using namespace gmg;

namespace {

constexpr real_t kNu = 1e-3;
constexpr real_t kSigma = 0.05;

real_t exact_u(real_t x, real_t y, real_t z) {
  const real_t dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
  return std::exp(-(dx * dx + dy * dy + dz * dz) / (2 * kSigma * kSigma));
}

real_t rhs(real_t x, real_t y, real_t z) {
  const real_t s2 = kSigma * kSigma;
  const real_t dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
  const real_t r2 = dx * dx + dy * dy + dz * dz;
  const real_t u = std::exp(-r2 / (2 * s2));
  return u - kNu * u * (r2 / (s2 * s2) - 3 / s2);
}

struct RunResult {
  double seconds = 0;
  int cycles = 0;
  real_t error = 0;  // max vs manufactured solution, refined region
  std::int64_t dofs = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  opt.add_flag("s", "coarse cells per axis", "64");
  opt.add_flag("b", "brick dimension", "8");
  const std::string trace_out =
      bench::parse_trace_out(opt, argc, argv, "amr_refine");
  const index_t s = opt.get_int("s");
  const index_t b = opt.get_int("b");
  const Box patch{{s / 4, s / 4, s / 4}, {3 * s / 4, 3 * s / 4, 3 * s / 4}};
  // Error comparison region: the inner half of the patch, away from
  // interface pollution — global fine cells at spacing 1/(2s).
  const Box inner_fine{{3 * s / 4, 3 * s / 4, 3 * s / 4},
                       {5 * s / 4, 5 * s / 4, 5 * s / 4}};

  GmgOptions base;
  base.levels = 6;
  base.smooths = 8;
  base.bottom_smooths = 50;
  base.brick = BrickShape::cube(b);
  base.identity_coef = 1.0;
  base.laplacian_coef = -kNu;

  bench::section("AMR refinement payoff — composite (" +
                 std::to_string(s) + "^3 + 2x patch) vs uniform " +
                 std::to_string(2 * s) + "^3, matched accuracy");

  RunResult comp, fine, coarse;
  BrickGrid::PlanCacheStats plan_stats;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    // Composite.
    amr::AmrOptions aopts;
    aopts.gmg = base;
    aopts.patch = patch;
    aopts.tolerance = 1e-9;
    amr::AmrHierarchy hier(aopts, CartDecomp({s, s, s}, {1, 1, 1}), 0);
    hier.set_rhs(rhs);
    amr::CompositeSolver solver(hier);
    Timer t;
    const amr::CompositeResult cres = solver.solve(c);
    comp.seconds = t.elapsed();
    comp.cycles = cres.cycles;
    const std::int64_t sc = s;
    comp.dofs = sc * sc * sc + 7 * (sc / 2) * (sc / 2) * (sc / 2);
    const MgLevel& P = hier.patch();
    const Vec3 plo = hier.geometry().part_fine.lo;
    const real_t hf = P.h;
    for_each(inner_fine, [&](index_t i, index_t j, index_t k) {
      const real_t u =
          exact_u((i + 0.5) * hf, (j + 0.5) * hf, (k + 0.5) * hf);
      comp.error = std::max(
          comp.error, std::abs(P.x(i - plo.x, j - plo.y, k - plo.z) - u));
    });
    plan_stats = hier.solver().level(0).grid->plan_cache_stats();
    if (!cres.converged) std::cout << "  WARNING: composite not converged\n";

    // Uniformly fine reference, solved to the same relative residual.
    GmgSolver fsolver(base, CartDecomp({2 * s, 2 * s, 2 * s}, {1, 1, 1}),
                      0);
    fsolver.set_rhs(rhs);
    fsolver.set_solve_params(1e-9 * fsolver.residual_norm(c), 100);
    t.restart();
    const SolveResult fres = fsolver.solve(c);
    fine.seconds = t.elapsed();
    fine.cycles = fres.vcycles;
    fine.dofs = 8 * sc * sc * sc;
    const real_t hu = fsolver.level(0).h;
    for_each(inner_fine, [&](index_t i, index_t j, index_t k) {
      const real_t u =
          exact_u((i + 0.5) * hu, (j + 0.5) * hu, (k + 0.5) * hu);
      fine.error =
          std::max(fine.error, std::abs(fsolver.solution()(i, j, k) - u));
    });

    // Unrefined control: same coarse grid, no patch.
    GmgSolver csolver(base, CartDecomp({s, s, s}, {1, 1, 1}), 0);
    csolver.set_rhs(rhs);
    csolver.set_solve_params(1e-9 * csolver.residual_norm(c), 100);
    t.restart();
    const SolveResult hres = csolver.solve(c);
    coarse.seconds = t.elapsed();
    coarse.cycles = hres.vcycles;
    coarse.dofs = sc * sc * sc;
    const real_t hh = csolver.level(0).h;
    for_each(coarsen(inner_fine, 2), [&](index_t i, index_t j, index_t k) {
      const real_t u =
          exact_u((i + 0.5) * hh, (j + 0.5) * hh, (k + 0.5) * hh);
      coarse.error =
          std::max(coarse.error, std::abs(csolver.solution()(i, j, k) - u));
    });
  });

  const auto report = [](const char* name, const RunResult& r) {
    std::cout << "  " << name << ": " << r.seconds << " s, " << r.cycles
              << " cycles, " << r.dofs << " dofs, max err " << r.error
              << "\n";
  };
  report("composite   ", comp);
  report("uniform fine", fine);
  report("coarse only ", coarse);
  std::cout << "  speedup vs uniform fine: " << fine.seconds / comp.seconds
            << "x at " << comp.error / fine.error
            << "x the fine-grid error (coarse-only error is "
            << coarse.error / comp.error << "x worse)\n"
            << "  plan cache: " << plan_stats.hits << " hits / "
            << plan_stats.misses << " misses, " << plan_stats.entries
            << " entries\n";

  std::ofstream os("BENCH_amr.json");
  os << "{\n  \"bench\": \"amr_refine\",\n"
     << "  \"coarse\": \"" << s << "^3\",\n  \"patch_coarse_cells\": \""
     << patch << "\",\n  \"uniform\": \"" << 2 * s << "^3\",\n"
     << "  \"composite_seconds\": " << comp.seconds << ",\n"
     << "  \"composite_cycles\": " << comp.cycles << ",\n"
     << "  \"composite_dofs\": " << comp.dofs << ",\n"
     << "  \"composite_max_err\": " << comp.error << ",\n"
     << "  \"uniform_seconds\": " << fine.seconds << ",\n"
     << "  \"uniform_cycles\": " << fine.cycles << ",\n"
     << "  \"uniform_dofs\": " << fine.dofs << ",\n"
     << "  \"uniform_max_err\": " << fine.error << ",\n"
     << "  \"coarse_seconds\": " << coarse.seconds << ",\n"
     << "  \"coarse_max_err\": " << coarse.error << ",\n"
     << "  \"speedup_vs_uniform\": " << fine.seconds / comp.seconds << ",\n"
     << "  \"err_ratio_vs_uniform\": " << comp.error / fine.error << ",\n"
     << "  \"plan_cache_hits\": " << plan_stats.hits << ",\n"
     << "  \"plan_cache_misses\": " << plan_stats.misses << "\n}\n";
  bench::note("  wrote BENCH_amr.json");
  bench::finish_trace(trace_out);
  return 0;
}

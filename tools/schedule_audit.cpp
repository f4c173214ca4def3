// schedule_audit — dry-run the static schedule verifier (DESIGN.md
// §18) over representative solver configurations without executing a
// single sweep, and report how much the setup-time proof costs.
//
//   schedule_audit [--fuse 0|1] [--batch K] [--amr]
//                  [--assert-overhead PCT] [--extent N] [--levels L]
//
// For each configuration (4 smoothers, both bottom solvers on Jacobi,
// W-cycle, FMG is folded into every entry since verify_solver_schedule
// proves both the V-cycle and FMG schedules) the tool records the
// planned launch/exchange sequence through the solvers' own cycle and
// runs check::ScheduleVerifier over it, printing step counts and proof
// time. Every configuration is proven for rank 0 of three rank grids,
// each rank owning an N^3 subdomain (--extent N): 1x1x1 (every axis
// wraps, so no ghost zone and no CA growth), 2x2x1 and 2x2x2 (CA
// sweeps grow along the axes with remote neighbors — DESIGN.md §11).
// --batch K adds the K-component batched schedule (with the
// representative retirement between cycles); --amr adds the composite
// AMR schedule. --assert-overhead fails (exit 1) when the total
// record+verify time exceeds PCT percent of the corresponding solver
// setup time — the guard CI uses to keep the proof cheap enough to
// leave on by default.
//
// GMG_FUSE_STAGES is honored like everywhere else; --fuse just sets it
// for child configuration so `schedule_audit --fuse 0` and
// `GMG_FUSE_STAGES=0 schedule_audit` are the same dry run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "batch/batched_solver.hpp"
#include "check/schedule.hpp"
#include "common/timer.hpp"
#include "gmg/schedule_audit.hpp"
#include "gmg/solver.hpp"

namespace {

using namespace gmg;

struct Args {
  int fuse = -1;  // -1 = leave GMG_FUSE_STAGES alone
  int batch = 4;
  bool amr = false;
  double assert_overhead_pct = 0;  // 0 = report only
  index_t extent = 128;
  int levels = 4;
};

int usage() {
  std::fprintf(stderr,
               "usage: schedule_audit [--fuse 0|1] [--batch K] [--amr]\n"
               "                      [--assert-overhead PCT] [--extent N]\n"
               "                      [--levels L]\n");
  return 2;
}

GmgOptions base_options(const Args& a, Smoother sm, BottomSolverType bottom) {
  GmgOptions o;
  o.levels = a.levels;
  o.smooths = 8;
  o.bottom_smooths = 20;
  o.brick = BrickShape::cube(8);
  o.smoother = sm;
  o.bottom = bottom;
  return o;
}

const char* smoother_name(Smoother s) {
  switch (s) {
    case Smoother::kPointJacobi: return "jacobi";
    case Smoother::kWeightedJacobi: return "weighted";
    case Smoother::kChebyshev: return "chebyshev";
    case Smoother::kRedBlackGS: return "rbgs";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--fuse") {
      const char* v = next();
      if (v == nullptr) return usage();
      args.fuse = std::atoi(v);
    } else if (a == "--batch") {
      const char* v = next();
      if (v == nullptr) return usage();
      args.batch = std::atoi(v);
    } else if (a == "--amr") {
      args.amr = true;
    } else if (a == "--assert-overhead") {
      const char* v = next();
      if (v == nullptr) return usage();
      args.assert_overhead_pct = std::atof(v);
    } else if (a == "--extent") {
      const char* v = next();
      if (v == nullptr) return usage();
      args.extent = std::atoi(v);
    } else if (a == "--levels") {
      const char* v = next();
      if (v == nullptr) return usage();
      args.levels = std::atoi(v);
    } else {
      return usage();
    }
  }
  if (args.fuse == 0 || args.fuse == 1) {
    setenv("GMG_FUSE_STAGES", args.fuse != 0 ? "1" : "0", 1);
  }
  // The ctors would verify on their own; this tool wants the record
  // and proof phases timed separately from setup, so it disables the
  // hook and drives verification explicitly.
  check::set_verify_schedule_enabled(false);

  const char* fuse_env = std::getenv("GMG_FUSE_STAGES");
  std::printf("schedule_audit: extent=%lld levels=%d fuse=%s\n",
              static_cast<long long>(args.extent), args.levels,
              fuse_env != nullptr ? fuse_env : "default");

  struct Config {
    Smoother smoother;
    BottomSolverType bottom;
    CycleType cycle;
  };
  const std::vector<Config> configs = {
      {Smoother::kPointJacobi, BottomSolverType::kSmooth, CycleType::kV},
      {Smoother::kPointJacobi, BottomSolverType::kConjugateGradient,
       CycleType::kV},
      {Smoother::kPointJacobi, BottomSolverType::kSmooth, CycleType::kW},
      {Smoother::kWeightedJacobi, BottomSolverType::kSmooth, CycleType::kV},
      {Smoother::kChebyshev, BottomSolverType::kSmooth, CycleType::kV},
      {Smoother::kRedBlackGS, BottomSolverType::kSmooth, CycleType::kV},
  };

  double setup_s = 0, proof_s = 0;
  bool all_ok = true;
  for (const Vec3 rank_grid : {Vec3{1, 1, 1}, Vec3{2, 2, 1}, Vec3{2, 2, 2}}) {
    const CartDecomp decomp({args.extent * rank_grid.x,
                             args.extent * rank_grid.y,
                             args.extent * rank_grid.z},
                            rank_grid);
    std::printf(" rank 0 of %lldx%lldx%lld:\n",
                static_cast<long long>(rank_grid.x),
                static_cast<long long>(rank_grid.y),
                static_cast<long long>(rank_grid.z));
    for (const Config& c : configs) {
      GmgOptions o = base_options(args, c.smoother, c.bottom);
      o.cycle = c.cycle;
      Timer t;
      GmgSolver solver(o, decomp, 0);
      const double setup = t.elapsed();
      t.restart();
      const check::Schedule sched = record_solver_schedule(solver);
      const check::Schedule fmg = record_fmg_schedule(solver);
      bool ok = true;
      std::string diag;
      try {
        check::ScheduleVerifier().verify(sched);
        check::ScheduleVerifier().verify(fmg);
      } catch (const std::exception& e) {
        ok = false;
        diag = e.what();
      }
      const double proof = t.elapsed();
      setup_s += setup;
      proof_s += proof;
      std::printf(
          "  %-9s bottom=%-6s %s: %4zu steps (+%zu fmg)  setup %6.2f ms  "
          "proof %6.2f ms  %s\n",
          smoother_name(c.smoother),
          c.bottom == BottomSolverType::kConjugateGradient ? "cg" : "smooth",
          c.cycle == CycleType::kW ? "W" : "V", sched.steps.size(),
          fmg.steps.size(), setup * 1e3, proof * 1e3,
          ok ? "proven" : "REJECTED");
      if (!ok) {
        std::fprintf(stderr, "    %s\n", diag.c_str());
        all_ok = false;
      }
    }

    if (args.batch > 1) {
      GmgOptions o = base_options(args, Smoother::kPointJacobi,
                                  BottomSolverType::kConjugateGradient);
      o.max_batch = args.batch;
      Timer t;
      GmgSolver base(o, decomp, 0);
      batch::BatchedSolver bs(base, args.batch);
      const double setup = t.elapsed();
      t.restart();
      const check::Schedule sched = batch::record_batched_schedule(bs);
      bool ok = true;
      std::string diag;
      try {
        check::ScheduleVerifier().verify(sched);
      } catch (const std::exception& e) {
        ok = false;
        diag = e.what();
      }
      const double proof = t.elapsed();
      setup_s += setup;
      proof_s += proof;
      std::printf("  batched K=%d: %4zu steps  setup %6.2f ms  proof %6.2f ms"
                  "  %s\n",
                  args.batch, sched.steps.size(), setup * 1e3, proof * 1e3,
                  ok ? "proven" : "REJECTED");
      if (!ok) {
        std::fprintf(stderr, "    %s\n", diag.c_str());
        all_ok = false;
      }
    }

    if (args.amr) {
      amr::AmrOptions ao;
      ao.gmg = base_options(args, Smoother::kPointJacobi,
                            BottomSolverType::kSmooth);
      const Vec3 q{decomp.global_extent().x / 4,
                   decomp.global_extent().y / 4,
                   decomp.global_extent().z / 4};
      ao.patch = Box{q, Vec3{3 * q.x, 3 * q.y, 3 * q.z}};
      ao.patch_smooths = 4;
      ao.correction_vcycles = 2;
      Timer t;
      amr::AmrHierarchy h(ao, decomp, 0);
      const double setup = t.elapsed();
      t.restart();
      const check::Schedule sched = amr::record_composite_schedule(h);
      bool ok = true;
      std::string diag;
      try {
        check::ScheduleVerifier().verify(sched);
      } catch (const std::exception& e) {
        ok = false;
        diag = e.what();
      }
      const double proof = t.elapsed();
      setup_s += setup;
      proof_s += proof;
      std::printf("  amr composite: %4zu steps  setup %6.2f ms  proof %6.2f ms"
                  "  %s\n",
                  sched.steps.size(), setup * 1e3, proof * 1e3,
                  ok ? "proven" : "REJECTED");
      if (!ok) {
        std::fprintf(stderr, "    %s\n", diag.c_str());
        all_ok = false;
      }
    }
  }

  const double pct = setup_s > 0 ? 100.0 * proof_s / setup_s : 0;
  std::printf("schedule_audit: proof overhead %.2f%% of setup (%.2f ms / "
              "%.2f ms)\n",
              pct, proof_s * 1e3, setup_s * 1e3);
  if (!all_ok) return 1;
  if (args.assert_overhead_pct > 0 && pct > args.assert_overhead_pct) {
    std::fprintf(stderr,
                 "schedule_audit: overhead %.2f%% exceeds the %.2f%% "
                 "budget\n",
                 pct, args.assert_overhead_pct);
    return 1;
  }
  return 0;
}

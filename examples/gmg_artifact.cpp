// The paper-artifact driver, faithful to the appendix:
//
//   <exe> -s 512,512,512 -I 10 -l 6 -n 20
//
// where -s is the subdomain size PER RANK, -I the number of timed
// solve repetitions (after warm-up), -l the V-cycle depth, and -n the
// maximum solver iterations. The output matches the artifact: per
// (level, operation) accumulated time as [min, avg, max] (σ) across
// ranks, total time per level, total time to solution, and GStencil/s.
//
// On this reproduction host, ranks are simmpi threads (-r, default 8,
// one per "node" as in the paper's §VI experiments). The profile comes
// from the solver's phase spans (trace::level_stats), one sum per rank.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <vector>

#include "comm/simmpi.hpp"
#include "common/options.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"
#include "gmg/solver.hpp"
#include "trace/report.hpp"

using namespace gmg;

int main(int argc, char** argv) {
  Options opt;
  opt.add_flag("s", "subdomain size per rank (nx,ny,nz or cube)", "32");
  opt.add_flag("I", "timed solve repetitions", "3");
  opt.add_flag("l", "V-cycle levels", "3");
  opt.add_flag("n", "maximum solver iterations", "20");
  opt.add_flag("r", "number of ranks", "8");
  opt.add_flag("b", "brick dimension", "4");
  try {
    opt.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opt.help(argv[0]);
    return 1;
  }

  const Vec3 sub = opt.get_vec3("s");
  const int reps = static_cast<int>(opt.get_int("I"));
  const int nranks = static_cast<int>(opt.get_int("r"));
  const Vec3 grid = factor_ranks(nranks);
  const Vec3 global{sub.x * grid.x, sub.y * grid.y, sub.z * grid.z};
  const CartDecomp decomp(global, grid);

  GmgOptions opts;
  opts.levels = static_cast<int>(opt.get_int("l"));
  opts.max_vcycles = static_cast<int>(opt.get_int("n"));
  opts.brick = BrickShape::cube(opt.get_int("b"));

  std::cout << "gmg_artifact: " << sub << " per rank x " << nranks
            << " ranks " << grid << " = " << global << " global, -I " << reps
            << ", -l " << opts.levels << ", -n " << opts.max_vcycles << "\n";

  // Each rank's per-(level, phase) totals over the timed solves, folded
  // in from the trace after every solve, so the trace never holds more
  // than one solve's events.
  using Key = std::pair<int, std::string>;
  std::vector<std::map<Key, double>> rank_totals(
      static_cast<std::size_t>(nranks));
  std::uint64_t dropped = 0;
  const auto fold = [&] {
    const trace::Snapshot snap = trace::collect();
    dropped += snap.dropped;
    for (int r = 0; r < nranks; ++r) {
      for (const auto& [key, st] : trace::level_stats(snap, r))
        rank_totals[static_cast<std::size_t>(r)][key] += st.sum();
    }
  };

  comm::World world(nranks);
  int exit_code = 0;
  RunningStats solve_times;
  SolveResult res;
  world.run([&](comm::Communicator& comm) {
    GmgSolver solver(opts, decomp, comm.rank());
    const auto rhs = [](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    };

    // Warm-up solve (the artifact warms up with a full set of solves;
    // one suffices on a shared-core host), then -I timed solves.
    solver.set_rhs(rhs);
    SolveResult last = solver.solve(comm);
    // Rank 0 drops the warm-up's spans, and later folds each timed
    // solve's, while every other rank waits in a barrier: no phase span
    // is recorded meanwhile.
    comm.barrier();
    if (comm.rank() == 0) trace::clear();
    comm.barrier();

    for (int it = 0; it < reps; ++it) {
      solver.set_rhs(rhs);
      comm.barrier();
      Timer t;
      last = solver.solve(comm);
      const double worst = comm.allreduce_max(t.elapsed());
      if (comm.rank() == 0) {
        solve_times.add(worst);
        fold();
      }
      comm.barrier();
    }
    if (comm.rank() == 0) res = last;
  });

  // The artifact's cross-rank profile: each rank's totals, reduced.
  std::map<Key, RunningStats> across_ranks;
  for (const std::map<Key, double>& totals : rank_totals) {
    for (const auto& [key, s] : totals) across_ranks[key].add(s);
  }
  std::map<int, double> rank0_level_s;
  for (const auto& [key, s] : rank_totals.front())
    rank0_level_s[key.first] += s;
  for (const auto& [key, st] : across_ranks) {
    std::cout << "level " << key.first << ' ' << key.second << ' '
              << st.summary() << '\n';
  }
  for (const auto& [l, total] : rank0_level_s) {
    std::cout << "level " << l << " total (rank 0): " << total / reps
              << " s per solve\n";
  }
  const double cells = static_cast<double>(global.volume());
  std::cout << "solve time across " << reps << " repetitions: "
            << solve_times.summary() << "\n"
            << (res.converged ? "converged" : "NOT converged") << " in "
            << res.vcycles << " V-cycles, max|r| = " << res.final_residual
            << "\n"
            << "throughput: " << cells / solve_times.mean() / 1e9
            << " GStencil/s (fine-grid DOF per second of solve)\n";
  if (!res.converged) exit_code = 1;
  // A profile built from a lossy (or empty) trace would misreport the
  // solves, so either fails the run.
  if (across_ranks.empty() || dropped > 0) {
    std::cerr << "gmg_artifact: trace profile is empty or lost " << dropped
              << " events\n";
    exit_code = 1;
  }
  return exit_code;
}

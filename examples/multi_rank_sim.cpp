// Distributed solve on the simulated MPI runtime: decompose a global
// periodic domain over N ranks (threads standing in for the paper's
// one-rank-per-GPU processes), solve the model problem, and print the
// artifact-style per-(level, operation) timing profile of rank 0 —
// the same output format as the paper's artifact (§AD).
//
//   ./multi_rank_sim -s 64 -r 8 -l 3 -n 20
#include <cmath>
#include <iostream>

#include "comm/simmpi.hpp"
#include "common/options.hpp"
#include "gmg/solver.hpp"
#include "mesh/decomposition.hpp"
#include "trace/report.hpp"

using namespace gmg;

int main(int argc, char** argv) {
  Options opt;
  opt.add_flag("s", "GLOBAL domain size (cells per axis or nx,ny,nz)", "64");
  opt.add_flag("r", "number of ranks", "8");
  opt.add_flag("l", "V-cycle levels", "3");
  opt.add_flag("n", "maximum V-cycles", "30");
  opt.add_flag("b", "brick dimension", "4");
  opt.add_switch("no-ca", "disable communication-avoiding smoothing");
  opt.add_flag("mode", "exchange mode: packfree|packed|perbrick", "packfree");
  try {
    opt.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opt.help(argv[0]);
    return 1;
  }

  const Vec3 global = opt.get_vec3("s");
  const int nranks = static_cast<int>(opt.get_int("r"));
  const Vec3 grid = factor_ranks(nranks);
  const CartDecomp decomp(global, grid);

  GmgOptions opts;
  opts.levels = static_cast<int>(opt.get_int("l"));
  opts.max_vcycles = static_cast<int>(opt.get_int("n"));
  opts.brick = BrickShape::cube(opt.get_int("b"));
  opts.communication_avoiding = !opt.get_bool("no-ca");
  const std::string mode = opt.get("mode");
  opts.exchange_mode = mode == "packed"
                           ? comm::BrickExchangeMode::kPacked
                       : mode == "perbrick"
                           ? comm::BrickExchangeMode::kPerBrick
                           : comm::BrickExchangeMode::kPackFree;

  std::cout << "Global " << global << " over " << nranks << " ranks as "
            << grid << " (subdomain " << decomp.subdomain_extent() << "), "
            << (opts.communication_avoiding ? "CA" : "no CA") << ", "
            << mode << " exchange\n";

  comm::World world(nranks);
  int exit_code = 0;
  world.run([&](comm::Communicator& comm) {
    GmgSolver solver(opts, decomp, comm.rank());
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    });
    const SolveResult res = solver.solve(comm);

    // Traffic summary: every rank reports; rank 0 aggregates.
    const double my_bytes = static_cast<double>(comm.bytes_sent());
    const double total_bytes = comm.allreduce_sum(my_bytes);
    const double max_rank_s = comm.allreduce_max(res.seconds);

    if (comm.rank() == 0) {
      std::cout << (res.converged ? "converged" : "NOT converged") << " in "
                << res.vcycles << " V-cycles, max|r| = "
                << res.final_residual << ", wall " << max_rank_s << " s, "
                << total_bytes / 1e6 << " MB total message traffic\n";
      if (!res.converged) exit_code = 1;
    }
  });

  // Rank 0's phase spans. A profile built from a lossy (or empty)
  // trace would misreport the solve, so either fails the run.
  const trace::Snapshot snap = trace::collect();
  const std::string profile = trace::format_level_stats(snap, /*rank=*/0);
  std::cout << "\nrank 0 profile (artifact format):\n" << profile;
  if (profile.empty() || snap.dropped > 0) {
    std::cerr << "multi_rank_sim: trace profile is empty or lost "
              << snap.dropped << " events\n";
    return 1;
  }
  return exit_code;
}

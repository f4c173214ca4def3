// Microbenchmark (ablation §V): communication-avoiding deep-ghost
// smoothing vs exchange-every-iteration, on the real solver. CA
// trades redundant ghost-region computation for a brick-depth
// reduction in exchange rounds. The problem runs on a 2x2x2 rank grid
// so every axis has remote neighbors and that trade is real: on one
// rank every axis wraps onto the rank itself (DESIGN.md §11), so both
// schedules would do identical work. Rank 0's counters report the
// round counts and exchange time, read from its exchange phase spans.
#include <benchmark/benchmark.h>

#include <cmath>

#include "comm/simmpi.hpp"
#include "gmg/phase.hpp"
#include "gmg/solver.hpp"
#include "trace/report.hpp"

namespace {

using namespace gmg;

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

void run_vcycles(benchmark::State& state, bool ca, index_t bdim) {
  const CartDecomp decomp({64, 64, 64}, {2, 2, 2});
  comm::World world(decomp.num_ranks());
  trace::clear();
  world.run([&](comm::Communicator& c) {
    GmgOptions opts;
    opts.levels = 3;
    opts.smooths = 12;
    opts.bottom_smooths = 50;
    opts.brick = BrickShape::cube(bdim);
    opts.communication_avoiding = ca;
    GmgSolver solver(opts, decomp, c.rank());
    solver.set_rhs(sine_rhs);
    solver.vcycle(c);  // warm-up
    // V-cycles are collective: rank 0 drives the timed loop and the
    // other ranks run the same fixed iteration count alongside it.
    if (c.rank() != 0) {
      for (benchmark::IterationCount i = 0; i < state.max_iterations; ++i) {
        solver.vcycle(c);
      }
      return;
    }
    for (auto _ : state) {
      solver.vcycle(c);
    }
  });
  // Exchange rounds per V-cycle at the finest level.
  const RunningStats ex = trace::level_stats(trace::collect(), 0)
                              .at({0, phase_name(Phase::kExchange)});
  const double vcycles = static_cast<double>(state.iterations() + 1);
  state.counters["exchanges/vcycle(l0)"] =
      static_cast<double>(ex.count()) / vcycles;
  state.counters["exchange_ms/vcycle"] = ex.sum() * 1e3 / vcycles;
}

void BM_Vcycle_CA_Brick8(benchmark::State& state) {
  run_vcycles(state, true, 8);
}
void BM_Vcycle_CA_Brick4(benchmark::State& state) {
  run_vcycles(state, true, 4);
}
void BM_Vcycle_NoCA_Brick8(benchmark::State& state) {
  run_vcycles(state, false, 8);
}
BENCHMARK(BM_Vcycle_CA_Brick8)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(BM_Vcycle_CA_Brick4)->Unit(benchmark::kMillisecond)->Iterations(3);
BENCHMARK(BM_Vcycle_NoCA_Brick8)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

BENCHMARK_MAIN();

// Table II: percentage of the total finest-level (512^3) time spent in
// each V-cycle operation, with communication avoiding on. Modeled per
// paper system; also measured live on the host from a real solver run.
#include <iostream>

#include "bench/bench_util.hpp"
#include "comm/simmpi.hpp"
#include "common/table.hpp"
#include "gmg/solver.hpp"
#include "net/net_model.hpp"
#include "perf/vcycle_model.hpp"
#include "trace/report.hpp"

using namespace gmg;

namespace {

void modeled_table2() {
  bench::section("Table II — % of finest-level time per operation (modeled)");
  Table t({"Operation", "A100 (CUDA)", "MI250X GCD (HIP)", "PVC tile (SYCL)"});

  std::vector<perf::LevelCost> finest;
  for (const arch::ArchSpec* spec : arch::paper_platforms()) {
    perf::VcycleModelInput in;
    in.subdomain = {512, 512, 512};
    in.levels = 6;
    in.smooths = 12;
    in.bottom_smooths = 100;
    in.brick_dim = spec->brick_dim;
    finest.push_back(perf::model_vcycle(arch::DeviceModel(*spec),
                                        net::NetworkModel(*spec), in)
                         .levels[0]);
  }

  const auto row = [&](const std::string& name, auto pick) {
    t.row().cell(name);
    for (const auto& l0 : finest) t.cell_percent(pick(l0) / l0.total_s());
  };
  row("applyOp", [](const perf::LevelCost& c) { return c.applyop_s; });
  row("smooth+residual",
      [](const perf::LevelCost& c) { return c.smooth_residual_s; });
  row("restriction", [](const perf::LevelCost& c) { return c.restriction_s; });
  row("interpolation+increment",
      [](const perf::LevelCost& c) { return c.interp_s; });
  row("exchange", [](const perf::LevelCost& c) { return c.exchange_s; });
  t.print();
  t.write_csv("bench/out/table2_op_breakdown.csv");
  bench::note(
      "  paper reference (A100): 25.0 / 54.5 / 1.0 / 1.9 / 17.5 %.");
}

void measured_table2() {
  bench::section(
      "Table II (measured) — finest-level breakdown of a live 8-rank host "
      "run, 32^3/rank");
  const CartDecomp decomp({64, 64, 64}, {2, 2, 2});
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    GmgOptions opts;
    opts.levels = 3;
    opts.smooths = 12;
    opts.bottom_smooths = 100;
    opts.brick = BrickShape::cube(4);
    opts.max_vcycles = 2;
    opts.tolerance = 0;
    GmgSolver solver(opts, decomp, c.rank());
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    });
    solver.solve(c);
  });
  // Rank 0's finest-level phases, as shares of its level-0 total.
  const trace::LevelStats stats = trace::level_stats(trace::collect(), 0);
  double level0_s = 0;
  for (const auto& [key, st] : stats)
    if (key.first == 0) level0_s += st.sum();
  Table t({"Operation", "Host (exec pool)"});
  for (const auto& [key, st] : stats) {
    if (key.first == 0)
      t.row().cell(key.second).cell_percent(st.sum() / level0_s);
  }
  t.print();
  bench::note(
      "  note: simmpi exchange time on a single shared core reflects "
      "thread scheduling, not a network — the modeled table above is the "
      "paper-comparable one.");
}

}  // namespace

int main() {
  modeled_table2();
  measured_table2();
  return 0;
}

// Figure 3: total execution time per multigrid level for a 1024^3
// Poisson solve on 8 nodes (512^3 per rank, one A100 / MI250X GCD /
// PVC tile per node), 6 levels, 12 smooths per level, 100 at the
// coarsest, communication-avoiding enabled.
//
// Per-system times come from the calibrated device+network models over
// the exact Algorithm 2 schedule (DESIGN.md §2); a live 8-rank simmpi
// run of the same schedule on the host validates the schedule itself
// and prints the artifact-format profile.
#include <iostream>
#include <map>

#include "bench/bench_util.hpp"
#include "comm/simmpi.hpp"
#include "common/table.hpp"
#include "gmg/solver.hpp"
#include "net/net_model.hpp"
#include "perf/vcycle_model.hpp"
#include "trace/report.hpp"

using namespace gmg;

namespace {

void modeled_fig3() {
  bench::section(
      "Fig. 3 — total time per level [s], 12 V-cycles, 512^3/rank on 8 "
      "nodes (modeled per system)");
  const int kVcycles = 12;

  std::vector<perf::VcycleCost> costs;
  for (const arch::ArchSpec* spec : arch::paper_platforms()) {
    const arch::DeviceModel dev(*spec);
    const net::NetworkModel net(*spec, net::Protocol::kForceRendezvous);
    perf::VcycleModelInput in;
    in.subdomain = {512, 512, 512};
    in.levels = 6;
    in.smooths = 12;
    in.bottom_smooths = 100;
    in.brick_dim = spec->brick_dim;
    in.communication_avoiding = true;
    in.remote_neighbors = 26;
    in.total_ranks = 8;
    in.nodes = 8;
    costs.push_back(perf::model_vcycle(dev, net, in));
  }

  Table t({"level", "cells/rank", "Perlmutter A100", "Frontier MI250X GCD",
           "Sunspot PVC tile"});
  for (std::size_t l = 0; l < 6; ++l) {
    t.row().cell(static_cast<long>(l));
    const Vec3 c = costs[0].levels[l].cells;
    t.cell(std::to_string(c.x) + "^3");
    for (const auto& cost : costs)
      t.cell(cost.levels[l].total_s() * kVcycles, 4);
  }
  t.row().cell("total").cell("");
  for (const auto& cost : costs) t.cell(cost.total_s * kVcycles, 4);
  t.print();
  t.write_csv("bench/out/fig3_level_times.csv");

  // The paper's headline observation: between large levels the time
  // ratio tracks the ~4x surface ratio (communication-dominated), not
  // the 8x volume ratio, and flattens at the latency floor.
  for (std::size_t s = 0; s < costs.size(); ++s) {
    const double r01 =
        costs[s].levels[0].total_s() / costs[s].levels[1].total_s();
    std::cout << "  " << arch::paper_platforms()[s]->system
              << ": level0/level1 time ratio = " << r01
              << " (volume ratio would be 8, surface ratio 4)\n";
  }
}

/// One live validation run, printing rank 0's per-(level, phase)
/// stats. The trace is kept whole for --trace-out, so the run's phase
/// spans are those that start after it does.
void measured_host_run() {
  bench::section(
      "Fig. 3 validation — live 8-rank run of the same schedule on the "
      "host (32^3/rank, 3 levels, artifact-format profile of rank 0)");
  const CartDecomp decomp({64, 64, 64}, {2, 2, 2});
  comm::World world(8);
  const std::uint64_t start_ns = trace::now_ns();
  world.run([&](comm::Communicator& c) {
    GmgOptions opts;
    opts.levels = 3;
    opts.smooths = 12;
    opts.bottom_smooths = 100;
    opts.brick = BrickShape::cube(4);
    opts.max_vcycles = 2;
    opts.tolerance = 0;  // run exactly max_vcycles
    GmgSolver solver(opts, decomp, c.rank());
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    });
    solver.solve(c);
  });
  trace::Snapshot snap = trace::collect(/*clear=*/false);
  std::erase_if(snap.spans, [&](const trace::SpanRecord& s) {
    return s.t0_ns < start_ns;
  });
  std::cout << trace::format_level_stats(snap, /*rank=*/0);

  // Per-stage wall breakdown per level (rank 0).
  const trace::LevelStats stats = trace::level_stats(snap, /*rank=*/0);
  std::map<int, double> level_total;
  for (const auto& [key, st] : stats) level_total[key.first] += st.sum();
  Table t({"level", "stage", "wall_s", "share"});
  for (const auto& [key, st] : stats) {
    t.row()
        .cell(static_cast<long>(key.first))
        .cell(key.second)
        .cell(st.sum(), 5)
        .cell(st.sum() / level_total[key.first], 3);
  }
  for (const auto& [l, total] : level_total)
    std::cout << "level " << l << " total: " << total << " s\n";
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_out =
      bench::parse_trace_out(argc, argv, "fig3_level_times");
  modeled_fig3();
  measured_host_run();
  bench::finish_trace(trace_out);
  return 0;
}

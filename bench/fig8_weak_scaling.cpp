// Figure 8: weak scaling — GStencil/s (total) and parallel efficiency
// for solving Ax=b with 512^3 cells per rank, from 2 to 128 nodes
// (Perlmutter 4 ranks/node, Frontier 8, Sunspot 12; Sunspot capped at
// 16 nodes as in the paper). Modeled via the V-cycle schedule priced
// with the per-system device + congested-network models; a live
// multi-rank simmpi run confirms the algorithmic weak-scaling property
// (V-cycles to converge independent of rank count).
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench/bench_util.hpp"
#include "common/ascii_plot.hpp"
#include "comm/simmpi.hpp"
#include "common/table.hpp"
#include "gmg/solver.hpp"
#include "net/net_model.hpp"
#include "perf/vcycle_model.hpp"

using namespace gmg;

namespace {

void modeled_weak_scaling() {
  bench::section(
      "Fig. 8 — weak scaling, 512^3 per rank (modeled): GStencil/s and "
      "parallel efficiency");
  Table t({"nodes", "system", "ranks (GPUs)", "GStencil/s",
           "efficiency"});
  AsciiPlot plot({56, 12, /*log_x=*/true, /*log_y=*/false, "nodes",
                  "parallel efficiency (weak scaling)"});
  for (const arch::ArchSpec* spec : arch::paper_platforms()) {
    const arch::DeviceModel dev(*spec);
    const net::NetworkModel net(*spec, net::Protocol::kForceRendezvous,
                                spec->ranks_per_node);
    const int max_nodes = spec->system == "Sunspot" ? 16 : 128;
    double per_rank_ref = 0;
    std::vector<std::pair<double, double>> eff;
    for (int nodes = 2; nodes <= max_nodes; nodes *= 2) {
      const int ranks = nodes * spec->ranks_per_node;
      perf::VcycleModelInput in;
      in.subdomain = {512, 512, 512};
      in.levels = 6;
      in.smooths = 12;
      in.bottom_smooths = 100;
      in.brick_dim = spec->brick_dim;
      in.total_ranks = ranks;
      in.nodes = nodes;
      const auto cost = perf::model_vcycle(dev, net, in);
      // The paper's throughput metric: fine-grid cells solved per
      // second of total time-to-converge (12 V-cycles).
      const double per_rank = static_cast<double>(in.subdomain.volume()) /
                              (12.0 * cost.total_s) / 1e9;
      if (per_rank_ref == 0) per_rank_ref = per_rank;
      t.row()
          .cell(static_cast<long>(nodes))
          .cell(spec->system)
          .cell(static_cast<long>(ranks))
          .cell(per_rank * ranks, 1)
          .cell_percent(per_rank / per_rank_ref);
      eff.emplace_back(nodes, per_rank / per_rank_ref);
    }
    plot.add_series(spec->system, std::move(eff));
  }
  t.print();
  plot.print();
  t.write_csv("bench/out/fig8_weak_scaling.csv");
  bench::note(
      "  paper reference: >=87% efficiency at 128 nodes (512 GPUs);\n"
      "  Frontier approaches ~2x Perlmutter's aggregate GStencil/s (twice\n"
      "  the ranks per node), Sunspot lands near Perlmutter despite more\n"
      "  GPUs per node (network drawbacks, no GPU-aware MPI).");
}

void live_weak_scaling_check(bool overlap) {
  bench::section(
      std::string("Fig. 8 (live) — convergence is rank-count independent "
                  "on simmpi (--overlap=") +
      (overlap ? "on" : "off") +
      "): a fixed 64^3 global solve split over 1, 8 and 64 ranks must take "
      "the same number of V-cycles (the iterates are bitwise identical)");
  Table t({"ranks", "subdomain", "V-cycles", "final residual"});
  for (int ranks : {1, 8, 64}) {
    const int per_axis = static_cast<int>(std::lround(std::cbrt(ranks)));
    const CartDecomp decomp({64, 64, 64},
                            {per_axis, per_axis, per_axis});
    comm::World world(ranks);
    int vcycles = 0;
    real_t residual = 0;
    world.run([&](comm::Communicator& c) {
      GmgOptions opts;
      opts.levels = 3;  // same hierarchy on every rank count
      opts.smooths = 8;
      opts.bottom_smooths = 100;
      opts.brick = BrickShape::cube(4);
      opts.max_vcycles = 60;
      opts.overlap = overlap;
      GmgSolver solver(opts, decomp, c.rank());
      solver.set_rhs([](real_t x, real_t y, real_t z) {
        return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
               std::sin(2 * M_PI * z);
      });
      const SolveResult res = solver.solve(c);
      if (c.rank() == 0) {
        vcycles = res.vcycles;
        residual = res.final_residual;
      }
    });
    t.row()
        .cell(static_cast<long>(ranks))
        .cell(std::to_string(64 / per_axis) + "^3")
        .cell(static_cast<long>(vcycles))
        .cell(residual, 12);
  }
  t.print();
}

struct OverlapRun {
  std::vector<double> exchange_s;  // per level, summed across ranks
  double wall_s = 0;               // slowest rank, fixed V-cycle count
};

OverlapRun run_overlap_config(const CartDecomp& decomp, bool overlap,
                              double bytes_ratio, int vcycles) {
  OverlapRun out;
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    GmgOptions opts;
    opts.levels = 4;
    opts.smooths = 12;
    opts.bottom_smooths = 50;
    opts.brick = BrickShape::cube(4);
    opts.overlap = overlap;
    opts.overlap_min_compute_bytes_ratio = bytes_ratio;
    GmgSolver solver(opts, decomp, c.rank());
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    });
    solver.vcycle(c);  // warm-up: engine + exchange buffers + caches
    solver.profiler().clear();
    c.barrier();
    Timer timer;
    for (int v = 0; v < vcycles; ++v) solver.vcycle(c);
    const double wall = c.allreduce_max(timer.elapsed());
    std::vector<double> exch;
    for (int l = 0; l < solver.num_levels(); ++l) {
      const double mine =
          solver.profiler().has(l, perf::Phase::kExchange)
              ? solver.profiler().total(l, perf::Phase::kExchange)
              : 0.0;
      exch.push_back(c.allreduce_sum(mine));
    }
    if (c.rank() == 0) {
      out.exchange_s = exch;
      out.wall_s = wall;
    }
  });
  return out;
}

void overlap_hidden_exchange() {
  bench::section(
      "Fig. 8 (live) — compute–comm overlap: visible exchange seconds per "
      "level (per-rank mean), split-phase vs blocking, 64^3 over 8 ranks "
      "(2x2x2), 4 V-cycles. hidden = max(0, 1 - t_on/t_off): the fraction "
      "of the blocking exchange cost absorbed by interior smoothing");
  const CartDecomp decomp({64, 64, 64}, {2, 2, 2});
  const int vcycles = 4;
  const double ranks = static_cast<double>(decomp.num_ranks());
  const OverlapRun off = run_overlap_config(decomp, false, 0.0, vcycles);
  // Raw split-phase (bytes-ratio cutoff disabled): what the per-level
  // hidden fractions measure. At this problem's interior/payload
  // ratios (0.44 on L0, 0.05 on L1) the default cutoff would route
  // every level through the blocking path and the comparison would be
  // measuring noise.
  const OverlapRun on = run_overlap_config(decomp, true, 0.0, vcycles);
  // The shipping default: the auto-cutoff decides per level. On this
  // problem it picks blocking everywhere (interior arithmetic cannot
  // cover the split-phase bookkeeping at 32^3/rank), so this wall must
  // track the blocking wall.
  const GmgOptions defaults;
  const OverlapRun autorun = run_overlap_config(
      decomp, true, defaults.overlap_min_compute_bytes_ratio, vcycles);

  Table t({"level", "exchange off [ms/rank]", "exchange on [ms/rank]",
           "hidden"});
  const std::size_t nlev = std::min(off.exchange_s.size(), on.exchange_s.size());
  std::vector<double> hidden(nlev, 0.0);
  for (std::size_t l = 0; l < nlev; ++l) {
    hidden[l] = off.exchange_s[l] > 0
                    ? std::max(0.0, 1.0 - on.exchange_s[l] / off.exchange_s[l])
                    : 0.0;
    t.row()
        .cell(static_cast<long>(l))
        .cell(off.exchange_s[l] / ranks * 1e3, 2)
        .cell(on.exchange_s[l] / ranks * 1e3, 2)
        .cell_percent(hidden[l]);
  }
  t.print();
  std::cout << "  wall time, " << vcycles << " V-cycles: blocking "
            << off.wall_s << " s, raw split-phase " << on.wall_s
            << " s, auto-cutoff (ratio="
            << GmgOptions().overlap_min_compute_bytes_ratio << ") "
            << autorun.wall_s << " s\n";

  std::ofstream os("BENCH_overlap.json");
  os << "{\n  \"bench\": \"fig8_weak_scaling\",\n"
     << "  \"ranks\": " << decomp.num_ranks() << ",\n"
     << "  \"rank_grid\": \"2x2x2\",\n"
     << "  \"global\": \"64^3\",\n"
     << "  \"vcycles\": " << vcycles << ",\n"
     // exchange_s_* totals below are summed over all ranks' profilers;
     // wall_s_* are single-run wall clock (slowest rank). Compare the
     // *_per_rank_mean fields against the wall times, not the sums.
     << "  \"ranks_summed\": \"exchange_s_blocking/overlap are summed "
        "across all " << decomp.num_ranks()
     << " ranks; *_per_rank_mean divides by the rank count and is the "
        "figure comparable to wall_s_*\",\n"
     << "  \"wall_s_blocking\": " << off.wall_s << ",\n"
     // wall_s_overlap is the raw split-phase wall (cutoff disabled);
     // wall_s_overlap_auto is the shipping default, where
     // overlap_min_compute_bytes_ratio routes this small-subdomain
     // problem through the blocking path per level.
     << "  \"wall_s_overlap\": " << on.wall_s << ",\n"
     << "  \"wall_s_overlap_auto\": " << autorun.wall_s << ",\n"
     << "  \"overlap_min_compute_bytes_ratio\": "
     << GmgOptions().overlap_min_compute_bytes_ratio << ",\n"
     << "  \"levels\": [\n";
  for (std::size_t l = 0; l < nlev; ++l) {
    os << "    {\"level\": " << l
       << ", \"exchange_s_blocking\": " << off.exchange_s[l]
       << ", \"exchange_s_overlap\": " << on.exchange_s[l]
       << ", \"exchange_s_blocking_per_rank_mean\": "
       << off.exchange_s[l] / ranks
       << ", \"exchange_s_overlap_per_rank_mean\": "
       << on.exchange_s[l] / ranks
       << ", \"hidden_fraction\": " << hidden[l] << "}"
       << (l + 1 < nlev ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "  wrote BENCH_overlap.json\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  opts.add_flag("overlap",
                "live-check smoothing path: on = split-phase compute–comm "
                "overlap (DESIGN.md §10), off = blocking exchanges",
                "on");
  const std::string trace_out =
      bench::parse_trace_out(opts, argc, argv, "fig8_weak_scaling");
  modeled_weak_scaling();
  live_weak_scaling_check(opts.get_bool("overlap"));
  overlap_hidden_exchange();
  bench::finish_trace(trace_out);
  return 0;
}

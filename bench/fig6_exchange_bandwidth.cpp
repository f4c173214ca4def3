// Figure 6: achieved GB/s of the exchange() operation vs total message
// volume across the V-cycle levels, against the 25 GB/s Slingshot NIC
// peak. Modeled per system (with both small-message protocol policies,
// Table I); fitted alpha/beta are printed for comparison with the
// paper's 25–200 us / 7–16 GB/s ranges. A live 2-rank host exchange
// exercises the real packing-free code path end to end.
#include <cstdio>
#include <iostream>
#include <utility>

#include "bench/bench_util.hpp"
#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "common/ascii_plot.hpp"
#include "common/table.hpp"
#include "gmg/phase.hpp"
#include "net/net_model.hpp"
#include "perf/vcycle_model.hpp"
#include "trace/report.hpp"

using namespace gmg;

namespace {

void modeled_fig6() {
  bench::section(
      "Fig. 6 — exchange GB/s vs total message size per level (modeled, "
      "rendezvous protocol)");
  Table t({"level", "message bytes", "Perlmutter A100", "Frontier MI250X GCD",
           "Sunspot PVC tile"});
  std::vector<net::NetworkModel> nets;
  for (const arch::ArchSpec* spec : arch::paper_platforms())
    nets.emplace_back(*spec, net::Protocol::kForceRendezvous);

  std::vector<std::vector<double>> xs(nets.size()), ts(nets.size());
  for (int l = 0; l < 6; ++l) {
    const index_t n = 512 >> l;
    t.row().cell(static_cast<long>(l));
    t.cell(static_cast<long>(
        perf::brick_exchange_bytes({n, n, n}, 8)));
    for (std::size_t d = 0; d < nets.size(); ++d) {
      const index_t bd = nets[d].spec().brick_dim;
      const double bytes = static_cast<double>(
          perf::brick_exchange_bytes({n, n, n}, bd));
      t.cell(nets[d].exchange_rate_gbs(bytes, 26, 8), 3);
      xs[d].push_back(bytes);
      ts[d].push_back(nets[d].exchange_time(bytes, 26, 8));
    }
  }
  t.print();
  t.write_csv("bench/out/fig6_exchange.csv");

  AsciiPlot plot({56, 14, /*log_x=*/true, /*log_y=*/true,
                  "total message bytes", "exchange GB/s (log-log)"});
  for (std::size_t d = 0; d < nets.size(); ++d) {
    std::vector<std::pair<double, double>> pts;
    for (int l = 0; l < 6; ++l) {
      const index_t n = 512 >> l;
      const double bytes = static_cast<double>(perf::brick_exchange_bytes(
          {n, n, n}, nets[d].spec().brick_dim));
      pts.emplace_back(bytes, nets[d].exchange_rate_gbs(bytes, 26, 8));
    }
    plot.add_series(nets[d].spec().system, std::move(pts));
  }
  plot.print();

  for (std::size_t d = 0; d < nets.size(); ++d) {
    const auto fit = net::fit_linear_model(xs[d], ts[d]);
    std::cout << "  " << nets[d].spec().system << ": fitted alpha = "
              << fit.alpha_s * 1e6 << " us, beta = " << fit.beta_bytes_s / 1e9
              << " GB/s (NIC peak 25 GB/s; paper: 25-200 us, 7-16 GB/s)\n";
  }
}

void protocol_ablation() {
  bench::section(
      "Fig. 6 ablation — eager default vs forced rendezvous at the "
      "coarsest levels (Frontier model)");
  Table t({"level", "message bytes", "eager-default GB/s",
           "forced-rendezvous GB/s"});
  const net::NetworkModel eager(arch::mi250x_gcd(),
                                net::Protocol::kEagerDefault);
  const net::NetworkModel rdzv(arch::mi250x_gcd(),
                               net::Protocol::kForceRendezvous);
  for (int l = 0; l < 6; ++l) {
    const index_t n = 512 >> l;
    const double bytes =
        static_cast<double>(perf::brick_exchange_bytes({n, n, n}, 8));
    t.row()
        .cell(static_cast<long>(l))
        .cell(static_cast<long>(bytes))
        .cell(eager.exchange_rate_gbs(bytes, 26, 8), 3)
        .cell(rdzv.exchange_rate_gbs(bytes, 26, 8), 3);
  }
  t.print();
  bench::note(
      "  FI_CXI_RDZV_*=0 (force rendezvous) wins once messages shrink "
      "below the eager threshold — the paper's coarsest-level finding.");
}

void measured_host_exchange() {
  bench::section(
      "Fig. 6 (measured) — live 2-rank exchange on the host (memcpy-level; "
      "wall time includes thread scheduling)");
  Table t({"subdomain", "mode", "payload bytes", "time [us]", "GB/s"});
  const std::pair<comm::BrickExchangeMode, const char*> modes[] = {
      {comm::BrickExchangeMode::kPackFree, "pack-free"},
      {comm::BrickExchangeMode::kPacked, "packed"},
      {comm::BrickExchangeMode::kPerBrick, "per-brick"},
  };
  // Each timed exchange is one level-0 exchange phase span, so the
  // in-process total printed below is what trace_report reads back from
  // --trace-out as its "exchange total across ranks".
  for (index_t sub : {16, 32, 64}) {
    for (const auto& [mode, mode_name] : modes) {
      const CartDecomp decomp({2 * sub, sub, sub}, {2, 1, 1});
      comm::World world(2);
      double secs = 0;
      std::uint64_t bytes = 0;
      world.run([&](comm::Communicator& c) {
        BrickedArray f = BrickedArray::create({sub, sub, sub},
                                              BrickShape::cube(8));
        comm::BrickExchange ex(f.grid_ptr(), f.shape(), decomp, c.rank(),
                               mode);
        ex.exchange(c, f);  // warm-up
        c.barrier();
        const int reps = 20;
        Timer timer;
        for (int r = 0; r < reps; ++r)
          timed_phase(0, Phase::kExchange, [&] { ex.exchange(c, f); });
        const double local = timer.elapsed() / reps;
        const double worst = c.allreduce_max(local);
        if (c.rank() == 0) {
          secs = worst;
          bytes = ex.bytes_per_exchange();
        }
      });
      t.row()
          .cell(std::to_string(sub) + "^3")
          .cell(mode_name)
          .cell(static_cast<long>(bytes))
          .cell(secs * 1e6, 1)
          .cell(static_cast<double>(bytes) / secs / 1e9, 3);
    }
  }
  t.print();
  const trace::LevelStats stats =
      trace::level_stats(trace::collect(/*clear=*/false));
  std::printf(
      "  in-process exchange total across ranks: %.6f s (trace_report's "
      "exchange total, read back from --trace-out, must match)\n",
      stats.at({0, phase_name(Phase::kExchange)}).sum());
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_out =
      bench::parse_trace_out(argc, argv, "fig6_exchange_bandwidth");
  modeled_fig6();
  protocol_ablation();
  measured_host_exchange();
  bench::finish_trace(trace_out);
  return 0;
}

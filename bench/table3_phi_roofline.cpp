// Table III: performance portability Phi based on fraction of the
// empirical roofline, per V-cycle operation at the finest level.
// GPU columns carry the profiler-derived efficiencies the paper
// reports (calibration constants in src/arch); the Host column is
// measured live on this machine through the identical pipeline.
#include <iostream>

#include "arch/roofline.hpp"
#include "bench/bench_util.hpp"
#include "common/table.hpp"

using namespace gmg;

int main() {
  bench::section("Table III — Phi from fraction of the Roofline");
  const arch::ArchSpec host = bench::calibrated_host();
  const auto platforms = arch::paper_platforms();

  Table t({"Operation", "A100 CUDA", "MI250X GCD HIP", "PVC tile SYCL",
           "Phi (3 GPUs)", "Host pool (measured)"});
  std::vector<double> per_op_phi;
  for (int op = 0; op < arch::kNumOps; ++op) {
    t.row().cell(arch::op_name(static_cast<arch::Op>(op)));
    std::vector<double> e;
    for (const arch::ArchSpec* spec : platforms) {
      e.push_back(spec->frac_roofline[op]);
      t.cell_percent(spec->frac_roofline[op], 0);
    }
    const double phi = arch::harmonic_mean(e);
    per_op_phi.push_back(phi);
    t.cell_percent(phi, 0);
    t.cell_percent(host.frac_roofline[op], 0);
  }
  t.print();
  t.write_csv("bench/out/table3_phi_roofline.csv");

  const double overall = arch::harmonic_mean(per_op_phi);
  std::cout << "  overall Phi across platforms and operations: "
            << overall * 100 << "% (paper: 73%)\n";

  std::vector<double> host_ops(host.frac_roofline.begin(),
                               host.frac_roofline.end());
  std::cout << "  host-only harmonic mean across operations: "
            << arch::harmonic_mean(host_ops) * 100 << "%\n";
  return 0;
}

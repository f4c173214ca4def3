// Table V: performance portability Phi based on fraction of the
// theoretical arithmetic intensity — i.e. how close each kernel's
// actual data movement comes to the compulsory (infinite-cache)
// bound. GPU columns: paper-reported profiler efficiencies. Host
// column: measured by replaying the kernels' address traces through
// an LRU model of the host cache.
#include <iostream>

#include "arch/roofline.hpp"
#include "bench/bench_util.hpp"
#include "common/table.hpp"

using namespace gmg;

int main() {
  bench::section("Table V — Phi from fraction of theoretical AI");
  const arch::ArchSpec host = bench::calibrated_host();
  const auto platforms = arch::paper_platforms();

  Table t({"Operation", "A100 CUDA", "MI250X GCD HIP", "PVC tile SYCL",
           "Phi (3 GPUs)", "Host pool (cache-sim)"});
  std::vector<double> per_op_phi;
  for (int op = 0; op < arch::kNumOps; ++op) {
    t.row().cell(arch::op_name(static_cast<arch::Op>(op)));
    std::vector<double> e;
    for (const arch::ArchSpec* spec : platforms) {
      e.push_back(spec->frac_theoretical_ai[op]);
      t.cell_percent(spec->frac_theoretical_ai[op], 0);
    }
    const double phi = arch::harmonic_mean(e);
    per_op_phi.push_back(phi);
    t.cell_percent(phi, 0);
    t.cell_percent(std::min(1.0, host.frac_theoretical_ai[op]), 0);
  }
  t.print();
  t.write_csv("bench/out/table5_phi_theoretical_ai.csv");

  std::cout << "  overall Phi across platforms and operations: "
            << arch::harmonic_mean(per_op_phi) * 100 << "% (paper: 92%)\n";
  return 0;
}

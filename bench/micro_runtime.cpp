// Kernel-runtime ablation: the five V-cycle operators on the live
// host, swept over the engine pool's worker counts. Every count uses
// the same chunk plan, so any throughput delta is parallelism and
// dispatch cost. Then the fused-descent and one-pass Jacobi sweep rows
// against their split stages, applyOp and the sweep per launch at the
// serve shapes (16^3 and 32^3, bricks 4^3), and the schedule-proof
// overhead. Writes BENCH_kernel_runtime.json.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "check/schedule.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "exec/runtime.hpp"
#include "gmg/schedule_audit.hpp"
#include "gmg/solver.hpp"

using namespace gmg;

int main(int argc, char** argv) {
  const std::string trace_out =
      bench::parse_trace_out(argc, argv, "micro_runtime");
  const index_t n = 64, bdim = 8;
  const int default_workers = exec::resolved_default_workers();

  bench::section(
      "Kernel runtime ablation — GStencil/s per operator, 64^3, bricks "
      "8^3: persistent engine pool at 1/2/default workers (identical "
      "chunk plans)");
  std::cout << "  hardware_concurrency = "
            << std::thread::hardware_concurrency()
            << ", default workers = " << default_workers << "\n";

  std::vector<int> configs{1, 2};
  if (default_workers != 1 && default_workers != 2) {
    configs.push_back(default_workers);
  }

  // throughput[config][op] in GStencil/s (cells updated per second).
  // Two interleaved passes, best kept, so no config systematically
  // benefits from running on a warmer core than the others.
  std::vector<std::vector<double>> gsps(
      configs.size(), std::vector<double>(arch::kNumOps, 0.0));
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      exec::configure_default_engine(configs[ci]);
      for (int opi = 0; opi < arch::kNumOps; ++opi) {
        const auto op = static_cast<arch::Op>(opi);
        const double secs = bench::measure_host_kernel(op, n, bdim, 9);
        const double points =
            arch::points_for(op, static_cast<double>(n) * n * n);
        gsps[ci][static_cast<std::size_t>(opi)] =
            std::max(gsps[ci][static_cast<std::size_t>(opi)],
                     points / secs / 1e9);
      }
    }
  }
  // Restore the environment-selected default for whatever runs next.
  exec::configure_default_engine(default_workers);

  std::vector<std::string> headers{"op"};
  for (const int workers : configs)
    headers.push_back("pool-" + std::to_string(workers));
  Table t(headers);
  for (int opi = 0; opi < arch::kNumOps; ++opi) {
    auto& row = t.row().cell(arch::op_name(static_cast<arch::Op>(opi)));
    for (std::size_t ci = 0; ci < configs.size(); ++ci)
      row.cell(gsps[ci][static_cast<std::size_t>(opi)], 3);
  }
  t.print();
  t.write_csv("bench/out/micro_runtime.csv");
  bench::note(
      "  pool-N runs the persistent engine with N workers. On a\n"
      "  single-core host pool-1 takes the serial fast path.");

  // --- cross-stage fusion: fused descent vs the sum of its split
  // stages (DESIGN.md §16), at the default worker count. Throughput
  // counts the same stencil updates for both schedules (fine
  // smooth+residual points plus coarse restriction points), so the
  // GStencil/s ratio IS the wall-time ratio.
  bench::section(
      "Fused descent — one-pass smooth+residual+restriction vs the "
      "split stages, 64^3, bricks 8^3, default workers");
  const bench::FusedDescentTimes fd = bench::measure_fused_descent(n, bdim, 9);
  const double descent_points =
      static_cast<double>(n) * n * n +
      static_cast<double>(n / 2) * (n / 2) * (n / 2);
  const double split_gsps = descent_points / fd.split_sum() / 1e9;
  const double fused_gsps = descent_points / fd.fused / 1e9;
  Table ft({"schedule", "wall_s", "GStencil/s"});
  ft.row()
      .cell("split smooth+residual")
      .cell(fd.split_smooth_residual, 6)
      .cell("");
  ft.row().cell("split restriction").cell(fd.split_restriction, 6).cell("");
  ft.row().cell("split sum").cell(fd.split_sum(), 6).cell(split_gsps, 3);
  ft.row().cell("fused").cell(fd.fused, 6).cell(fused_gsps, 3);
  ft.print();
  ft.write_csv("bench/out/micro_runtime_fused.csv");
  bench::note("  fused/split speedup = " +
              std::to_string(fd.split_sum() / fd.fused));

  // --- one-pass Jacobi sweep (DESIGN.md §16): A*x in registers and
  // x' written to a spare buffer, vs the paper's applyOp then smooth
  // (+residual) pair, at the default worker count.
  bench::section(
      "One-pass Jacobi sweep — applyOp+smooth in one pass per brick vs "
      "the two-pass pair, 64^3, bricks 8^3, default workers");
  const bench::JacobiSweepTimes js = bench::measure_jacobi_sweep(n, bdim, 25);
  const double cells = static_cast<double>(n) * n * n;
  Table jt({"sweep", "two-pass wall_s", "one-pass wall_s", "speedup",
            "one-pass GStencil/s"});
  jt.row()
      .cell("x update")
      .cell(js.two_pass, 6)
      .cell(js.one_pass, 6)
      .cell(js.two_pass / js.one_pass, 3)
      .cell(cells / js.one_pass / 1e9, 3);
  jt.row()
      .cell("x update + residual")
      .cell(js.two_pass_residual, 6)
      .cell(js.one_pass_residual, 6)
      .cell(js.two_pass_residual / js.one_pass_residual, 3)
      .cell(cells / js.one_pass_residual / 1e9, 3);
  jt.print();
  jt.write_csv("bench/out/micro_runtime_jacobi_sweep.csv");

  // --- the serve shapes: 4^3 bricks at 16^3 and 32^3, where every
  // launch is a single chunk run on the calling thread.
  bench::section(
      "Serve-shaped sweep — applyOp and the one-pass Jacobi sweep per "
      "launch, bricks 4^3, 2000 back-to-back launches per timing");
  struct ServeSweep {
    index_t n;
    bench::LaunchTimes t;
  };
  std::vector<ServeSweep> serve_sweeps;
  for (const index_t sn : {index_t{16}, index_t{32}})
    serve_sweeps.push_back({sn, bench::measure_sweep_launches(sn, 4, 2000, 3)});
  Table st({"level", "op", "us/launch", "GStencil/s"});
  for (const ServeSweep& ss : serve_sweeps) {
    const double sc = static_cast<double>(ss.n) * ss.n * ss.n;
    const std::string level = std::to_string(ss.n) + "^3";
    st.row()
        .cell(level)
        .cell("applyOp")
        .cell(ss.t.apply_op * 1e6, 2)
        .cell(sc / ss.t.apply_op / 1e9, 3);
    st.row()
        .cell(level)
        .cell("one-pass sweep")
        .cell(ss.t.one_pass * 1e6, 2)
        .cell(sc / ss.t.one_pass / 1e9, 3);
  }
  st.print();
  st.write_csv("bench/out/micro_runtime_serve_sweep.csv");

  // --- setup-time schedule verification (DESIGN.md §18): what the
  // static proof costs relative to the solver setup it rides on. The
  // ctor hook is disabled so the record+verify phases are timed
  // separately from hierarchy construction; the proof covers both the
  // V-cycle and FMG schedules, exactly what the constructor proves.
  bench::section(
      "Schedule verification overhead — record + prove the planned "
      "V-cycle/FMG launch sequences vs solver setup, 128^3, bricks 8^3");
  const bool verify_was = check::verify_schedule_enabled();
  check::set_verify_schedule_enabled(false);
  const index_t vn = 128;  // production-shape setup: allocation,
                           // first-touch and plan builds dominate
  double setup_s = 1e300, proof_s = 1e300;
  std::size_t proof_steps = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const CartDecomp decomp({vn, vn, vn}, {1, 1, 1});
    Timer tm;
    GmgSolver solver(GmgOptions{}, decomp, 0);
    setup_s = std::min(setup_s, tm.elapsed());
    tm.restart();
    const check::Schedule sched = record_solver_schedule(solver);
    const check::Schedule fmg = record_fmg_schedule(solver);
    check::ScheduleVerifier().verify(sched);
    check::ScheduleVerifier().verify(fmg);
    proof_s = std::min(proof_s, tm.elapsed());
    proof_steps = sched.steps.size() + fmg.steps.size();
  }
  check::set_verify_schedule_enabled(verify_was);
  const double verify_pct = 100.0 * proof_s / setup_s;
  Table vt({"phase", "wall_s"});
  vt.row().cell("solver setup").cell(setup_s, 6);
  vt.row().cell("record + prove").cell(proof_s, 6);
  vt.print();
  bench::note("  proof overhead = " + std::to_string(verify_pct) +
              "% of setup over " + std::to_string(proof_steps) +
              " schedule steps (budget: 5%)");

  std::ofstream os("BENCH_kernel_runtime.json");
  os << "{\n  \"bench\": \"micro_runtime\",\n"
     << "  \"n\": " << n << ",\n  \"brick_dim\": " << bdim << ",\n"
     << "  \"hardware_concurrency\": "
     << std::thread::hardware_concurrency() << ",\n"
     << "  \"default_workers\": " << default_workers << ",\n"
     << "  \"unit\": \"GStencil/s\",\n"
     << "  \"fused_descent\": {\n"
     << "    \"split_smooth_residual_s\": " << fd.split_smooth_residual
     << ",\n"
     << "    \"split_restriction_s\": " << fd.split_restriction << ",\n"
     << "    \"split_sum_s\": " << fd.split_sum() << ",\n"
     << "    \"fused_s\": " << fd.fused << ",\n"
     << "    \"split_gstencil_per_s\": " << split_gsps << ",\n"
     << "    \"fused_gstencil_per_s\": " << fused_gsps << ",\n"
     << "    \"fused_over_split_speedup\": " << fd.split_sum() / fd.fused
     << "\n  },\n"
     << "  \"jacobi_sweep\": {\n"
     << "    \"two_pass_s\": " << js.two_pass << ",\n"
     << "    \"one_pass_s\": " << js.one_pass << ",\n"
     << "    \"two_pass_residual_s\": " << js.two_pass_residual << ",\n"
     << "    \"one_pass_residual_s\": " << js.one_pass_residual << ",\n"
     << "    \"one_pass_speedup\": " << js.two_pass / js.one_pass << ",\n"
     << "    \"one_pass_residual_speedup\": "
     << js.two_pass_residual / js.one_pass_residual << "\n  },\n"
     << "  \"serve_sweep\": [\n";
  for (std::size_t i = 0; i < serve_sweeps.size(); ++i) {
    const ServeSweep& ss = serve_sweeps[i];
    const double sc = static_cast<double>(ss.n) * ss.n * ss.n;
    os << "    {\"n\": " << ss.n << ", \"brick_dim\": 4"
       << ", \"apply_op_s\": " << ss.t.apply_op
       << ", \"one_pass_s\": " << ss.t.one_pass
       << ", \"apply_op_gstencil_per_s\": " << sc / ss.t.apply_op / 1e9
       << ", \"one_pass_gstencil_per_s\": " << sc / ss.t.one_pass / 1e9
       << "}" << (i + 1 < serve_sweeps.size() ? ",\n" : "\n");
  }
  os << "  ],\n"
     << "  \"schedule_verify\": {\n"
     << "    \"setup_s\": " << setup_s << ",\n"
     << "    \"proof_s\": " << proof_s << ",\n"
     << "    \"proof_steps\": " << proof_steps << ",\n"
     << "    \"overhead_pct\": " << verify_pct << ",\n"
     << "    \"budget_pct\": 5\n  },\n"
     << "  \"configs\": [\n";
  for (std::size_t ci = 0; ci < configs.size(); ++ci) {
    os << "    {\"label\": \"pool-" << configs[ci]
       << "\", \"workers\": " << configs[ci] << ", \"ops\": {";
    for (int opi = 0; opi < arch::kNumOps; ++opi) {
      os << "\"" << arch::op_name(static_cast<arch::Op>(opi))
         << "\": " << gsps[ci][static_cast<std::size_t>(opi)]
         << (opi + 1 < arch::kNumOps ? ", " : "");
    }
    os << "}}" << (ci + 1 < configs.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "  wrote BENCH_kernel_runtime.json\n";
  bench::finish_trace(trace_out);
  return 0;
}

#include "bench/bench_util.hpp"

#include <algorithm>
#include <functional>

#include "common/options.hpp"
#include "gmg/fused_kernels.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"

namespace gmg::bench {

namespace {

struct KernelFixture {
  BrickedArray x, b, Ax, r, coarse;
  real_t alpha, beta, gamma;

  static index_t coarse_brick_dim(index_t n, index_t bdim) {
    for (index_t c : {index_t{8}, index_t{4}, index_t{2}}) {
      if (c <= bdim && c <= n / 2 && (n / 2) % c == 0) return c;
    }
    return 2;
  }

  explicit KernelFixture(index_t n, index_t bdim)
      : x(BrickedArray::create({n, n, n}, BrickShape::cube(bdim))),
        b(x.grid_ptr(), x.shape()),
        Ax(x.grid_ptr(), x.shape()),
        r(x.grid_ptr(), x.shape()),
        coarse(BrickedArray::create(
            {n / 2, n / 2, n / 2},
            BrickShape::cube(coarse_brick_dim(n, bdim)))) {
    const real_t h = 1.0 / static_cast<real_t>(n);
    alpha = -6.0 / (h * h);
    beta = 1.0 / (h * h);
    gamma = h * h / 12.0;
    for_each(Box::from_extent({n, n, n}), [&](index_t i, index_t j, index_t k) {
      x(i, j, k) = 0.25 * static_cast<real_t>((i * 7 + j * 3 + k) % 11);
      b(i, j, k) = 0.5 * static_cast<real_t>((i + j * 5 + k * 2) % 7);
    });
    x.fill_ghosts_periodic();
    b.fill_ghosts_periodic();
  }
};

}  // namespace

double measure_host_kernel(arch::Op op, index_t n, index_t bdim,
                           int repetitions) {
  KernelFixture f(n, bdim);
  const Box interior = Box::from_extent({n, n, n});
  const auto run = [&] {
    switch (op) {
      case arch::Op::kApplyOp:
        apply_op(f.Ax, f.x, f.alpha, f.beta, interior);
        break;
      case arch::Op::kSmooth:
        smooth(f.x, f.Ax, f.b, f.gamma, interior);
        break;
      case arch::Op::kSmoothResidual:
        smooth_residual(f.x, f.r, f.Ax, f.b, f.gamma, interior);
        break;
      case arch::Op::kRestriction:
        restriction(f.coarse, f.r);
        break;
      case arch::Op::kInterpIncrement:
        interpolation_increment(f.x, f.coarse);
        break;
      default:
        GMG_REQUIRE(false, "unknown op");
    }
  };
  run();  // warm-up (and page-fault the fields)
  double best = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    Timer t;
    run();
    best = std::min(best, t.elapsed());
  }
  return best;
}

FusedDescentTimes measure_fused_descent(index_t n, index_t bdim,
                                        int repetitions) {
  KernelFixture f(n, bdim);
  GMG_REQUIRE(f.r.shape() == f.coarse.shape(),
              "fused descent bench needs equal brick shapes on both levels");
  const Box interior = Box::from_extent({n, n, n});
  const auto run_split = [&] {
    smooth_residual(f.x, f.r, f.Ax, f.b, f.gamma, interior);
    restriction(f.coarse, f.r);
  };
  const auto run_fused = [&] {
    fused::smooth_residual_restrict(f.x, f.r, f.coarse, f.Ax, f.b, f.gamma,
                                    interior);
  };
  // Warm up both paths, then interleave the timed passes so neither
  // schedule systematically sees a warmer cache.
  run_split();
  run_fused();
  FusedDescentTimes out;
  out.split_smooth_residual = 1e30;
  out.split_restriction = 1e30;
  out.fused = 1e30;
  for (int rep = 0; rep < repetitions; ++rep) {
    {
      Timer t;
      smooth_residual(f.x, f.r, f.Ax, f.b, f.gamma, interior);
      out.split_smooth_residual = std::min(out.split_smooth_residual,
                                           t.elapsed());
    }
    {
      Timer t;
      restriction(f.coarse, f.r);
      out.split_restriction = std::min(out.split_restriction, t.elapsed());
    }
    {
      Timer t;
      run_fused();
      out.fused = std::min(out.fused, t.elapsed());
    }
  }
  return out;
}

JacobiSweepTimes measure_jacobi_sweep(index_t n, index_t bdim,
                                      int repetitions) {
  KernelFixture f(n, bdim);
  BrickedArray x_next(f.x.grid_ptr(), f.x.shape());
  const Box interior = Box::from_extent({n, n, n});
  const std::function<void()> runs[4] = {
      [&] {
        apply_op(f.Ax, f.x, f.alpha, f.beta, interior);
        smooth(f.x, f.Ax, f.b, f.gamma, interior);
      },
      [&] {
        fused::jacobi_sweep(x_next, nullptr, nullptr, f.x, f.b, f.alpha,
                            f.beta, f.gamma, interior);
      },
      [&] {
        apply_op(f.Ax, f.x, f.alpha, f.beta, interior);
        smooth_residual(f.x, f.r, f.Ax, f.b, f.gamma, interior);
      },
      [&] {
        fused::jacobi_sweep(x_next, &f.r, nullptr, f.x, f.b, f.alpha, f.beta,
                            f.gamma, interior);
      }};
  double best[4] = {1e30, 1e30, 1e30, 1e30};
  for (const auto& run : runs) run();  // warm-up
  for (int rep = 0; rep < repetitions; ++rep) {
    for (int v = 0; v < 4; ++v) {
      Timer t;
      runs[v]();
      best[v] = std::min(best[v], t.elapsed());
    }
  }
  return JacobiSweepTimes{best[0], best[1], best[2], best[3]};
}

LaunchTimes measure_sweep_launches(index_t n, index_t bdim, int launches,
                                   int repetitions) {
  GMG_REQUIRE(launches > 0 && launches % 2 == 0,
              "sweep launches come in swap pairs");
  KernelFixture f(n, bdim);
  BrickedArray x_next(f.x.grid_ptr(), f.x.shape());
  const Box interior = Box::from_extent({n, n, n});
  const auto apply = [&] {
    for (int l = 0; l < launches; ++l)
      apply_op(f.Ax, f.x, f.alpha, f.beta, interior);
  };
  const auto sweep = [&] {
    for (int l = 0; l < launches; l += 2) {
      fused::jacobi_sweep(x_next, nullptr, nullptr, f.x, f.b, f.alpha,
                          f.beta, f.gamma, interior);
      fused::jacobi_sweep(f.x, nullptr, nullptr, x_next, f.b, f.alpha,
                          f.beta, f.gamma, interior);
    }
  };
  apply();  // warm-up
  sweep();
  LaunchTimes best{1e30, 1e30};
  for (int rep = 0; rep < repetitions; ++rep) {
    Timer t;
    apply();
    best.apply_op = std::min(best.apply_op, t.elapsed() / launches);
    t.restart();
    sweep();
    best.one_pass = std::min(best.one_pass, t.elapsed() / launches);
  }
  return best;
}

arch::ArchSpec calibrated_host(index_t n) {
  arch::ArchSpec host = arch::host_cpu();
  const index_t bdim = host.brick_dim;
  const std::uint64_t cache_bytes =
      static_cast<std::uint64_t>(host.l2_cache_mb * 1024 * 1024);
  for (int opi = 0; opi < arch::kNumOps; ++opi) {
    const auto op = static_cast<arch::Op>(opi);
    const double secs = measure_host_kernel(op, n, bdim);
    const double points =
        arch::points_for(op, static_cast<double>(n) * n * n);
    const double achieved_gbs =
        points * arch::bytes_per_point(op) / secs / 1e9;
    host.frac_roofline[opi] =
        std::min(1.0, achieved_gbs / host.hbm_measured_gbs);

    // Fraction of theoretical AI: compulsory vs finite-cache traffic
    // from the address-trace simulator on a smaller replay grid.
    const index_t sim_n = 32;
    const auto compulsory = perf::measure_movement(
        op, perf::Layout::kBrick, sim_n, bdim, 0, host.cache_line_bytes);
    const auto actual =
        perf::measure_movement(op, perf::Layout::kBrick, sim_n, bdim,
                               cache_bytes, host.cache_line_bytes);
    host.frac_theoretical_ai[opi] =
        static_cast<double>(compulsory.bytes) /
        static_cast<double>(actual.bytes);
  }
  return host;
}

std::string parse_trace_out(Options& opts, int argc,
                            const char* const argv[], const char* program) {
  opts.add_flag("trace-out",
                "write Chrome trace-event JSON (and a .metrics.json "
                "sidecar) to this path; load in ui.perfetto.dev");
  try {
    opts.parse(argc, argv);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n" << opts.help(program);
    std::exit(2);
  }
  return opts.has("trace-out") ? opts.get("trace-out") : std::string();
}

std::string parse_trace_out(int argc, const char* const argv[],
                            const char* program) {
  Options opts;
  return parse_trace_out(opts, argc, argv, program);
}

void finish_trace(const std::string& path) {
  if (path.empty()) return;
  const trace::Snapshot snap = trace::collect();
  trace::write_chrome_trace_file(snap, path);
  std::string metrics_path = path;
  const std::string json = ".json";
  if (metrics_path.size() >= json.size() &&
      metrics_path.compare(metrics_path.size() - json.size(), json.size(),
                           json) == 0) {
    metrics_path.resize(metrics_path.size() - json.size());
  }
  metrics_path += ".metrics.json";
  trace::write_metrics_json_file(trace::summarize(snap), metrics_path);
  std::cout << "\nwrote trace:   " << path
            << " (load in ui.perfetto.dev or chrome://tracing)\n"
            << "wrote metrics: " << metrics_path << "\n";
}

}  // namespace gmg::bench

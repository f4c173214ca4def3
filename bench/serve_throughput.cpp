// Serve-layer benchmark: cold hierarchy setup vs cached-hierarchy
// request latency, and sustained solve throughput at 1/4/8 concurrent
// clients against one SolveService. The cold/cached gap is the payoff
// of the hierarchy cache (setup, field allocation, and first-touch
// costs paid once per problem shape, not per request).
// Writes BENCH_serve_throughput.json; smoke-run by ci/tier1.sh.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "serve/service.hpp"

using namespace gmg;
using namespace gmg::serve;

namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

GmgOptions bench_options() {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 6;
  o.bottom_smooths = 30;
  o.tolerance = 1e-8;
  o.max_vcycles = 40;
  o.brick = BrickShape::cube(4);
  return o;
}

SolveRequest bench_request() {
  SolveRequest req;
  req.domain.global_extent = {32, 32, 32};
  req.rhs = sine_rhs;
  req.tolerance = 1e-8;
  req.max_vcycles = 40;
  req.return_solution = false;  // measure the solve, not the copy-out
  return req;
}

/// Nearest-rank percentile of ascending `sorted` (0 when empty).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  return sorted[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
}

struct ClientPoint {
  int clients = 0;
  int requests = 0;
  double seconds = 0;
  double req_per_s = 0;
};

/// One point of the coalescer sweep: the same offered load (8 clients,
/// fixed request count) served with the operator's max_batch at K.
struct BatchPoint {
  int max_batch = 0;
  int requests = 0;
  double seconds = 0;
  double req_per_s = 0;
  std::uint64_t batch_solves = 0;
  std::uint64_t batch_requests = 0;
  double occupancy = 0;
};

/// Coalescing pays where fixed per-request costs (world spin-up,
/// per-sweep exchange/dispatch machinery) dominate the arithmetic, so
/// the sweep runs a small domain; K requests then ride one V-cycle
/// schedule instead of K.
BatchPoint run_batch_point(int max_batch) {
  // Tiny requests, deep hierarchy, small bricks: per-sweep fixed costs
  // (exchange rounds, kernel dispatch) dwarf the arithmetic — the
  // regime coalescing targets.
  GmgOptions o;
  o.levels = 3;
  o.smooths = 6;
  o.bottom_smooths = 30;
  o.tolerance = 1e-8;
  o.max_vcycles = 40;
  o.brick = BrickShape::cube(2);
  o.max_batch = max_batch;

  ServeConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 64;
  // Closed-loop clients resubmit the moment a batch retires, so the
  // whole burst lands within a fraction of a millisecond; a long hold
  // would only add idle time to every batch.
  cfg.max_batch_hold_seconds = 0.0005;
  SolveService service(cfg);
  service.register_operator("poisson", o);

  SolveRequest req;
  req.domain.global_extent = {8, 8, 8};
  req.rhs = sine_rhs;
  req.tolerance = 1e-8;
  req.max_vcycles = 40;
  req.return_solution = false;

  // Warm the hierarchy cache; the sweep measures steady-state serving.
  const RequestResult warm = service.submit(req).get();
  if (warm.status != RequestStatus::kDone) {
    std::cerr << "batch warm-up failed: " << status_name(warm.status) << "\n";
    std::exit(1);
  }
  // Warm the K-wide batched solver too (built lazily on the first
  // coalesced batch): one untimed burst of max_batch requests.
  if (max_batch > 1) {
    std::vector<std::thread> warmers;
    warmers.reserve(static_cast<std::size_t>(max_batch));
    for (int c = 0; c < max_batch; ++c) {
      warmers.emplace_back([&] { service.submit(req).wait(); });
    }
    for (auto& th : warmers) th.join();
  }

  constexpr int kClients = 8;
  constexpr int kPerClient = 24;
  BatchPoint p;
  p.max_batch = max_batch;
  p.requests = kClients * kPerClient;
  // Best of two passes: the service is in steady state, so the runs
  // differ only by scheduler noise.
  p.seconds = 0;
  for (int pass = 0; pass < 2; ++pass) {
    Timer t;
    {
      std::vector<std::thread> threads;
      threads.reserve(kClients);
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&] {
          for (int i = 0; i < kPerClient; ++i) service.submit(req).wait();
        });
      }
      for (auto& th : threads) th.join();
    }
    const double s = t.elapsed();
    if (p.seconds == 0 || s < p.seconds) p.seconds = s;
  }
  p.req_per_s = static_cast<double>(p.requests) / p.seconds;
  const ServiceStats stats = service.stats();
  p.batch_solves = stats.batch_solves;
  p.batch_requests = stats.batch_requests;
  p.occupancy = stats.batch_solves
                    ? static_cast<double>(stats.batch_requests) /
                          static_cast<double>(stats.batch_solves)
                    : 0.0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_out =
      bench::parse_trace_out(argc, argv, "serve_throughput");

  ServeConfig cfg;
  cfg.executors = 2;
  cfg.queue_capacity = 32;
  SolveService service(cfg);
  service.register_operator("poisson", bench_options());
  const SolveRequest req = bench_request();

  bench::section(
      "Solve service — cold vs cached request latency, 32^3 Poisson, "
      "bricks 4^3, 3 levels");

  // Request #1 pays hierarchy construction; #2..#K reuse the cached
  // hierarchy and its fields.
  const RequestResult cold = service.submit(req).get();
  if (cold.status != RequestStatus::kDone) {
    std::cerr << "cold solve failed: " << status_name(cold.status) << " "
              << cold.error << "\n";
    return 1;
  }
  constexpr int kCachedRuns = 5;
  std::vector<double> cached_totals;
  for (int i = 0; i < kCachedRuns; ++i) {
    const RequestResult r = service.submit(req).get();
    if (r.status != RequestStatus::kDone || !r.cache_hit) {
      std::cerr << "cached solve " << i << " unexpected: "
                << status_name(r.status) << "\n";
      return 1;
    }
    cached_totals.push_back(r.total_seconds);
  }
  // Every request's total latency (submission to completion) on this
  // service, for the percentiles of the JSON.
  std::vector<double> latencies(cached_totals);
  latencies.push_back(cold.total_seconds);
  std::sort(cached_totals.begin(), cached_totals.end());
  const double cached_median = cached_totals[kCachedRuns / 2];

  Table lat({"request", "total_s", "setup_s", "solve_s", "vcycles"});
  lat.row()
      .cell("cold")
      .cell(cold.total_seconds, 4)
      .cell(cold.setup_seconds, 4)
      .cell(cold.solve_seconds, 4)
      .cell(static_cast<long>(cold.solve.vcycles));
  lat.row()
      .cell("cached(med)")
      .cell(cached_median, 4)
      .cell(0.0, 4)
      .cell(cached_median, 4)
      .cell(static_cast<long>(cold.solve.vcycles));
  lat.print();
  bench::note("  speedup(cold/cached) = " +
              std::to_string(cold.total_seconds / cached_median));

  bench::section("Solve service — throughput vs concurrent clients");
  std::vector<ClientPoint> points;
  for (int clients : {1, 4, 8}) {
    const int per_client = 3;
    ClientPoint p;
    p.clients = clients;
    p.requests = clients * per_client;
    std::mutex mu;
    Timer t;
    {
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
          for (int i = 0; i < per_client; ++i) {
            const double s = service.submit(req).get().total_seconds;
            std::lock_guard<std::mutex> lock(mu);
            latencies.push_back(s);
          }
        });
      }
      for (auto& th : threads) th.join();
    }
    p.seconds = t.elapsed();
    p.req_per_s = static_cast<double>(p.requests) / p.seconds;
    points.push_back(p);
  }

  Table tput({"clients", "requests", "wall_s", "req/s"});
  for (const ClientPoint& p : points) {
    tput.row()
        .cell(static_cast<long>(p.clients))
        .cell(static_cast<long>(p.requests))
        .cell(p.seconds, 3)
        .cell(p.req_per_s, 2);
  }
  tput.print();
  tput.write_csv("bench/out/serve_throughput.csv");

  bench::section(
      "Batch coalescing — 8 clients, 8^3 Poisson, max_batch sweep");
  std::vector<BatchPoint> batch_points;
  for (int k : {1, 2, 4, 8}) batch_points.push_back(run_batch_point(k));

  Table bt({"max_batch", "requests", "wall_s", "req/s", "batches",
            "occupancy", "speedup"});
  const double base_rps = batch_points.front().req_per_s;
  for (const BatchPoint& p : batch_points) {
    bt.row()
        .cell(static_cast<long>(p.max_batch))
        .cell(static_cast<long>(p.requests))
        .cell(p.seconds, 3)
        .cell(p.req_per_s, 2)
        .cell(static_cast<long>(p.batch_solves))
        .cell(p.occupancy, 2)
        .cell(p.req_per_s / base_rps, 2);
  }
  bt.print();
  bt.write_csv("bench/out/serve_batch_sweep.csv");

  const ServiceStats stats = service.stats();
  std::sort(latencies.begin(), latencies.end());
  std::cout << "serve: done=" << stats.completed << " rejected="
            << stats.rejected << " queue high water " << stats.queue_high_water
            << "; cache hits=" << stats.cache.hits
            << " misses=" << stats.cache.misses
            << " hit_ratio=" << stats.cache.hit_ratio() << "; latency p50="
            << percentile(latencies, 0.50) << "s p99="
            << percentile(latencies, 0.99) << "s\n";

  std::ofstream os("BENCH_serve_throughput.json");
  os << "{\n  \"bench\": \"serve_throughput\",\n"
     << "  \"n\": 32,\n  \"brick_dim\": 4,\n  \"levels\": 3,\n"
     << "  \"cold_seconds\": " << cold.total_seconds << ",\n"
     << "  \"cold_setup_seconds\": " << cold.setup_seconds << ",\n"
     << "  \"cached_median_seconds\": " << cached_median << ",\n"
     << "  \"cold_over_cached\": " << cold.total_seconds / cached_median
     << ",\n"
     << "  \"cache_hit_ratio\": " << stats.cache.hit_ratio() << ",\n"
     << "  \"latency_p50_seconds\": " << percentile(latencies, 0.50) << ",\n"
     << "  \"latency_p99_seconds\": " << percentile(latencies, 0.99) << ",\n"
     << "  \"latency_p999_seconds\": " << percentile(latencies, 0.999)
     << ",\n"
     << "  \"clients\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ClientPoint& p = points[i];
    os << "    {\"clients\": " << p.clients << ", \"requests\": "
       << p.requests << ", \"seconds\": " << p.seconds
       << ", \"req_per_s\": " << p.req_per_s << "}"
       << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"batch_sweep_n\": 8,\n  \"batch_sweep_clients\": 8,\n"
     << "  \"batch\": [\n";
  for (std::size_t i = 0; i < batch_points.size(); ++i) {
    const BatchPoint& p = batch_points[i];
    os << "    {\"max_batch\": " << p.max_batch
       << ", \"requests\": " << p.requests << ", \"seconds\": " << p.seconds
       << ", \"req_per_s\": " << p.req_per_s
       << ", \"batch_solves\": " << p.batch_solves
       << ", \"batch_requests\": " << p.batch_requests
       << ", \"occupancy\": " << p.occupancy
       << ", \"speedup_vs_unbatched\": " << p.req_per_s / base_rps << "}"
       << (i + 1 < batch_points.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "  wrote BENCH_serve_throughput.json\n";
  bench::finish_trace(trace_out);
  return 0;
}

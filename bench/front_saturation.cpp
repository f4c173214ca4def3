// Front-tier saturation benchmark: open-loop Poisson arrivals against
// the socket front at 0.5x / 1x / 2x / 4x the estimated saturation
// rate. Open-loop is the honest overload test — the sender does not
// slow down when the server backs up, so without admission control
// queue bloat would push accepted-request latency unbounded and
// goodput off a cliff. With the front's cost-aware shedding the
// expected shape is: goodput holds at capacity while excess arrivals
// are rejected in microseconds, and the latency of *accepted*
// requests stays flat (p99 within ~2x the uncontended cached-solve
// p50). Writes BENCH_front_saturation.json; ci/tier1.sh smoke-runs
// the front via serve_front --smoke.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "front/client.hpp"
#include "front/front_server.hpp"
#include "trace/trace.hpp"

using namespace gmg;
namespace wire = gmg::front::wire;

namespace {

constexpr index_t kN = 32;

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

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct FactorPoint {
  double factor = 0;
  double lambda = 0;  // arrivals per second
  int sent = 0;
  int accepted = 0;  // completed kDone
  int rejected = 0;  // shed with a reject frame
  int other = 0;     // failed/expired (should stay 0)
  double elapsed = 0;
  double goodput = 0;  // accepted completions per second
  double p50 = 0, p99 = 0, p999 = 0;  // accepted-request latency
};

/// One open-loop run: `count` submits with exponential interarrival
/// times at rate `lambda`, a reader thread collecting every response.
FactorPoint run_factor(front::FrontClient& client,
                       const std::vector<real_t>& rhs_samples, double factor,
                       double lambda, int count, Rng& rng) {
  FactorPoint pt;
  pt.factor = factor;
  pt.lambda = lambda;
  pt.sent = count;

  std::vector<std::uint64_t> sent_ns(static_cast<std::size_t>(count), 0);
  std::vector<double> accepted_latency;
  std::atomic<std::uint64_t> last_event_ns{0};

  std::thread reader([&] {
    front::FrontClient::Response r;
    for (int got = 0; got < count; ++got) {
      if (!client.read_response(&r, 120000)) {
        std::cerr << "reader: " << client.last_error() << "\n";
        std::exit(1);
      }
      const std::uint64_t now = trace::now_ns();
      last_event_ns.store(now, std::memory_order_relaxed);
      const std::size_t idx = static_cast<std::size_t>(r.request_id - 1);
      if (r.rejected) {
        ++pt.rejected;
        continue;
      }
      if (static_cast<serve::RequestStatus>(r.result.status) ==
          serve::RequestStatus::kDone) {
        ++pt.accepted;
        accepted_latency.push_back(
            static_cast<double>(now - sent_ns[idx]) * 1e-9);
      } else {
        ++pt.other;
      }
    }
  });

  wire::SubmitFrame sf;
  sf.global_extent = {kN, kN, kN};
  sf.rhs_samples = rhs_samples;
  sf.return_solution = false;
  const std::uint64_t t0 = trace::now_ns();
  for (int i = 0; i < count; ++i) {
    sf.request_id = static_cast<std::uint64_t>(i) + 1;
    sent_ns[static_cast<std::size_t>(i)] = trace::now_ns();
    client.send_submit(sf);
    // Exponential interarrival: open-loop, independent of responses.
    const double u = std::max(1e-12, 0.5 * (rng.uniform() + 1.0));
    const double dt = -std::log(u) / lambda;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(static_cast<std::int64_t>(dt * 1e9)));
  }
  reader.join();

  pt.elapsed =
      static_cast<double>(last_event_ns.load() - t0) * 1e-9;
  pt.goodput = pt.elapsed > 0 ? pt.accepted / pt.elapsed : 0;
  pt.p50 = percentile(accepted_latency, 0.50);
  pt.p99 = percentile(accepted_latency, 0.99);
  pt.p999 = percentile(accepted_latency, 0.999);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_out =
      bench::parse_trace_out(argc, argv, "front_saturation");

  // Concurrency that the hardware cannot actually run in parallel
  // only dilates every accepted request's latency (two solves on one
  // core each take twice as long for zero extra throughput), so each
  // shard runs one solve at a time: inflight 1 per shard, and a request
  // the busy ring shard sheds moves along its walk to the other shard.
  front::FrontConfig cfg;
  cfg.shards = 2;
  cfg.shard.executors = 1;
  cfg.shard.cache_capacity = 4;
  // Inflight cap == executors: an accepted request never waits behind
  // a queue, so accepted-latency percentiles stay near the
  // uncontended solve time and overload turns into fast sheds.
  cfg.admission.max_inflight =
      static_cast<std::size_t>(cfg.shard.executors);
  front::FrontServer server(cfg);
  server.register_operator("poisson", bench_options());

  std::filesystem::create_directories("bench/out");
  const std::string sock = "bench/out/front_saturation.sock";
  server.listen_unix(sock);

  front::FrontClient client;
  client.connect_unix(sock);

  const std::vector<real_t> rhs_samples =
      wire::sample_rhs({kN, kN, kN}, sine_rhs);

  bench::section("Front tier — warm caches on every shard");
  // Warm every shard directly, so a request placed off its ring shard
  // also hits a warm hierarchy.
  {
    serve::SolveRequest req;
    req.domain.global_extent = {kN, kN, kN};
    req.rhs = sine_rhs;
    req.return_solution = false;
    for (int s = 0; s < server.num_shards(); ++s) {
      const serve::RequestResult r =
          server.shard_service(s).submit(req).get();
      if (r.status != serve::RequestStatus::kDone) {
        std::cerr << "warmup shard " << s << " failed: "
                  << serve::status_name(r.status) << " " << r.error << "\n";
        return 1;
      }
    }
  }

  bench::section("Front tier — cached solve baseline over the socket");
  std::vector<double> base_latency;
  {
    wire::SubmitFrame sf;
    sf.global_extent = {kN, kN, kN};
    sf.rhs_samples = rhs_samples;
    sf.return_solution = false;
    for (int i = 0; i < 12; ++i) {
      sf.request_id = static_cast<std::uint64_t>(i) + 1;
      const std::uint64_t t0 = trace::now_ns();
      const front::FrontClient::Response r = client.submit_and_wait(sf, 60000);
      if (r.rejected) {
        std::cerr << "baseline rejected: " << r.reject.detail << "\n";
        return 1;
      }
      if (i >= 2)  // discard warm-in iterations
        base_latency.push_back(
            static_cast<double>(trace::now_ns() - t0) * 1e-9);
    }
  }
  const double cached_p50 = percentile(base_latency, 0.50);

  // Measured saturation: as many back-to-back solve streams as the
  // hardware can genuinely run concurrently (one per shard, capped by
  // core count). Concurrent solves contend for cores and memory
  // bandwidth, so an analytic executors/p50 estimate would overshoot
  // the real capacity substantially.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double saturation = 0;
  {
    serve::SolveRequest req;
    req.domain.global_extent = {kN, kN, kN};
    req.rhs = sine_rhs;
    req.return_solution = false;
    const int streams =
        std::min(server.num_shards(), static_cast<int>(hw));
    // Stream 0 gets the router's shard for this problem shape, extra
    // streams the remaining shards.
    std::vector<int> targets;
    targets.push_back(server.shard_for(req.domain, "poisson"));
    for (int s = 0; s < server.num_shards() &&
                    static_cast<int>(targets.size()) < streams;
         ++s)
      if (s != targets[0]) targets.push_back(s);
    constexpr int kPerStream = 10;
    const std::uint64_t t0 = trace::now_ns();
    std::vector<std::thread> loops;
    for (const int target : targets) {
      loops.emplace_back([&, target] {
        for (int i = 0; i < kPerStream; ++i)
          server.shard_service(target).submit(req).wait();
      });
    }
    for (auto& th : loops) th.join();
    const double elapsed = static_cast<double>(trace::now_ns() - t0) * 1e-9;
    saturation = static_cast<double>(streams * kPerStream) / elapsed;
  }
  bench::note("  cached p50 = " + std::to_string(cached_p50) +
              " s; measured saturation = " + std::to_string(saturation) +
              " req/s (" + std::to_string(hw) + " hw threads)");

  bench::section(
      "Front tier — open-loop Poisson arrivals at 0.5x/1x/2x/4x saturation");
  Rng rng(0x5eedULL);
  std::vector<FactorPoint> points;
  for (const double factor : {0.5, 1.0, 2.0, 4.0}) {
    const int count = 60;
    points.push_back(run_factor(client, rhs_samples, factor,
                                factor * saturation, count, rng));
  }

  Table t({"factor", "lambda", "sent", "accepted", "rejected", "goodput",
           "p50_s", "p99_s", "p999_s"});
  for (const FactorPoint& p : points) {
    t.row()
        .cell(p.factor, 1)
        .cell(p.lambda, 1)
        .cell(static_cast<long>(p.sent))
        .cell(static_cast<long>(p.accepted))
        .cell(static_cast<long>(p.rejected))
        .cell(p.goodput, 2)
        .cell(p.p50, 4)
        .cell(p.p99, 4)
        .cell(p.p999, 4);
  }
  t.print();
  t.write_csv("bench/out/front_saturation.csv");

  const FactorPoint& at1 = points[1];
  const FactorPoint& at2 = points[2];
  const double goodput_ratio =
      at1.goodput > 0 ? at2.goodput / at1.goodput : 0;
  const double p99_over_base = cached_p50 > 0 ? at2.p99 / cached_p50 : 0;
  bench::note("  goodput(2x)/goodput(1x) = " + std::to_string(goodput_ratio));
  bench::note("  p99(accepted @2x)/cached_p50 = " +
              std::to_string(p99_over_base));

  const front::FrontStats fs = server.stats();
  std::cout << "  front: submits=" << fs.submits << " sheds=" << fs.sheds
            << " spills=" << fs.spills << "\n";

  std::ofstream os("BENCH_front_saturation.json");
  os << "{\n  \"bench\": \"front_saturation\",\n"
     << "  \"n\": " << kN << ",\n"
     << "  \"shards\": " << cfg.shards << ",\n"
     << "  \"executors_per_shard\": " << cfg.shard.executors << ",\n"
     << "  \"max_inflight_per_shard\": " << cfg.admission.max_inflight
     << ",\n"
     << "  \"cached_p50_seconds\": " << cached_p50 << ",\n"
     << "  \"saturation_req_per_s\": " << saturation << ",\n"
     << "  \"goodput_2x_over_1x\": " << goodput_ratio << ",\n"
     << "  \"accepted_p99_2x_over_cached_p50\": " << p99_over_base << ",\n"
     << "  \"spills\": " << fs.spills << ",\n"
     << "  \"factors\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const FactorPoint& p = points[i];
    os << "    {\"factor\": " << p.factor << ", \"lambda\": " << p.lambda
       << ", \"sent\": " << p.sent << ", \"accepted\": " << p.accepted
       << ", \"rejected\": " << p.rejected << ", \"other\": " << p.other
       << ", \"elapsed_seconds\": " << p.elapsed
       << ", \"goodput_req_per_s\": " << p.goodput
       << ", \"latency_p50_seconds\": " << p.p50
       << ", \"latency_p99_seconds\": " << p.p99
       << ", \"latency_p999_seconds\": " << p.p999 << "}"
       << (i + 1 < points.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  std::cout << "  wrote BENCH_front_saturation.json\n";

  client.close();
  server.stop();
  bench::finish_trace(trace_out);
  return 0;
}

// serve_front: stand-alone socket front for the sharded serve tier
// (DESIGN.md §14). Binds a Unix-domain or loopback TCP socket, routes
// submit frames across GMG_FRONT_SHARDS in-process shards with
// admission control, and serves until a signal (or --run-seconds)
// stops it. --smoke performs a self-contained round trip — start,
// connect, solve one request through the socket, verify, stop — and
// is what ci/tier1.sh runs.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "front/client.hpp"
#include "front/front_server.hpp"

using namespace gmg;
namespace wire = gmg::front::wire;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

GmgOptions default_operator() {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 6;
  o.bottom_smooths = 30;
  o.tolerance = 1e-8;
  o.max_vcycles = 40;
  o.brick = BrickShape::cube(4);
  return o;
}

int usage() {
  std::cerr
      << "usage: serve_front [--unix PATH | --tcp PORT] [--shards N]\n"
      << "                   [--max-inflight N] [--executors N]\n"
      << "                   [--run-seconds S] [--smoke]\n"
      << "  --unix PATH      listen on a Unix-domain socket at PATH\n"
      << "  --tcp PORT       listen on 127.0.0.1:PORT (0 = ephemeral)\n"
      << "  --shards N       in-process shards (env GMG_FRONT_SHARDS)\n"
      << "  --max-inflight N per-shard admission cap"
         " (env GMG_FRONT_MAX_INFLIGHT)\n"
      << "  --executors N    solve executors per shard\n"
      << "  --max-batch K    coalesce up to K compatible queued requests\n"
         "                   into one multi-RHS batched solve (default 1)\n"
      << "  --run-seconds S  serve for S seconds, then drain and exit\n"
      << "  --smoke          one client round trip through the socket,"
         " then exit\n";
  return 2;
}

void print_stats(const front::FrontServer& server) {
  const front::FrontStats s = server.stats();
  std::cout << "front: conns=" << s.connections_accepted
            << " submits=" << s.submits << " sheds=" << s.sheds
            << " spills=" << s.spills << " bad=" << s.bad_requests
            << " proto_err=" << s.protocol_errors << "\n";
  for (const auto& e : s.shards.shards) {
    const double occupancy =
        e.batch_solves ? static_cast<double>(e.batch_requests) /
                             static_cast<double>(e.batch_solves)
                       : 0.0;
    std::cout << "  shard " << e.shard_id << ": accepted=" << e.accepted
              << " completed=" << e.completed << " shed=" << e.shed_overload
              << " spilled_in=" << e.spilled_in
              << " cache_hit=" << e.cache_hit_ratio
              << " batch_solves=" << e.batch_solves
              << " batch_occupancy=" << occupancy << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string unix_path;
  int tcp_port = -1;
  double run_seconds = 0;
  bool smoke = false;
  int max_batch = 1;
  front::FrontConfig cfg = front::FrontConfig::from_env();

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "serve_front: " << what << " needs a value\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--unix") {
      unix_path = next("--unix");
    } else if (arg == "--tcp") {
      tcp_port = std::atoi(next("--tcp"));
    } else if (arg == "--shards") {
      cfg.shards = std::atoi(next("--shards"));
    } else if (arg == "--max-inflight") {
      cfg.admission.max_inflight =
          static_cast<std::size_t>(std::atoi(next("--max-inflight")));
    } else if (arg == "--executors") {
      cfg.shard.executors = std::atoi(next("--executors"));
    } else if (arg == "--max-batch") {
      max_batch = std::atoi(next("--max-batch"));
    } else if (arg == "--run-seconds") {
      run_seconds = std::atof(next("--run-seconds"));
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "serve_front: unknown flag " << arg << "\n";
      return usage();
    }
  }
  if (smoke && unix_path.empty() && tcp_port < 0) tcp_port = 0;
  if (unix_path.empty() && tcp_port < 0) {
    std::cerr << "serve_front: need --unix or --tcp\n";
    return usage();
  }

  front::FrontServer server(cfg);
  GmgOptions op = default_operator();
  op.max_batch = std::max(1, max_batch);
  server.register_operator("poisson", op);

  std::uint16_t bound_port = 0;
  if (!unix_path.empty()) {
    server.listen_unix(unix_path);
    std::cout << "serve_front: listening on unix:" << unix_path;
  } else {
    bound_port = server.listen_tcp(static_cast<std::uint16_t>(tcp_port));
    std::cout << "serve_front: listening on 127.0.0.1:" << bound_port;
  }
  std::cout << " (shards=" << server.num_shards()
            << ", max_inflight=" << cfg.admission.max_inflight << ")\n";

  if (smoke) {
    front::FrontClient client;
    if (!unix_path.empty()) {
      client.connect_unix(unix_path);
    } else {
      client.connect_tcp(bound_port);
    }
    if (!client.ping(42, 5000)) {
      std::cerr << "smoke: ping failed: " << client.last_error() << "\n";
      return 1;
    }
    wire::SubmitFrame sf;
    sf.request_id = 1;
    sf.global_extent = {16, 16, 16};
    sf.rhs_samples = wire::sample_rhs(
        sf.global_extent, [](real_t x, real_t y, real_t z) {
          return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
                 std::sin(2 * M_PI * z);
        });
    const front::FrontClient::Response r = client.submit_and_wait(sf, 30000);
    if (r.rejected) {
      std::cerr << "smoke: rejected: " << r.reject.detail << "\n";
      return 1;
    }
    if (static_cast<serve::RequestStatus>(r.result.status) !=
        serve::RequestStatus::kDone) {
      std::cerr << "smoke: status " << int(r.result.status) << " error "
                << r.result.error << "\n";
      return 1;
    }
    std::cout << "smoke: solved in " << r.result.vcycles
              << " vcycles, residual " << r.result.final_residual << "\n";
    server.stop();
    print_stats(server);
    std::cout << "smoke: OK\n";
    return 0;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  double served = 0;
  while (!g_stop && (run_seconds <= 0 || served < run_seconds)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    served += 0.1;
  }
  std::cout << "serve_front: draining\n";
  server.stop();
  print_stats(server);
  return 0;
}

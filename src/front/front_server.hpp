// FrontServer: the socket-fronted, sharded serve tier (DESIGN.md §14).
//
//   client frames ──▶ Listener (poll loop, per-connection FrameReader)
//                        │ decode submit
//                        ▼
//        ShardRouter::place: walk the consistent-hash ring from the
//        request's hierarchy_key, skipping shards whose inflight count
//        is at ⌈(1 + ε)·(total + 1)/N⌉ (ε = 1/4)
//                        │ next shard on the walk
//                        ▼
//              AdmissionController (cost-aware, deadline-aware)
//               │ admit          │ shed
//               ▼                ├─▶ try the next shard on the walk
//        shard SolveService      │   under the cap, else
//        (own HierarchyCache     └─▶ REJECT(kOverload) frame, fast
//         + executor pool)
//               │ on_complete
//               ▼
//        response frame queued on the connection, flushed by the
//        poll loop
//
// Sharding is in-process: each shard is an isolated serve::SolveService
// (its own executor pool and hierarchy cache), so a shard is exactly
// the HierarchyCache affinity unit. An idle or evenly loaded tier
// sends every request for one problem shape to its ring shard, whose
// cache holds its hierarchy; once that shard carries
// (1 + ε)× the mean load, requests for the shape move along the
// shape's walk, and each shard they reach pays one cold hierarchy
// build for it. One poll thread owns all sockets; solve executors
// never touch a socket (completion callbacks enqueue bytes and wake
// the poll loop through a self-pipe).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "front/admission.hpp"
#include "front/shard_router.hpp"
#include "front/wire.hpp"
#include "serve/service.hpp"

namespace gmg::front {

struct FrontConfig {
  /// In-process shards (isolated SolveService + caches each).
  /// Env: GMG_FRONT_SHARDS.
  int shards = 2;
  /// Per-shard serve configuration. queue_capacity is raised to the
  /// admission inflight cap automatically so an admitted request can
  /// never bounce off the serve queue.
  serve::ServeConfig shard;
  /// Per-shard admission control; max_inflight from
  /// GMG_FRONT_MAX_INFLIGHT when set.
  AdmissionConfig admission;
  int vnodes_per_shard = 64;
  int listen_backlog = 64;
  /// Cap on simultaneously open client connections.
  std::size_t max_connections = 256;

  /// Defaults with GMG_FRONT_SHARDS / GMG_FRONT_MAX_INFLIGHT applied.
  static FrontConfig from_env();
};

/// Point-in-time front counters (listener level plus per-shard
/// admission + service, in wire form so kStats serves the same data).
struct FrontStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_open = 0;
  std::uint64_t protocol_errors = 0;  // corrupt streams, closed
  std::uint64_t submits = 0;
  std::uint64_t sheds = 0;   // rejected kOverload (no shard admitted)
  std::uint64_t spills = 0;  // placed off the key's ring shard
  std::uint64_t bad_requests = 0;
  wire::StatsFrame shards;
};

class FrontServer {
 public:
  explicit FrontServer(FrontConfig cfg = {});
  ~FrontServer();  // stop()
  FrontServer(const FrontServer&) = delete;
  FrontServer& operator=(const FrontServer&) = delete;

  /// Register an operator on every shard (and for front-side cost /
  /// key computation). Register before serving traffic.
  void register_operator(const std::string& id, const GmgOptions& options);
  void register_operator(const std::string& id,
                         const serve::OperatorSpec& spec);

  /// Bind a Unix-domain socket at `path` (any stale socket file is
  /// replaced) and start serving. One listen_* call per server.
  void listen_unix(const std::string& path);

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and start serving;
  /// returns the bound port.
  std::uint16_t listen_tcp(std::uint16_t port);

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful stop: refuse new submits (kShuttingDown), drain every
  /// shard, flush remaining responses, close sockets. Idempotent.
  void stop();

  FrontStats stats() const;

  /// The request's ring shard, where an evenly loaded tier places it —
  /// exposed so tests can pin affinity and find the service that ran a
  /// request.
  int shard_for(const serve::DomainSpec& domain,
                const std::string& operator_id) const;
  serve::SolveService& shard_service(int shard);
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardRouter& router() const { return router_; }

 private:
  struct Connection {
    int fd = -1;
    wire::FrameReader reader;
    std::mutex mu;  // guards outbox/out_off/closed (poll + executors)
    std::deque<std::vector<std::uint8_t>> outbox;
    std::size_t out_off = 0;  // bytes of outbox.front() already sent
    bool closed = false;
  };

  struct Shard {
    std::unique_ptr<serve::SolveService> service;
    std::unique_ptr<AdmissionController> admission;
    std::atomic<std::uint64_t> spilled_in{0};  // placed here off-ring
  };

  void start_poll_thread();
  void poll_loop();
  void accept_ready();
  void read_ready(const std::shared_ptr<Connection>& conn);
  void write_ready(const std::shared_ptr<Connection>& conn);
  void close_connection(const std::shared_ptr<Connection>& conn);
  void handle_frame(const std::shared_ptr<Connection>& conn,
                    wire::Frame frame);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     wire::Frame frame);
  void send_frame(const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> bytes);
  void reject(const std::shared_ptr<Connection>& conn, std::uint64_t id,
              wire::RejectReason reason, const std::string& detail);
  wire::StatsFrame shard_stats() const;
  void wake();

  FrontConfig cfg_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex operators_mu_;
  std::map<std::string, GmgOptions> operator_options_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] read, [1] write
  std::string unix_path_;       // unlinked on stop
  std::thread poll_thread_;
  /// Owned by the poll thread (no lock): fd -> connection.
  std::map<int, std::shared_ptr<Connection>> conns_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_open_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> submits_{0};
  std::atomic<std::uint64_t> sheds_{0};
  std::atomic<std::uint64_t> spills_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
};

}  // namespace gmg::front

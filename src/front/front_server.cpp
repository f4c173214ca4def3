#include "front/front_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "trace/trace.hpp"

namespace gmg::front {

namespace {

int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed <= 0) return fallback;
  return static_cast<int>(parsed);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  GMG_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
              "front: fcntl(O_NONBLOCK) failed");
}

}  // namespace

FrontConfig FrontConfig::from_env() {
  FrontConfig cfg;
  cfg.shards = env_int("GMG_FRONT_SHARDS", cfg.shards);
  cfg.admission.max_inflight = static_cast<std::size_t>(env_int(
      "GMG_FRONT_MAX_INFLIGHT",
      static_cast<int>(cfg.admission.max_inflight)));
  return cfg;
}

FrontServer::FrontServer(FrontConfig cfg)
    : cfg_(cfg),
      router_(std::max(1, cfg.shards), cfg.vnodes_per_shard) {
  cfg_.shards = std::max(1, cfg_.shards);
  // An admitted request must never bounce off the shard's serve
  // queue: the admission inflight cap (queued + executing) bounds the
  // queue depth, so capacity = max_inflight always suffices.
  serve::ServeConfig shard_cfg = cfg_.shard;
  shard_cfg.queue_capacity =
      std::max(shard_cfg.queue_capacity, cfg_.admission.max_inflight);
  AdmissionConfig adm_cfg = cfg_.admission;
  adm_cfg.parallelism = std::max(1, shard_cfg.executors);
  shards_.reserve(static_cast<std::size_t>(cfg_.shards));
  for (int s = 0; s < cfg_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->service = std::make_unique<serve::SolveService>(shard_cfg);
    shard->admission = std::make_unique<AdmissionController>(adm_cfg);
    shards_.push_back(std::move(shard));
  }
}

FrontServer::~FrontServer() { stop(); }

void FrontServer::register_operator(const std::string& id,
                                    const GmgOptions& options) {
  register_operator(id, serve::OperatorSpec{options, nullptr});
}

void FrontServer::register_operator(const std::string& id,
                                    const serve::OperatorSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(operators_mu_);
    operator_options_[id] = spec.options;
  }
  for (auto& shard : shards_) shard->service->register_operator(id, spec);
}

void FrontServer::listen_unix(const std::string& path) {
  GMG_REQUIRE(listen_fd_ < 0, "front: already listening");
  sockaddr_un addr{};
  GMG_REQUIRE(path.size() < sizeof(addr.sun_path),
              "front: unix socket path too long");
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  GMG_REQUIRE(fd >= 0, "front: socket(AF_UNIX) failed");
  ::unlink(path.c_str());  // replace a stale socket file
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  GMG_REQUIRE(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "front: bind(unix) failed");
  GMG_REQUIRE(::listen(fd, cfg_.listen_backlog) == 0,
              "front: listen failed");
  set_nonblocking(fd);
  listen_fd_ = fd;
  unix_path_ = path;
  start_poll_thread();
}

std::uint16_t FrontServer::listen_tcp(std::uint16_t port) {
  GMG_REQUIRE(listen_fd_ < 0, "front: already listening");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  GMG_REQUIRE(fd >= 0, "front: socket(AF_INET) failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  GMG_REQUIRE(::bind(fd, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0,
              "front: bind(tcp) failed");
  GMG_REQUIRE(::listen(fd, cfg_.listen_backlog) == 0,
              "front: listen failed");
  socklen_t len = sizeof(addr);
  GMG_REQUIRE(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                            &len) == 0,
              "front: getsockname failed");
  set_nonblocking(fd);
  listen_fd_ = fd;
  start_poll_thread();
  return ntohs(addr.sin_port);
}

void FrontServer::start_poll_thread() {
  GMG_REQUIRE(::pipe(wake_fds_) == 0, "front: pipe failed");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  running_.store(true, std::memory_order_release);
  poll_thread_ = std::thread([this] { poll_loop(); });
}

void FrontServer::wake() {
  if (wake_fds_[1] < 0) return;
  const std::uint8_t b = 1;
  // EAGAIN means the pipe already holds a wakeup; that is enough.
  [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &b, 1);
}

void FrontServer::stop() {
  if (stopping_.exchange(true)) {
    if (poll_thread_.joinable()) poll_thread_.join();
    return;
  }
  // 1. New submits now answer kShuttingDown; everything already
  //    admitted finishes and its response lands in an outbox.
  for (auto& shard : shards_) shard->service->drain();
  // 2. Let the poll loop flush outboxes, then exit.
  wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  // 3. Tear down sockets (the poll loop closed the connections).
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int i = 0; i < 2; ++i) {
    if (wake_fds_[i] >= 0) {
      ::close(wake_fds_[i]);
      wake_fds_[i] = -1;
    }
  }
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
  running_.store(false, std::memory_order_release);
}

void FrontServer::poll_loop() {
  trace::set_rank(0);
  std::uint64_t quit_seen_ns = 0;
  for (;;) {
    const bool quitting = stopping_.load(std::memory_order_acquire);
    bool pending_output = false;
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Connection>> polled;
    fds.reserve(conns_.size() + 2);
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (!quitting && listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      {
        std::lock_guard<std::mutex> lock(conn->mu);
        if (!conn->outbox.empty()) {
          events |= POLLOUT;
          pending_output = true;
        }
      }
      fds.push_back({fd, events, 0});
      polled.push_back(conn);
    }
    if (quitting) {
      if (quit_seen_ns == 0) quit_seen_ns = trace::now_ns();
      const bool flush_deadline =
          trace::now_ns() - quit_seen_ns > 2'000'000'000ULL;
      if (!pending_output || flush_deadline) break;
    }

    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;

    std::size_t idx = 0;
    if (fds[idx].revents & POLLIN) {
      std::uint8_t drain[64];
      while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    ++idx;
    if (!quitting && listen_fd_ >= 0) {
      if (fds[idx].revents & POLLIN) accept_ready();
      ++idx;
    }
    for (std::size_t c = 0; c < polled.size(); ++c, ++idx) {
      const short re = fds[idx].revents;
      const std::shared_ptr<Connection>& conn = polled[c];
      if (conns_.find(conn->fd) == conns_.end()) continue;  // closed above
      if (re & (POLLERR | POLLHUP | POLLNVAL)) {
        close_connection(conn);
        continue;
      }
      if (re & POLLOUT) write_ready(conn);
      if (conns_.find(conn->fd) == conns_.end()) continue;
      if (re & POLLIN) read_ready(conn);
    }
  }
  // Exit: close every remaining connection.
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [fd, conn] : conns_) remaining.push_back(conn);
  for (auto& conn : remaining) close_connection(conn);
}

void FrontServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again
    if (conns_.size() >= cfg_.max_connections) {
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_.emplace(fd, std::move(conn));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FrontServer::read_ready(const std::shared_ptr<Connection>& conn) {
  std::uint8_t buf[16384];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {  // peer closed; any mid-frame bytes die with it
      close_connection(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      close_connection(conn);
      return;
    }
    conn->reader.feed(buf, static_cast<std::size_t>(n));
    wire::Frame frame;
    while (conn->reader.next(&frame)) {
      handle_frame(conn, std::move(frame));
      if (conns_.find(conn->fd) == conns_.end()) return;  // closed
    }
    if (conn->reader.corrupt()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_connection(conn);
      return;
    }
  }
}

void FrontServer::write_ready(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->mu);
  while (!conn->outbox.empty()) {
    const std::vector<std::uint8_t>& front = conn->outbox.front();
    const std::size_t left = front.size() - conn->out_off;
    const ssize_t n = ::send(conn->fd, front.data() + conn->out_off, left,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      // Peer vanished: drop the outbox; the poll loop closes on the
      // next POLLERR/POLLHUP wakeup.
      conn->outbox.clear();
      conn->out_off = 0;
      return;
    }
    conn->out_off += static_cast<std::size_t>(n);
    if (conn->out_off == front.size()) {
      conn->outbox.pop_front();
      conn->out_off = 0;
    }
  }
}

void FrontServer::close_connection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    conn->closed = true;
    conn->outbox.clear();
    ::close(conn->fd);
  }
  conns_.erase(conn->fd);
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
}

void FrontServer::send_frame(const std::shared_ptr<Connection>& conn,
                             std::vector<std::uint8_t> bytes) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;  // response outlived its connection
    conn->outbox.push_back(std::move(bytes));
  }
  wake();
}

void FrontServer::reject(const std::shared_ptr<Connection>& conn,
                         std::uint64_t id, wire::RejectReason reason,
                         const std::string& detail) {
  wire::RejectFrame rj;
  rj.request_id = id;
  rj.reason = reason;
  rj.detail = detail;
  send_frame(conn, wire::encode_reject(rj));
}

void FrontServer::handle_frame(const std::shared_ptr<Connection>& conn,
                               wire::Frame frame) {
  switch (frame.type) {
    case wire::FrameType::kSubmit:
      handle_submit(conn, std::move(frame));
      return;
    case wire::FrameType::kPing: {
      std::uint64_t nonce = 0;
      std::string err;
      if (!wire::decode_nonce(frame.payload, &nonce, &err)) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        close_connection(conn);
        return;
      }
      send_frame(conn, wire::encode_pong(nonce));
      return;
    }
    case wire::FrameType::kStatsRequest:
      send_frame(conn, wire::encode_stats(shard_stats()));
      return;
    default:
      // Server-to-client frame types arriving at the server are a
      // protocol violation, not a recoverable request.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      close_connection(conn);
      return;
  }
}

void FrontServer::handle_submit(const std::shared_ptr<Connection>& conn,
                                wire::Frame frame) {
  trace::TraceSpan span("front.submit", trace::Category::kOther);
  wire::SubmitFrame sf;
  std::string err;
  if (!wire::decode_submit(frame.payload, &sf, &err)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    reject(conn, sf.request_id, wire::RejectReason::kBadRequest, err);
    return;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    reject(conn, sf.request_id, wire::RejectReason::kShuttingDown,
           "server draining");
    return;
  }

  GmgOptions options;
  {
    std::lock_guard<std::mutex> lock(operators_mu_);
    auto it = operator_options_.find(sf.operator_id);
    if (it == operator_options_.end()) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      reject(conn, sf.request_id, wire::RejectReason::kUnknownOperator,
             "unknown operator id: " + sf.operator_id);
      return;
    }
    options = it->second;
  }
  if (!sf.rank_grid.volume_at_most(512)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    reject(conn, sf.request_id, wire::RejectReason::kBadRequest,
           "rank grid too large");
    return;
  }

  serve::DomainSpec domain;
  domain.global_extent = sf.global_extent;
  domain.rank_grid = sf.rank_grid;
  const std::string key =
      serve::hierarchy_key(domain, sf.operator_id, options);
  const double cost =
      AdmissionController::estimate_cost(sf.global_extent, options.levels);

  // Bounded-load placement (DESIGN.md §14): the key's ring shard
  // unless it carries (1 + ε)× the mean inflight count, else the next
  // shard along the key's walk; the first that admits takes it.
  const auto admission = [&](int s) -> AdmissionController& {
    return *shards_[static_cast<std::size_t>(s)]->admission;
  };
  const int target = router_.place(
      key, [&](int s) { return admission(s).stats().inflight; },
      [&](int s) {
        return admission(s).try_admit(cost, sf.deadline_seconds) ==
               AdmissionController::Decision::kAdmit;
      });
  if (target < 0) {
    sheds_.fetch_add(1, std::memory_order_relaxed);
    trace::counter_add("front.rejected_overload", 1);
    reject(conn, sf.request_id, wire::RejectReason::kOverload,
           "admission: shards saturated");
    return;
  }
  Shard* shard = shards_[static_cast<std::size_t>(target)].get();
  if (target != router_.route(key)) {
    spills_.fetch_add(1, std::memory_order_relaxed);
    shard->spilled_in.fetch_add(1, std::memory_order_relaxed);
    trace::counter_add("front.spilled", 1);
  }
  submits_.fetch_add(1, std::memory_order_relaxed);

  serve::SolveRequest req;
  req.domain = domain;
  req.operator_id = sf.operator_id;
  auto samples = std::make_shared<const std::vector<real_t>>(
      std::move(sf.rhs_samples));
  req.rhs = wire::rhs_from_samples(sf.global_extent, samples);
  req.tolerance = sf.tolerance;
  req.max_vcycles = sf.max_vcycles;
  req.priority = sf.priority;
  req.deadline_seconds = sf.deadline_seconds;
  req.return_solution = sf.return_solution;

  const std::uint64_t id = sf.request_id;
  std::weak_ptr<Connection> wconn = conn;
  req.on_complete = [this, wconn, id, shard,
                     cost](const serve::RequestResult& r) {
    shard->admission->on_complete(cost, r.solve_seconds);
    auto c = wconn.lock();
    if (!c) return;  // client went away; nothing to tell
    std::vector<std::uint8_t> bytes;
    if (r.status == serve::RequestStatus::kRejected) {
      // Admission sized the serve queue, so this only happens when
      // the shard stopped underneath us.
      wire::RejectFrame rj;
      rj.request_id = id;
      rj.reason = stopping_.load(std::memory_order_acquire)
                      ? wire::RejectReason::kShuttingDown
                      : wire::RejectReason::kOverload;
      rj.detail = "serve queue rejected request";
      bytes = wire::encode_reject(rj);
    } else {
      wire::ResultFrame rf;
      rf.request_id = id;
      rf.status = static_cast<std::uint8_t>(r.status);
      rf.cache_hit = r.cache_hit;
      rf.converged = r.solve.converged;
      rf.vcycles = r.solve.vcycles;
      rf.final_residual = r.solve.final_residual;
      rf.queue_seconds = r.queue_seconds;
      rf.setup_seconds = r.setup_seconds;
      rf.solve_seconds = r.solve_seconds;
      rf.total_seconds = r.total_seconds;
      rf.solution = r.solution;
      rf.error = r.error;
      bytes = wire::encode_result(rf);
    }
    send_frame(c, std::move(bytes));
  };
  shard->service->try_submit(std::move(req));
}

wire::StatsFrame FrontServer::shard_stats() const {
  wire::StatsFrame out;
  out.shards.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const AdmissionController::Stats a = shards_[s]->admission->stats();
    const serve::ServiceStats svc = shards_[s]->service->stats();
    wire::ShardStatsEntry e;
    e.shard_id = static_cast<std::uint32_t>(s);
    e.accepted = a.admitted;
    e.completed = svc.completed;
    e.cancelled = svc.cancelled;
    e.expired = svc.expired;
    e.rejected = svc.rejected;
    e.failed = svc.failed;
    e.shed_overload = a.shed_overload + a.shed_deadline;
    e.spilled_in = shards_[s]->spilled_in.load(std::memory_order_relaxed);
    e.queue_depth = svc.queue_depth;
    e.inflight = a.inflight;
    e.batch_solves = svc.batch_solves;
    e.batch_requests = svc.batch_requests;
    e.inflight_cost = a.inflight_cost;
    e.cache_hit_ratio = svc.cache.hit_ratio();
    out.shards.push_back(e);
  }
  return out;
}

FrontStats FrontServer::stats() const {
  FrontStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_open = connections_open_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.submits = submits_.load(std::memory_order_relaxed);
  s.sheds = sheds_.load(std::memory_order_relaxed);
  s.spills = spills_.load(std::memory_order_relaxed);
  s.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  s.shards = shard_stats();
  return s;
}

int FrontServer::shard_for(const serve::DomainSpec& domain,
                           const std::string& operator_id) const {
  GmgOptions options;
  {
    std::lock_guard<std::mutex> lock(operators_mu_);
    auto it = operator_options_.find(operator_id);
    GMG_REQUIRE(it != operator_options_.end(),
                "shard_for: unknown operator id");
    options = it->second;
  }
  return router_.route(serve::hierarchy_key(domain, operator_id, options));
}

serve::SolveService& FrontServer::shard_service(int shard) {
  GMG_REQUIRE(shard >= 0 && shard < num_shards(),
              "shard_service: shard out of range");
  return *shards_[static_cast<std::size_t>(shard)]->service;
}

}  // namespace gmg::front

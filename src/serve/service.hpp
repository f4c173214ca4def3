// SolveService: the multi-tenant solve front-end (DESIGN.md §12).
//
// The solver below this layer is a one-shot harness: build a
// hierarchy, solve, exit. A serving deployment instead sees a stream
// of solve requests over a handful of recurring problem shapes. This
// subsystem turns the reproduction into that system:
//
//   submit(request) --> bounded admission queue (priority + FIFO,
//   blocking backpressure) --> executor pool --> hierarchy cache
//   (reuse full GmgLevel chains and their fields: no setup, no field
//   allocation) --> simmpi World solve on the shared exec engine
//   (kernels fan out over its worker pool) --> completion future.
//
// Determinism contract: a request's result is bitwise identical to
// running the same request alone on a fresh solver — set_rhs resets
// everything a solve of a cached hierarchy reads, and the kernel
// runtime's fixed chunk boundaries/reduction trees make results
// independent of what else the service is executing concurrently.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gmg/solver.hpp"
#include "serve/hierarchy_cache.hpp"

namespace gmg::serve {

/// The domain a request solves on: the global box and how it is
/// decomposed over simulated ranks.
struct DomainSpec {
  Vec3 global_extent{64, 64, 64};
  Vec3 rank_grid{1, 1, 1};

  int ranks() const { return static_cast<int>(rank_grid.volume()); }
};

/// A named operator configuration (the request's `operator_id` refers
/// to one of these). `options` fixes everything about the cycle; the
/// optional `coefficient` switches the hierarchy to the
/// variable-coefficient operator, evaluated once per cached hierarchy.
struct OperatorSpec {
  GmgOptions options;
  std::function<real_t(real_t, real_t, real_t)> coefficient;
};

struct RequestResult;

struct SolveRequest {
  DomainSpec domain;
  std::string operator_id = "poisson";
  /// RHS as a function of physical cell-center coordinates.
  std::function<real_t(real_t, real_t, real_t)> rhs;
  real_t tolerance = 1e-10;
  int max_vcycles = 100;
  /// Higher runs earlier; FIFO within a priority class.
  int priority = 0;
  /// Wall-clock budget from submission; expired requests abort at the
  /// next cycle boundary (0 = none).
  double deadline_seconds = 0;
  /// Copy the finest-level solution into the result (rank-major, each
  /// rank's interior in for_each order).
  bool return_solution = true;
  /// Invoked exactly once, after the future is ready, on whichever
  /// thread completed the request (an executor; the submitting thread
  /// for immediate rejections). The socket front uses this to write
  /// the response frame without parking a thread per request.
  std::function<void(const RequestResult&)> on_complete;
};

enum class RequestStatus {
  kQueued,
  kRunning,
  kDone,       // solve ran to convergence (or its cycle budget)
  kCancelled,  // cancel() before or during the solve
  kExpired,    // deadline passed before or during the solve
  kRejected,   // admission queue full (try_submit) or service stopped
  kFailed,     // solver threw (bad domain/operator); see error
};
const char* status_name(RequestStatus s);

struct RequestResult {
  RequestStatus status = RequestStatus::kQueued;
  SolveResult solve;
  bool cache_hit = false;
  double queue_seconds = 0;
  double setup_seconds = 0;  // hierarchy build; 0 on cache hits
  double solve_seconds = 0;
  double total_seconds = 0;  // submission to completion
  std::vector<real_t> solution;
  std::string error;
};

namespace detail {
struct RequestState;
}

/// Completion handle. Copyable; all copies share one state.
class SolveFuture {
 public:
  SolveFuture() = default;
  bool valid() const { return state_ != nullptr; }
  bool ready() const;
  void wait() const;
  /// Block until completion, then return a copy of the result (valid
  /// futures only). By value so the result outlives the future —
  /// `service.submit(req).get()` destroys the temporary future (and
  /// possibly the shared state) at the end of the statement.
  RequestResult get() const;
  /// Ask the service to abandon the request: immediately when still
  /// queued, at the next V-cycle boundary when running. Returns false
  /// when the request had already completed.
  bool cancel();

 private:
  friend class SolveService;
  explicit SolveFuture(std::shared_ptr<detail::RequestState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

struct ServeConfig {
  /// Executor threads draining the admission queue (concurrent
  /// requests in flight).
  int executors = 2;
  /// Admission-queue bound: submit() blocks (backpressure) and
  /// try_submit() rejects once this many requests are queued.
  std::size_t queue_capacity = 16;
  /// Idle hierarchies kept by the cache.
  std::size_t cache_capacity = 4;
  /// Coalescer hold window: an executor that popped a request whose
  /// operator allows batching (GmgOptions::max_batch > 1) but found
  /// fewer than max_batch compatible peers queued may wait up to this
  /// long for stragglers — and only when the recent arrival rate says
  /// stragglers are likely (EWMA inter-arrival <= the window). An
  /// empty queue with sparse arrivals never delays a solo request.
  double max_batch_hold_seconds = 0.002;
};

/// The service's one stats snapshot, cheap enough to sample per request
/// (one mutex each for the service and its cache). The front tier's
/// load-shedder reads it at frame-decode frequency. Request latencies
/// are the callers' to aggregate (RequestResult::total_seconds, and
/// the serve.request spans). All counters are also exported as trace
/// counters (serve.accepted, serve.rejected, serve.cancelled,
/// serve.expired, serve.completed, serve.failed, serve.cache_hits,
/// serve.cache_misses; queue depth is the difference of the monotonic
/// serve.enqueued/serve.dequeued pair).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;  // admitted into the queue
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;  // deadline passed before/during the solve
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::size_t queue_depth = 0;
  std::size_t queue_high_water = 0;
  /// Admitted but not yet complete (queued + executing).
  std::size_t inflight = 0;
  HierarchyCache::Stats cache;
  /// Coalescer tallies: batched solve invocations (K >= 2) and the
  /// requests they carried. requests/solves = mean batch occupancy.
  std::uint64_t batch_solves = 0;
  std::uint64_t batch_requests = 0;
  /// Process-wide count of schedules proven clean at setup
  /// (GMG_VERIFY_SCHEDULE): every hierarchy the cache built — solo,
  /// batched, composite — was statically verified this many times.
  std::uint64_t schedules_verified = 0;
};

/// The hierarchy-cache key for (domain, operator): everything that
/// determines setup. The front tier routes on this same string so
/// consistent-hash sharding preserves cache affinity (DESIGN.md §14).
std::string hierarchy_key(const DomainSpec& domain,
                          const std::string& operator_id,
                          const GmgOptions& options);

class SolveService {
 public:
  explicit SolveService(ServeConfig config = {});
  ~SolveService();  // shutdown()
  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Register (or replace) the operator configuration `id` refers to.
  /// Not synchronized against in-flight requests using `id` — register
  /// before submitting.
  void register_operator(const std::string& id, const GmgOptions& options);
  void register_operator(const std::string& id, const OperatorSpec& spec);

  /// Admit a request, blocking while the queue is full (backpressure).
  /// Returns an already-rejected future after shutdown().
  SolveFuture submit(SolveRequest req);

  /// Admit without blocking: a queue-full service rejects immediately
  /// (future completes with kRejected).
  SolveFuture try_submit(SolveRequest req);

  /// Graceful drain: stop admitting (submit() completes kRejected and
  /// any submitter blocked on backpressure wakes with that rejection
  /// instead of deadlocking), then block until everything already
  /// admitted — queued or executing — has completed. Executors stay
  /// alive; stats() remains valid. Idempotent.
  void drain();

  /// Stop admitting, finish everything queued, join the executors.
  /// Idempotent; the destructor calls it.
  void shutdown();

  ServiceStats stats() const;

  const ServeConfig& config() const { return config_; }

 private:
  SolveFuture enqueue(SolveRequest req, bool block);
  void executor_loop();
  /// Coalescer (DESIGN.md §15): with mu_ held and `group` holding one
  /// just-popped leader, pull queued requests that can ride the same
  /// batched solve (same operator, domain, decomposition — i.e. the
  /// same hierarchy_key; tolerance/deadline stay per-component) up to
  /// the operator's max_batch, holding briefly for stragglers when the
  /// arrival rate warrants it.
  void gather_batch(std::unique_lock<std::mutex>& lock,
                    std::vector<std::shared_ptr<detail::RequestState>>& group);
  /// Run a popped group (one request, or a coalesced batch) as one
  /// solve of width K, the members that are still live: GmgSolver::solve
  /// on the cached hierarchy at K = 1, its cached K-way BatchedSolver
  /// otherwise.
  void execute(std::vector<std::shared_ptr<detail::RequestState>> group);
  void complete(const std::shared_ptr<detail::RequestState>& rs,
                RequestStatus status);

  ServeConfig config_;
  HierarchyCache cache_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // executors: work or stop
  std::condition_variable space_cv_;  // submitters: queue has room
  std::vector<std::shared_ptr<detail::RequestState>> queue_;  // max-heap
  std::map<std::string, OperatorSpec> operators_;
  bool stopping_ = false;
  bool draining_ = false;  // admission closed; executors keep running
  std::condition_variable drained_cv_;  // drain(): queue empty, none inflight
  std::uint64_t next_seq_ = 0;
  bool flush_started_ = false;

  // Metrics (guarded by mu_).
  std::uint64_t submitted_ = 0, accepted_ = 0, completed_ = 0, cancelled_ = 0,
                expired_ = 0, rejected_ = 0, failed_ = 0;
  std::size_t inflight_ = 0;  // admitted, not yet complete
  std::size_t queue_high_water_ = 0;
  std::uint64_t batch_solves_ = 0, batch_requests_ = 0;
  /// Arrival-rate estimate feeding the adaptive hold window.
  double ewma_interarrival_s_ = 0;
  std::uint64_t last_enqueue_ns_ = 0;

  std::vector<std::thread> executors_;
};

}  // namespace gmg::serve

#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "batch/batched_solver.hpp"
#include "check/schedule.hpp"
#include "trace/trace.hpp"

namespace gmg::serve {

namespace detail {

/// Shared state behind a SolveFuture: the request as admitted, its
/// schedule metadata, the cancellation control shared with the
/// in-flight solve, and the completed result.
struct RequestState {
  SolveRequest req;
  std::uint64_t seq = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t deadline_ns = 0;  // 0 = none
  SolveControl control;

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  RequestResult result;
};

namespace {

/// Max-heap order: highest priority first, FIFO (lowest sequence)
/// within a priority class.
bool heap_less(const std::shared_ptr<RequestState>& a,
               const std::shared_ptr<RequestState>& b) {
  if (a->req.priority != b->req.priority)
    return a->req.priority < b->req.priority;
  return a->seq > b->seq;
}

}  // namespace
}  // namespace detail

const char* status_name(RequestStatus s) {
  switch (s) {
    case RequestStatus::kQueued:
      return "queued";
    case RequestStatus::kRunning:
      return "running";
    case RequestStatus::kDone:
      return "done";
    case RequestStatus::kCancelled:
      return "cancelled";
    case RequestStatus::kExpired:
      return "expired";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

bool SolveFuture::ready() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->done;
}

void SolveFuture::wait() const {
  GMG_REQUIRE(state_ != nullptr, "wait() on an invalid SolveFuture");
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [&] { return state_->done; });
}

RequestResult SolveFuture::get() const {
  wait();
  return state_->result;
}

bool SolveFuture::cancel() {
  GMG_REQUIRE(state_ != nullptr, "cancel() on an invalid SolveFuture");
  state_->control.cancel.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state_->mu);
  return !state_->done;
}

SolveService::SolveService(ServeConfig config)
    : config_(config),
      cache_(std::max<std::size_t>(config.cache_capacity, 0)) {
  flush_started_ = trace::start_periodic_flush_from_env();
  const int n = std::max(1, config_.executors);
  executors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

SolveService::~SolveService() { shutdown(); }

void SolveService::register_operator(const std::string& id,
                                     const GmgOptions& options) {
  register_operator(id, OperatorSpec{options, nullptr});
}

void SolveService::register_operator(const std::string& id,
                                     const OperatorSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  operators_[id] = spec;
}

std::string hierarchy_key(const DomainSpec& domain,
                          const std::string& operator_id,
                          const GmgOptions& options) {
  std::ostringstream os;
  const Vec3 g = domain.global_extent;
  const Vec3 r = domain.rank_grid;
  const BrickShape b = options.brick;
  os << g.x << 'x' << g.y << 'x' << g.z << '/' << r.x << 'x' << r.y << 'x'
     << r.z << "/b" << b.bx << 'x' << b.by << 'x' << b.bz << "/l"
     << options.levels << '/' << operator_id;
  return os.str();
}

SolveFuture SolveService::submit(SolveRequest req) {
  return enqueue(std::move(req), /*block=*/true);
}

SolveFuture SolveService::try_submit(SolveRequest req) {
  return enqueue(std::move(req), /*block=*/false);
}

SolveFuture SolveService::enqueue(SolveRequest req, bool block) {
  auto rs = std::make_shared<detail::RequestState>();
  rs->req = std::move(req);
  rs->submit_ns = trace::now_ns();
  if (rs->req.deadline_seconds > 0) {
    rs->deadline_ns = rs->submit_ns + static_cast<std::uint64_t>(
                                          rs->req.deadline_seconds * 1e9);
    rs->control.deadline_ns = rs->deadline_ns;
  }
  trace::counter_add("serve.submitted", 1);
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++submitted_;
    if (block) {
      space_cv_.wait(lock, [&] {
        return stopping_ || draining_ ||
               queue_.size() < config_.queue_capacity;
      });
    }
    if (stopping_ || draining_ ||
        queue_.size() >= config_.queue_capacity) {
      ++rejected_;
      lock.unlock();
      trace::counter_add("serve.rejected", 1);
      complete(rs, RequestStatus::kRejected);
      return SolveFuture(std::move(rs));
    }
    rs->seq = next_seq_++;
    ++accepted_;
    ++inflight_;
    if (last_enqueue_ns_ != 0 && rs->submit_ns > last_enqueue_ns_) {
      const double dt =
          static_cast<double>(rs->submit_ns - last_enqueue_ns_) * 1e-9;
      ewma_interarrival_s_ = ewma_interarrival_s_ == 0
                                 ? dt
                                 : 0.8 * ewma_interarrival_s_ + 0.2 * dt;
    }
    last_enqueue_ns_ = rs->submit_ns;
    queue_.push_back(rs);
    std::push_heap(queue_.begin(), queue_.end(), detail::heap_less);
    queue_high_water_ = std::max(queue_high_water_, queue_.size());
  }
  trace::counter_add("serve.accepted", 1);
  trace::counter_add("serve.enqueued", 1);
  queue_cv_.notify_one();
  return SolveFuture(std::move(rs));
}

void SolveService::executor_loop() {
  for (;;) {
    std::vector<std::shared_ptr<detail::RequestState>> group;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      std::pop_heap(queue_.begin(), queue_.end(), detail::heap_less);
      group.push_back(std::move(queue_.back()));
      queue_.pop_back();
      gather_batch(lock, group);
      // Gathering may have consumed enqueue notifications meant for an
      // idle executor; re-arm one if work remains.
      if (!queue_.empty()) queue_cv_.notify_one();
    }
    trace::counter_add("serve.dequeued", group.size());
    space_cv_.notify_all();
    execute(std::move(group));
  }
}

void SolveService::gather_batch(
    std::unique_lock<std::mutex>& lock,
    std::vector<std::shared_ptr<detail::RequestState>>& group) {
  // Copy the shared_ptr: push_back below may reallocate `group`, which
  // would invalidate a reference into it.
  const std::shared_ptr<detail::RequestState> leader = group.front();
  const auto it = operators_.find(leader->req.operator_id);
  if (it == operators_.end()) return;
  const std::size_t max_batch =
      static_cast<std::size_t>(std::max(1, it->second.options.max_batch));
  if (max_batch <= 1) return;

  // Compatible = same hierarchy_key. Requests share the operator-id's
  // registered options, so the key reduces to (operator_id, domain);
  // tolerance, cycle budget, and deadline ride per-component.
  const auto compatible = [&](const detail::RequestState& cand) {
    return cand.req.operator_id == leader->req.operator_id &&
           cand.req.domain.global_extent == leader->req.domain.global_extent &&
           cand.req.domain.rank_grid == leader->req.domain.rank_grid;
  };
  const auto take_matching = [&] {
    bool changed = false;
    for (auto qit = queue_.begin();
         qit != queue_.end() && group.size() < max_batch;) {
      if (compatible(**qit)) {
        group.push_back(std::move(*qit));
        qit = queue_.erase(qit);
        changed = true;
      } else {
        ++qit;
      }
    }
    if (changed) {
      std::make_heap(queue_.begin(), queue_.end(), detail::heap_less);
    }
  };

  take_matching();
  if (group.size() >= max_batch) return;

  // Adaptive hold: wait for stragglers only while arrivals are landing
  // at least as fast as the window — an idle service executes solo
  // requests immediately.
  const double hold = config_.max_batch_hold_seconds;
  if (hold <= 0) return;
  if (ewma_interarrival_s_ <= 0 || ewma_interarrival_s_ > hold) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(hold);
  while (group.size() < max_batch && !stopping_) {
    if (queue_cv_.wait_until(lock, deadline) == std::cv_status::timeout) {
      take_matching();
      return;
    }
    take_matching();
  }
}

void SolveService::execute(
    std::vector<std::shared_ptr<detail::RequestState>> group) {
  trace::TraceSpan request_span(
      group.size() == 1 ? "serve.request" : "serve.batch",
      trace::Category::kOther);
  const std::uint64_t start_ns = trace::now_ns();

  // Members cancelled or expired while queued drop out one by one; the
  // rest run as one solve of width K.
  std::vector<std::shared_ptr<detail::RequestState>> live;
  live.reserve(group.size());
  for (auto& rs : group) {
    rs->result.queue_seconds =
        static_cast<double>(start_ns - rs->submit_ns) * 1e-9;
    if (rs->control.cancel.load(std::memory_order_relaxed)) {
      complete(rs, RequestStatus::kCancelled);
    } else if (rs->deadline_ns != 0 && start_ns >= rs->deadline_ns) {
      complete(rs, RequestStatus::kExpired);
    } else {
      live.push_back(std::move(rs));
    }
  }
  if (live.empty()) return;
  const auto fail_all = [&](const std::string& error) {
    for (const auto& rs : live) {
      rs->result.error = error;
      complete(rs, RequestStatus::kFailed);
    }
  };

  const SolveRequest& lead = live.front()->req;
  OperatorSpec spec;
  bool found = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = operators_.find(lead.operator_id);
    if (it != operators_.end()) {
      spec = it->second;
      found = true;
    }
  }
  if (!found) {
    fail_all("unknown operator id: " + lead.operator_id);
    return;
  }

  const std::string key =
      hierarchy_key(lead.domain, lead.operator_id, spec.options);
  const int nranks = lead.domain.ranks();
  const int k = static_cast<int>(live.size());
  std::vector<std::function<real_t(real_t, real_t, real_t)>> rhs;
  std::vector<SolveSpec> specs;
  for (const auto& rs : live) {
    rhs.push_back(rs->req.rhs);
    specs.push_back(
        SolveSpec{rs->req.tolerance, rs->req.max_vcycles, &rs->control});
  }

  std::unique_ptr<CachedHierarchy> entry;
  try {
    entry = cache_.acquire(key);
    const bool cache_hit = entry != nullptr;
    double setup_seconds = 0;
    if (!entry) {
      trace::counter_add("serve.cache_misses", 1);
      trace::TraceSpan setup_span("serve.setup");
      const CartDecomp decomp(lead.domain.global_extent,
                              lead.domain.rank_grid);
      entry = std::make_unique<CachedHierarchy>(key, decomp, spec.options);
      entry->solvers.reserve(static_cast<std::size_t>(nranks));
      for (int r = 0; r < nranks; ++r) {
        entry->solvers.push_back(
            std::make_unique<GmgSolver>(spec.options, decomp, r));
      }
      setup_seconds = setup_span.elapsed();
    } else {
      trace::counter_add("serve.cache_hits", 1);
    }

    const bool needs_coefficient =
        spec.coefficient != nullptr && !entry->coefficient_set;
    // K >= 2 rides the hierarchy's cached K-way batched twins.
    std::vector<std::unique_ptr<batch::BatchedSolver>>* batched = nullptr;
    if (k > 1) {
      batched = &entry->batched[k];
      batched->resize(static_cast<std::size_t>(nranks));
    }
    std::vector<SolveResult> results;  // rank 0's, one per member
    double solve_seconds = 0;
    {
      trace::TraceSpan solve_span("serve.solve");
      comm::World world(nranks);
      world.run([&](comm::Communicator& c) {
        const std::size_t r = static_cast<std::size_t>(c.rank());
        GmgSolver& s = *entry->solvers[r];
        if (needs_coefficient) s.set_coefficient(c, spec.coefficient);
        std::vector<SolveResult> mine;
        if (k == 1) {
          s.set_solve_params(specs[0].tolerance, specs[0].max_vcycles);
          s.set_rhs(rhs[0]);
          mine.push_back(s.solve(c, specs[0].control));
        } else {
          auto& bs = (*batched)[r];
          if (!bs) bs = std::make_unique<batch::BatchedSolver>(s, k);
          bs->set_rhs(rhs);
          mine = bs->solve(c, specs);
        }
        if (r == 0) results = std::move(mine);
      });
      solve_seconds = solve_span.elapsed();
    }
    if (needs_coefficient) entry->coefficient_set = true;

    // Scatter before release() makes the entry (and its fields) the
    // next request's: each rank's interior in rank order, read straight
    // from the solver at K = 1 and from the component's retirement
    // snapshot otherwise.
    for (int c = 0; c < k; ++c) {
      detail::RequestState& rs = *live[static_cast<std::size_t>(c)];
      RequestResult& out = rs.result;
      out.cache_hit = cache_hit;
      out.setup_seconds = setup_seconds;
      out.solve_seconds = solve_seconds;
      out.solve = std::move(results[static_cast<std::size_t>(c)]);
      if (!rs.req.return_solution || out.solve.cancelled) continue;
      const Vec3 g = rs.req.domain.global_extent;
      out.solution.reserve(static_cast<std::size_t>(g.x) *
                           static_cast<std::size_t>(g.y) *
                           static_cast<std::size_t>(g.z));
      for (std::size_t r = 0; r < static_cast<std::size_t>(nranks); ++r) {
        if (k == 1) {
          const BrickedArray& x = entry->solvers[r]->solution();
          for_each(Box::from_extent(x.extent()),
                   [&](index_t i, index_t j, index_t kk) {
                     out.solution.push_back(x(i, j, kk));
                   });
        } else {
          const std::vector<real_t>& sol = (*batched)[r]->solution(c);
          out.solution.insert(out.solution.end(), sol.begin(), sol.end());
        }
      }
    }
    cache_.release(std::move(entry));
  } catch (const std::exception& e) {
    // The hierarchy may be mid-mutation — drop it rather than cache a
    // possibly inconsistent entry.
    entry.reset();
    fail_all(e.what());
    return;
  }

  if (k > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      batch_solves_ += 1;
      batch_requests_ += static_cast<std::uint64_t>(k);
    }
    trace::counter_add("serve.batch_solves", 1);
    trace::counter_add("serve.batch_requests", static_cast<std::uint64_t>(k));
  }
  for (const auto& rs : live) {
    if (rs->result.solve.cancelled) {
      complete(rs, rs->control.cancel.load(std::memory_order_relaxed)
                       ? RequestStatus::kCancelled
                       : RequestStatus::kExpired);
    } else {
      complete(rs, RequestStatus::kDone);
    }
  }
}

void SolveService::complete(const std::shared_ptr<detail::RequestState>& rs,
                            RequestStatus status) {
  rs->result.total_seconds =
      static_cast<double>(trace::now_ns() - rs->submit_ns) * 1e-9;
  bool drained = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    switch (status) {
      case RequestStatus::kDone:
        ++completed_;
        trace::counter_add("serve.completed", 1);
        break;
      case RequestStatus::kCancelled:
        ++cancelled_;
        trace::counter_add("serve.cancelled", 1);
        break;
      case RequestStatus::kExpired:
        ++expired_;
        trace::counter_add("serve.expired", 1);
        break;
      case RequestStatus::kFailed:
        ++failed_;
        trace::counter_add("serve.failed", 1);
        break;
      case RequestStatus::kRejected:
        // counted at enqueue, under mu_; never admitted
        break;
      default:
        break;
    }
    if (status != RequestStatus::kRejected) {
      --inflight_;
      drained = draining_ && queue_.empty() && inflight_ == 0;
    }
  }
  {
    std::lock_guard<std::mutex> lock(rs->mu);
    rs->result.status = status;
    rs->done = true;
  }
  rs->cv.notify_all();
  if (drained) drained_cv_.notify_all();
  if (rs->req.on_complete) rs->req.on_complete(rs->result);
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  draining_ = true;
  space_cv_.notify_all();  // blocked submitters wake and get kRejected
  drained_cv_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
}

void SolveService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && executors_.empty()) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();
  for (auto& t : executors_) t.join();
  executors_.clear();
  if (flush_started_) {
    trace::stop_periodic_flush();
    flush_started_ = false;
  }
}

ServiceStats SolveService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.accepted = accepted_;
    s.completed = completed_;
    s.cancelled = cancelled_;
    s.expired = expired_;
    s.rejected = rejected_;
    s.failed = failed_;
    s.queue_depth = queue_.size();
    s.queue_high_water = queue_high_water_;
    s.inflight = inflight_;
    s.batch_solves = batch_solves_;
    s.batch_requests = batch_requests_;
  }
  s.cache = cache_.stats();
  s.schedules_verified = check::schedules_verified();
  return s;
}

}  // namespace gmg::serve

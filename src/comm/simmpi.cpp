#include "comm/simmpi.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "trace/trace.hpp"

namespace gmg::comm {
namespace detail {

namespace {
/// How long a blocked wait may stall before we declare deadlock.
/// Generous: the host has a single core, so rank threads time-slice.
constexpr auto kDeadlockTimeout = std::chrono::seconds(300);

std::size_t total_bytes(const std::vector<Segment>& segs) {
  std::size_t n = 0;
  for (const auto& s : segs) n += s.bytes;
  return n;
}
std::size_t total_bytes(const std::vector<ConstSegment>& segs) {
  std::size_t n = 0;
  for (const auto& s : segs) n += s.bytes;
  return n;
}

void copy_flat_to_segments(const std::byte* src,
                           const std::vector<Segment>& dst) {
  for (const auto& s : dst) {
    std::memcpy(s.data, src, s.bytes);
    src += s.bytes;
  }
}

void copy_segments_to_flat(const std::vector<ConstSegment>& src,
                           std::byte* dst) {
  for (const auto& s : src) {
    std::memcpy(dst, s.data, s.bytes);
    dst += s.bytes;
  }
}

/// General gather->scatter copy across mismatched segment boundaries.
void copy_segments(const std::vector<ConstSegment>& src,
                   const std::vector<Segment>& dst) {
  std::size_t si = 0, so = 0;  // source segment index / offset
  for (const auto& d : dst) {
    std::size_t filled = 0;
    while (filled < d.bytes) {
      GMG_ASSERT(si < src.size());
      const std::size_t n = std::min(d.bytes - filled, src[si].bytes - so);
      std::memcpy(static_cast<std::byte*>(d.data) + filled,
                  static_cast<const std::byte*>(src[si].data) + so, n);
      filled += n;
      so += n;
      if (so == src[si].bytes) {
        ++si;
        so = 0;
      }
    }
  }
}
}  // namespace

struct RequestState {
  bool done = false;
};

struct PendingRecv {
  int source = kAnySource;
  int tag = 0;
  std::vector<Segment> segments;
  std::shared_ptr<RequestState> state;
};

struct UnexpectedMessage {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> data;
};

struct Mailbox {
  std::deque<PendingRecv> posted;
  std::deque<UnexpectedMessage> unexpected;
};

struct WorldState {
  int nranks = 0;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Mailbox> mailboxes;

  // Generation-counted collectives.
  int barrier_count = 0;
  std::uint64_t barrier_gen = 0;

  int reduce_count = 0;
  std::uint64_t reduce_gen = 0;
  std::vector<double> reduce_buf;  // one contribution per rank
  double reduce_result = 0.0;

  int gather_count = 0;
  std::uint64_t gather_gen = 0;
  std::vector<double> gather_buf;
  std::vector<double> gather_result;

  /// Set when any rank throws, so peers blocked on collectives or
  /// receives fail fast instead of riding out the deadlock timeout.
  bool aborted = false;

  explicit WorldState(int n) : nranks(n), mailboxes(static_cast<size_t>(n)) {
    gather_buf.resize(static_cast<size_t>(n));
    reduce_buf.resize(static_cast<size_t>(n));
  }

  template <typename Pred>
  void wait_until(std::unique_lock<std::mutex>& lock, Pred pred,
                  const char* what) {
    if (!cv.wait_for(lock, kDeadlockTimeout,
                     [&] { return aborted || pred(); })) {
      throw Error(std::string("simmpi: timed out in ") + what +
                  " — communication deadlock");
    }
    if (aborted && !pred()) {
      throw Error(std::string("simmpi: peer rank failed during ") + what);
    }
  }
};

}  // namespace detail

using detail::WorldState;

int Communicator::size() const { return world_->nranks; }

Request Communicator::isendv(std::vector<ConstSegment> segments, int dest,
                             int tag) {
  GMG_REQUIRE(dest >= 0 && dest < world_->nranks, "invalid destination rank");
  trace::TraceSpan span("mpi.isend", trace::Category::kComm);
  auto state = std::make_shared<detail::RequestState>();
  const std::size_t bytes = detail::total_bytes(segments);
  bytes_sent_ += bytes;
  ++messages_sent_;
  trace::counter_add("mpi.bytes_sent", bytes);
  trace::counter_add("mpi.messages_sent", 1);

  std::lock_guard<std::mutex> lock(world_->mu);
  detail::Mailbox& box = world_->mailboxes[static_cast<size_t>(dest)];
  for (auto it = box.posted.begin(); it != box.posted.end(); ++it) {
    if ((it->source == kAnySource || it->source == rank_) && it->tag == tag) {
      GMG_REQUIRE(detail::total_bytes(it->segments) == bytes,
                  "simmpi: send/recv size mismatch");
      detail::copy_segments(segments, it->segments);
      it->state->done = true;
      box.posted.erase(it);
      state->done = true;  // buffered-send semantics
      world_->cv.notify_all();
      return Request(std::move(state));
    }
  }
  detail::UnexpectedMessage msg;
  msg.source = rank_;
  msg.tag = tag;
  msg.data.resize(bytes);
  detail::copy_segments_to_flat(segments, msg.data.data());
  box.unexpected.push_back(std::move(msg));
  state->done = true;
  return Request(std::move(state));
}

Request Communicator::isend(const void* buf, std::size_t bytes, int dest,
                            int tag) {
  return isendv({ConstSegment{buf, bytes}}, dest, tag);
}

Request Communicator::irecvv(std::vector<Segment> segments, int source,
                             int tag) {
  GMG_REQUIRE(source == kAnySource ||
                  (source >= 0 && source < world_->nranks),
              "invalid source rank");
  trace::TraceSpan span("mpi.irecv", trace::Category::kComm);
  auto state = std::make_shared<detail::RequestState>();
  const std::size_t bytes = detail::total_bytes(segments);

  std::lock_guard<std::mutex> lock(world_->mu);
  detail::Mailbox& box = world_->mailboxes[static_cast<size_t>(rank_)];
  for (auto it = box.unexpected.begin(); it != box.unexpected.end(); ++it) {
    if ((source == kAnySource || it->source == source) && it->tag == tag) {
      GMG_REQUIRE(it->data.size() == bytes,
                  "simmpi: send/recv size mismatch");
      detail::copy_flat_to_segments(it->data.data(), segments);
      box.unexpected.erase(it);
      state->done = true;
      return Request(std::move(state));
    }
  }
  box.posted.push_back(
      detail::PendingRecv{source, tag, std::move(segments), state});
  return Request(std::move(state));
}

Request Communicator::irecv(void* buf, std::size_t bytes, int source,
                            int tag) {
  return irecvv({Segment{buf, bytes}}, source, tag);
}

void Communicator::wait(Request& request) {
  Request reqs[1] = {request};
  wait_all(reqs);
}

bool Communicator::test(Request& request) {
  if (!request.valid()) return true;
  std::lock_guard<std::mutex> lock(world_->mu);
  return request.state_->done;
}

int Communicator::wait_any(std::span<Request> requests) {
  trace::TraceSpan span("mpi.wait_any", trace::Category::kWait);
  std::unique_lock<std::mutex> lock(world_->mu);
  int found = -1;
  const auto done_or_empty = [&] {
    found = -1;
    bool any_valid = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].valid()) continue;
      any_valid = true;
      if (requests[i].state_->done) {
        found = static_cast<int>(i);
        return true;
      }
    }
    return !any_valid;
  };
  world_->wait_until(lock, done_or_empty, "wait_any");
  if (found >= 0) requests[static_cast<std::size_t>(found)].state_.reset();
  return found;
}

void Communicator::wait_all(std::span<Request> requests) {
  trace::TraceSpan span("mpi.wait_all", trace::Category::kWait);
  std::unique_lock<std::mutex> lock(world_->mu);
  for (Request& r : requests) {
    if (!r.valid()) continue;
    world_->wait_until(lock, [&] { return r.state_->done; }, "wait_all");
  }
}

void Communicator::barrier() {
  trace::TraceSpan span("mpi.barrier", trace::Category::kWait);
  std::unique_lock<std::mutex> lock(world_->mu);
  const std::uint64_t gen = world_->barrier_gen;
  if (++world_->barrier_count == world_->nranks) {
    world_->barrier_count = 0;
    ++world_->barrier_gen;
    world_->cv.notify_all();
  } else {
    world_->wait_until(lock, [&] { return world_->barrier_gen != gen; },
                       "barrier");
  }
}

namespace {
// Contributions are buffered per rank and folded in rank order
// ((v0 + v1) + v2) + ... once the last one arrives, so a floating-point
// sum does not depend on which rank reached the collective first.
template <typename Combine>
double reduce_impl(WorldState* w, int rank, double v, Combine combine) {
  trace::TraceSpan span("mpi.allreduce", trace::Category::kWait);
  trace::counter_add("mpi.allreduce_calls", 1);
  std::unique_lock<std::mutex> lock(w->mu);
  const std::uint64_t gen = w->reduce_gen;
  w->reduce_buf[static_cast<size_t>(rank)] = v;
  if (++w->reduce_count == w->nranks) {
    double acc = w->reduce_buf[0];
    for (int r = 1; r < w->nranks; ++r)
      acc = combine(acc, w->reduce_buf[static_cast<size_t>(r)]);
    w->reduce_result = acc;
    w->reduce_count = 0;
    ++w->reduce_gen;
    w->cv.notify_all();
  } else {
    w->wait_until(lock, [&] { return w->reduce_gen != gen; }, "allreduce");
  }
  return w->reduce_result;
}
}  // namespace

double Communicator::allreduce_max(double v) {
  return reduce_impl(world_, rank_, v,
                     [](double a, double b) { return a > b ? a : b; });
}

double Communicator::allreduce_sum(double v) {
  return reduce_impl(world_, rank_, v,
                     [](double a, double b) { return a + b; });
}

std::vector<double> Communicator::allgather(double v) {
  trace::TraceSpan span("mpi.allgather", trace::Category::kWait);
  std::unique_lock<std::mutex> lock(world_->mu);
  const std::uint64_t gen = world_->gather_gen;
  world_->gather_buf[static_cast<size_t>(rank_)] = v;
  if (++world_->gather_count == world_->nranks) {
    world_->gather_result = world_->gather_buf;
    world_->gather_count = 0;
    ++world_->gather_gen;
    world_->cv.notify_all();
  } else {
    world_->wait_until(lock, [&] { return world_->gather_gen != gen; },
                       "allgather");
  }
  return world_->gather_result;
}

World::World(int nranks) : nranks_(nranks) {
  GMG_REQUIRE(nranks >= 1, "world needs at least one rank");
  state_ = std::make_unique<WorldState>(nranks);
}

World::~World() = default;

void World::run(const std::function<void(Communicator&)>& fn) {
  // Fresh mailboxes per run so leftover state cannot leak across runs.
  for (auto& box : state_->mailboxes) {
    box.posted.clear();
    box.unexpected.clear();
  }
  state_->aborted = false;

  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(nranks_));
  std::vector<Communicator> comms;
  comms.reserve(static_cast<size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r)
    comms.push_back(Communicator(state_.get(), r));

  threads.reserve(static_cast<size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([&, r] {
      // Tag every event this rank thread records with its rank, so
      // trace sinks render one timeline pid per simulated rank.
      trace::set_rank(r);
      try {
        fn(comms[static_cast<size_t>(r)]);
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
        {
          std::lock_guard<std::mutex> lock(state_->mu);
          state_->aborted = true;
        }
        state_->cv.notify_all();
      }
    });
  }
  for (auto& t : threads) t.join();

  total_bytes_ = 0;
  total_messages_ = 0;
  for (const auto& c : comms) {
    total_bytes_ += c.bytes_sent();
    total_messages_ += c.messages_sent();
  }
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace gmg::comm

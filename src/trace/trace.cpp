#include "trace/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace gmg::trace {
namespace {

/// Parse a positive integer environment variable, clamped; `fallback`
/// when unset or unparsable.
std::size_t env_size(const char* name, std::size_t fallback, std::size_t lo,
                     std::size_t hi) {
  const char* s = std::getenv(name);
  if (s == nullptr) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || v <= 0) return fallback;
  return std::clamp(static_cast<std::size_t>(v), lo, hi);
}

struct RawEvent {
  const char* name = nullptr;
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;
  std::int32_t level = -1;
  std::int32_t rank = 0;
  Category cat = Category::kOther;
};

struct RawCounter {
  const char* name = nullptr;
  int rank = 0;
  std::uint64_t value = 0;
};

/// One thread's event ring plus a mutex-guarded counter table. The
/// ring is single-producer/single-consumer: only the owning thread
/// advances `head` (a release store after writing the slot), and only
/// a drainer — one at a time, under the registry lock — advances
/// `tail` (a release store after reading the slots). Each side loads
/// the other's index with acquire ordering, so no slot is ever written
/// and read at once. Events in [tail, head) are pending; while
/// events.size() are pending the owner drops new ones and counts them.
struct ThreadBuffer {
  explicit ThreadBuffer(int tid_) : events(ring_capacity()), tid(tid_) {}

  std::vector<RawEvent> events;
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> tail{0};
  std::size_t write_slot = 0;  // head's slot; owner only
  std::size_t read_slot = 0;   // tail's slot; drainer only
  std::atomic<std::uint64_t> dropped{0};
  int tid = 0;

  std::mutex counter_mu;
  std::vector<RawCounter> counters;
};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;  // owned by live threads
  std::vector<std::shared_ptr<ThreadBuffer>> free;     // drained, reusable
  int next_tid = 0;
};

/// Leaked singleton: rank threads may still touch their buffers while
/// static destructors run, so the registry must outlive everything.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

/// A parked event: the ring's raw event plus its recorder's thread id.
struct ParkedEvent {
  RawEvent event;
  int tid = 0;
};

using CounterTable = std::map<std::pair<std::string_view, int>, std::uint64_t>;

/// Where the events of exited threads and of periodic flushes wait for
/// the next collect(): a ring of at most `keep_spans` raw events — once
/// it is full each new event overwrites the oldest, counted in
/// `dropped`, so a runaway service degrades loudly instead of
/// exhausting memory — and a counter table merged by (name, rank) as
/// entries arrive. Names stay literal pointers; only collect() builds
/// SpanRecords.
struct FlushStore {
  std::mutex mu;
  std::vector<ParkedEvent> events;
  std::size_t oldest = 0;  // the slot the next event overwrites once full
  CounterTable counters;
  std::uint64_t dropped = 0;
  std::size_t keep_spans =
      env_size("GMG_TRACE_FLUSH_KEEP", std::size_t{1} << 18,
               std::size_t{1} << 10, std::size_t{1} << 26);

  void park(const RawEvent& e, int tid) {
    if (events.size() < keep_spans) {
      // Grow geometrically but never past the bound.
      if (events.size() == events.capacity()) {
        events.reserve(std::min(
            keep_spans, std::max<std::size_t>(1024, 2 * events.size())));
      }
      events.push_back(ParkedEvent{e, tid});
      return;
    }
    events[oldest] = ParkedEvent{e, tid};
    if (++oldest == events.size()) oldest = 0;
    ++dropped;
  }
};

FlushStore& flush_store() {
  static FlushStore* s = new FlushStore;
  return *s;
}

/// The background flusher thread and its stop signal.
struct Flusher {
  std::mutex mu;
  std::condition_variable cv;
  std::thread thread;
  bool stop = false;
  bool running = false;
};

Flusher& flusher() {
  static Flusher* f = new Flusher;
  return *f;
}

std::atomic<bool> g_enabled{true};

thread_local int tls_rank = 0;

/// Visit the pending events of `b`, oldest first; with `consume`, hand
/// their slots back to the owner. The caller holds the registry lock,
/// which makes it the ring's one consumer.
template <class Fn>
void read_ring(ThreadBuffer& b, bool consume, Fn&& fn) {
  const std::uint64_t head = b.head.load(std::memory_order_acquire);
  const std::uint64_t tail = b.tail.load(std::memory_order_relaxed);
  std::size_t slot = b.read_slot;
  for (std::uint64_t i = tail; i != head; ++i) {
    fn(b.events[slot]);
    if (++slot == b.events.size()) slot = 0;
  }
  if (consume) {
    b.read_slot = slot;
    b.tail.store(head, std::memory_order_release);
  }
}

/// Move everything `b` holds — pending events, counters, drops — into
/// the flush store. Thread exit and flush_now() both park through here.
/// The caller holds the registry lock and the flush-store lock.
void park_buffer(ThreadBuffer& b, FlushStore& fs) {
  read_ring(b, /*consume=*/true,
            [&](const RawEvent& e) { fs.park(e, b.tid); });
  fs.dropped += b.dropped.exchange(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(b.counter_mu);
  for (const RawCounter& c : b.counters)
    fs.counters[{c.name, c.rank}] += c.value;
  b.counters.clear();
}

/// At thread exit the owning thread parks its ring in the bounded flush
/// store and returns the buffer to the free list. Parking eagerly
/// (rather than waiting for a clearing collect()) keeps trace memory
/// bounded by the peak number of concurrent threads: a serving process
/// spawns short-lived world threads per request, and stranding one
/// full ring per thread ever created grows without bound.
struct TlsHandle {
  std::shared_ptr<ThreadBuffer> buf;
  ~TlsHandle() {
    if (!buf) return;
    Registry& reg = registry();
    FlushStore& fs = flush_store();
    std::scoped_lock lock(reg.mu, fs.mu);
    park_buffer(*buf, fs);
    auto it = std::find(reg.buffers.begin(), reg.buffers.end(), buf);
    if (it != reg.buffers.end()) reg.buffers.erase(it);
    reg.free.push_back(std::move(buf));
  }
};
thread_local TlsHandle tls_handle;

ThreadBuffer* local_buffer() {
  if (!tls_handle.buf) {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    if (!reg.free.empty()) {
      tls_handle.buf = std::move(reg.free.back());
      reg.free.pop_back();
    } else {
      tls_handle.buf = std::make_shared<ThreadBuffer>(reg.next_tid++);
    }
    reg.buffers.push_back(tls_handle.buf);
  }
  return tls_handle.buf.get();
}

void push_event(const char* name, Category cat, int level, std::uint64_t t0,
                std::uint64_t dur) {
  ThreadBuffer* b = local_buffer();
  const std::uint64_t head = b->head.load(std::memory_order_relaxed);
  if (head - b->tail.load(std::memory_order_acquire) >= b->events.size()) {
    b->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->events[b->write_slot] = RawEvent{name, t0, dur, level, tls_rank, cat};
  if (++b->write_slot == b->events.size()) b->write_slot = 0;
  b->head.store(head + 1, std::memory_order_release);
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kCompute:
      return "compute";
    case Category::kComm:
      return "comm";
    case Category::kWait:
      return "wait";
    case Category::kModel:
      return "model";
    case Category::kExec:
      return "exec";
    case Category::kOther:
      return "other";
  }
  return "other";
}

Category category_from_name(std::string_view name) {
  if (name == "compute") return Category::kCompute;
  if (name == "comm") return Category::kComm;
  if (name == "wait") return Category::kWait;
  if (name == "model") return Category::kModel;
  if (name == "exec") return Category::kExec;
  return Category::kOther;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::size_t ring_capacity() {
  static const std::size_t cap =
      env_size("GMG_TRACE_RING", std::size_t{1} << 16, std::size_t{1} << 10,
               std::size_t{1} << 24);
  return cap;
}

void set_rank(int rank) { tls_rank = rank; }
int current_rank() { return tls_rank; }

TraceSpan::TraceSpan(const char* name, Category cat, int level) {
  name_ = name;
  cat_ = cat;
  level_ = level;
  recording_ = enabled();
  t0_ = now_ns();
}

TraceSpan::~TraceSpan() {
  if (recording_) push_event(name_, cat_, level_, t0_, now_ns() - t0_);
}

double TraceSpan::elapsed() const {
  return static_cast<double>(now_ns() - t0_) * 1e-9;
}

void counter_add(const char* name, std::uint64_t delta) {
  if (!enabled()) return;
  ThreadBuffer* b = local_buffer();
  std::lock_guard<std::mutex> lock(b->counter_mu);
  for (RawCounter& c : b->counters) {
    // Literal names usually dedup to one pointer; fall back to a
    // string compare so equal names from different TUs still merge.
    if (c.rank == tls_rank &&
        (c.name == name || std::string_view(c.name) == name)) {
      c.value += delta;
      return;
    }
  }
  b->counters.push_back(RawCounter{name, tls_rank, delta});
}

std::uint64_t Snapshot::counter_total(std::string_view name) const {
  std::uint64_t total = 0;
  for (const CounterTotal& c : counters)
    if (c.name == name) total += c.value;
  return total;
}

double Snapshot::span_seconds(std::string_view name, int rank) const {
  double total = 0;
  for (const SpanRecord& s : spans)
    if (s.name == name && (rank < 0 || s.rank == rank)) total += s.seconds();
  return total;
}

int Snapshot::max_rank() const {
  int m = -1;
  for (const SpanRecord& s : spans) m = std::max(m, s.rank);
  for (const CounterTotal& c : counters) m = std::max(m, c.rank);
  return m;
}

Snapshot collect(bool clear) {
  // Under the locks, copy raw events and merge counters; the
  // SpanRecords (one string each) are built after releasing them.
  std::vector<ParkedEvent> events;
  CounterTable counters;
  Snapshot snap;
  {
    Registry& reg = registry();
    FlushStore& fs = flush_store();
    std::scoped_lock lock(reg.mu, fs.mu);
    if (clear) {
      events = std::exchange(fs.events, {});
      fs.oldest = 0;
      counters = std::exchange(fs.counters, {});
      snap.dropped = std::exchange(fs.dropped, 0);
    } else {
      events = fs.events;
      counters = fs.counters;
      snap.dropped = fs.dropped;
    }
    for (const auto& b : reg.buffers) {
      read_ring(*b, clear, [&](const RawEvent& e) {
        events.push_back(ParkedEvent{e, b->tid});
      });
      snap.dropped += clear
                          ? b->dropped.exchange(0, std::memory_order_relaxed)
                          : b->dropped.load(std::memory_order_relaxed);
      std::lock_guard<std::mutex> clock(b->counter_mu);
      for (const RawCounter& c : b->counters)
        counters[{c.name, c.rank}] += c.value;
      if (clear) b->counters.clear();
    }
  }

  // The snapshot ordering contract documented in trace.hpp: spans by
  // (rank, tid, t0, -dur), counters by (name, rank) as the table keeps
  // them.
  snap.spans.reserve(events.size());
  for (const ParkedEvent& p : events) {
    const RawEvent& e = p.event;
    snap.spans.push_back(
        SpanRecord{e.name, e.cat, e.rank, p.tid, e.level, e.t0_ns, e.dur_ns});
  }
  std::sort(snap.spans.begin(), snap.spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.rank != b.rank) return a.rank < b.rank;
              if (a.tid != b.tid) return a.tid < b.tid;
              if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
              return a.dur_ns > b.dur_ns;  // parent before child
            });
  snap.counters.reserve(counters.size());
  for (const auto& [key, value] : counters)
    snap.counters.push_back(
        CounterTotal{std::string(key.first), key.second, value});
  return snap;
}

void clear() { (void)collect(/*clear=*/true); }

void flush_now() {
  Registry& reg = registry();
  FlushStore& fs = flush_store();
  std::scoped_lock lock(reg.mu, fs.mu);
  for (const auto& b : reg.buffers) park_buffer(*b, fs);
}

namespace detail {

FlushStoreStats flush_store_stats() {
  FlushStore& fs = flush_store();
  std::lock_guard<std::mutex> lock(fs.mu);
  return FlushStoreStats{fs.events.size(), fs.keep_spans, fs.counters.size()};
}

}  // namespace detail

void start_periodic_flush(double interval_seconds) {
  if (!(interval_seconds > 0)) return;
  Flusher& f = flusher();
  stop_periodic_flush();
  std::lock_guard<std::mutex> lock(f.mu);
  f.stop = false;
  f.running = true;
  f.thread = std::thread([interval_seconds, &f] {
    const auto interval = std::chrono::duration<double>(interval_seconds);
    std::unique_lock<std::mutex> worker_lock(f.mu);
    while (!f.cv.wait_for(worker_lock, interval, [&] { return f.stop; })) {
      worker_lock.unlock();
      flush_now();
      worker_lock.lock();
    }
  });
}

bool start_periodic_flush_from_env() {
  const char* s = std::getenv("GMG_TRACE_FLUSH_MS");
  if (s == nullptr) return false;
  char* end = nullptr;
  const double ms = std::strtod(s, &end);
  if (end == s || !(ms > 0)) return false;
  start_periodic_flush(ms * 1e-3);
  return true;
}

void stop_periodic_flush() {
  Flusher& f = flusher();
  std::thread joinable;
  {
    std::lock_guard<std::mutex> lock(f.mu);
    if (!f.running) return;
    f.stop = true;
    f.running = false;
    joinable = std::move(f.thread);
  }
  f.cv.notify_all();
  joinable.join();
}

}  // namespace gmg::trace

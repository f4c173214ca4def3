// Always-on structured tracing: the single source of timing truth for
// the repo (DESIGN.md § Tracing & metrics).
//
// Every instrumented site records *events* — completed spans with a
// monotonic start timestamp and duration, or monotonically increasing
// named counters — into a per-thread ring buffer. Recording is
// wait-free for spans (a single-producer/single-consumer ring: the
// owner release-stores its write index, a drainer its read index) and
// takes one uncontended mutex for counters, so hot kernels can be
// wrapped unconditionally; the measured overhead budget is <2% on the
// fig5 kernels (see BENCH_trace_overhead.json).
//
// Rank identity comes from the simmpi layer: World::run tags each rank
// thread via set_rank(), so a collected snapshot can be rendered with
// one Chrome-trace pid per simulated rank and exchange overlap across
// ranks is visible on a shared timeline (chrome_trace.hpp). Aggregated
// views (metrics.hpp, and report.hpp's per-(level, phase) profile,
// level_stats) are consumers of the same snapshots.
//
// Span names must be string literals (or otherwise outlive the
// registry); the recorder stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace gmg::trace {

/// Coarse event classification, mapped to the Chrome trace "cat"
/// field. kWait marks time blocked on another rank (exchange waits,
/// barriers, reductions) — the per-rank skew signal. kExec marks a
/// pool worker's share of a parallel_for (exec::Engine), attributed to
/// the submitting rank so it lands on that rank's timeline row.
enum class Category : std::uint8_t {
  kCompute,
  kComm,
  kWait,
  kModel,
  kExec,
  kOther
};

const char* category_name(Category c);
Category category_from_name(std::string_view name);

/// Monotonic timestamp in nanoseconds (steady_clock).
std::uint64_t now_ns();

/// Tracing is on by default ("always on"); disable only to measure
/// the instrumentation overhead itself.
bool enabled();
void set_enabled(bool on);

/// Events each per-thread ring buffer holds before it starts dropping.
/// Configurable via GMG_TRACE_RING (events per ring, clamped to
/// [2^10, 2^24]); resolved once, at the first buffer creation.
std::size_t ring_capacity();

/// Thread-local simulated-rank id attached to every event this thread
/// records from now on. comm::World::run sets it on each rank thread;
/// the main thread defaults to rank 0.
void set_rank(int rank);
int current_rank();

/// RAII span guard: opens at construction, records one completed event
/// at destruction when tracing was enabled at construction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, Category cat = Category::kCompute,
                     int level = -1);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Seconds since construction; valid with tracing off too.
  double elapsed() const;

 private:
  const char* name_ = nullptr;
  std::uint64_t t0_ = 0;
  int level_ = -1;
  Category cat_ = Category::kOther;
  bool recording_ = false;  // tracing was enabled at construction
};

/// Add to a named monotonic counter (bytes packed, messages sent,
/// flops, allreduce calls, ...). Attributed to the calling thread's
/// current rank.
void counter_add(const char* name, std::uint64_t delta);

// ---------------------------------------------------------------------------
// Snapshots: an owned copy of everything recorded so far, for the
// sinks. Collect after worker threads have joined (World::run joins
// its rank threads, so bench mains can collect at exit).
// ---------------------------------------------------------------------------

struct SpanRecord {
  std::string name;
  Category cat = Category::kOther;
  int rank = 0;
  int tid = 0;      // recorder thread id, unique within a snapshot
  int level = -1;   // multigrid level, -1 when not applicable
  std::uint64_t t0_ns = 0;
  std::uint64_t dur_ns = 0;

  std::uint64_t t1_ns() const { return t0_ns + dur_ns; }
  double seconds() const { return static_cast<double>(dur_ns) * 1e-9; }
};

struct CounterTotal {
  std::string name;
  int rank = 0;
  std::uint64_t value = 0;
};

struct Snapshot {
  /// Sorted by (rank, tid, t0, -dur) so a parent span precedes its
  /// children within a thread.
  std::vector<SpanRecord> spans;
  /// One entry per (name, rank), sorted by (name, rank).
  std::vector<CounterTotal> counters;
  /// Events lost to ring-buffer overflow (0 in every shipped bench).
  std::uint64_t dropped = 0;

  /// Sum of one counter across ranks.
  std::uint64_t counter_total(std::string_view name) const;
  /// Total seconds of all spans with this name (optionally one rank).
  double span_seconds(std::string_view name, int rank = -1) const;
  /// Largest rank id seen in spans/counters, -1 if empty.
  int max_rank() const;
};

/// Harvest every live thread's ring buffer into one snapshot, merged
/// with the flush store (where exited threads and the periodic flusher
/// park their events). With `clear`, the rings and the store are
/// emptied.
Snapshot collect(bool clear = true);

/// Drop everything recorded so far (collect-and-discard).
void clear();

// ---------------------------------------------------------------------------
// Periodic flushing: a long-running process (the solve service) emits
// spans indefinitely, but each ring holds only ring_capacity() events.
// The flusher drains every ring into the process-wide flush store on
// an interval, so collect() still returns the full history and nothing
// is dropped silently. The store is a bounded ring of raw events (the
// oldest give way, counted in Snapshot::dropped): GMG_TRACE_FLUSH_KEEP
// events, default 2^18. A thread parks its ring there when it exits.
// ---------------------------------------------------------------------------

/// Start the background flusher (idempotent; restarting with a new
/// interval replaces the old thread). interval_seconds must be > 0.
void start_periodic_flush(double interval_seconds);

/// Start from GMG_TRACE_FLUSH_MS (milliseconds between flushes);
/// returns false (and does nothing) when the variable is unset or
/// invalid.
bool start_periodic_flush_from_env();

/// Join the flusher thread. Accumulated events stay merged into the
/// next collect(). Safe to call when no flusher runs.
void stop_periodic_flush();

/// One synchronous flush: drain all rings into the flush store (what
/// the background thread does each tick).
void flush_now();

namespace detail {

/// Flush-store occupancy, for tests: parked events, the store's bound
/// (GMG_TRACE_FLUSH_KEEP) and merged (name, rank) counter entries.
struct FlushStoreStats {
  std::size_t events = 0;
  std::size_t capacity = 0;
  std::size_t counter_entries = 0;
};
FlushStoreStats flush_store_stats();

}  // namespace detail

}  // namespace gmg::trace

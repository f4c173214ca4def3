// The src/trace subsystem: span nesting across rank threads, counter
// totals agreeing with the comm layer's own byte accounting, the flush
// store that exited threads and the periodic flusher park events in,
// and the Chrome trace-event JSON round-tripping through the reader
// that tools/trace_report uses.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <thread>
#include <vector>

#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/metrics.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace gmg::trace {
namespace {

/// Every trace test owns the global recorder for its duration.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(true);
    clear();
  }
};

using TraceSpans = TraceTest;

TEST_F(TraceSpans, NestingAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kInner = 16;
  std::vector<std::thread> workers;
  for (int r = 0; r < kThreads; ++r) {
    workers.emplace_back([r] {
      set_rank(r);
      TraceSpan outer("outer", Category::kCompute, r);
      for (int i = 0; i < kInner; ++i) {
        TraceSpan inner("inner", Category::kComm);
        (void)inner;
      }
    });
  }
  for (auto& w : workers) w.join();

  const Snapshot snap = collect();
  EXPECT_EQ(snap.dropped, 0u);

  for (int r = 0; r < kThreads; ++r) {
    const SpanRecord* outer = nullptr;
    std::vector<const SpanRecord*> inners;
    int tid = -1;
    for (const SpanRecord& s : snap.spans) {
      if (s.rank != r) continue;
      if (tid == -1) tid = s.tid;
      // One thread per rank in this test.
      EXPECT_EQ(s.tid, tid);
      if (s.name == "outer") {
        outer = &s;
        EXPECT_EQ(s.level, r);
      } else if (s.name == "inner") {
        inners.push_back(&s);
      }
    }
    ASSERT_NE(outer, nullptr) << "rank " << r;
    ASSERT_EQ(inners.size(), static_cast<std::size_t>(kInner));
    std::uint64_t prev_end = 0;
    for (const SpanRecord* in : inners) {
      // Inner spans nest inside the outer one and do not overlap each
      // other (they were strictly sequential on the thread).
      EXPECT_GE(in->t0_ns, outer->t0_ns);
      EXPECT_LE(in->t1_ns(), outer->t1_ns());
      EXPECT_GE(in->t0_ns, prev_end);
      prev_end = in->t1_ns();
      EXPECT_EQ(in->cat, Category::kComm);
    }
  }

  // Snapshot ordering puts a parent before its children in-thread.
  for (int r = 0; r < kThreads; ++r) {
    std::vector<const SpanRecord*> mine;
    for (const SpanRecord& s : snap.spans)
      if (s.rank == r) mine.push_back(&s);
    ASSERT_FALSE(mine.empty());
    EXPECT_EQ(mine.front()->name, "outer");
  }
}

TEST_F(TraceSpans, DisabledTracingStillMeasures) {
  set_enabled(false);
  {
    TraceSpan span("off");
    const double first = span.elapsed();
    EXPECT_GE(first, 0.0);
    EXPECT_GE(span.elapsed(), first);
  }
  set_enabled(true);
  const Snapshot snap = collect();
  EXPECT_EQ(snap.span_seconds("off"), 0.0);
}

// The artifact's profile (examples/gmg_artifact): each rank's
// per-(level, phase) sums from level_stats, reduced across ranks.
using CrossRankReport = TraceTest;

TEST_F(CrossRankReport, StatsSpanTheRanks) {
  comm::World world(4);
  world.run([](comm::Communicator&) {
    for (int i = 0; i < 2; ++i) {
      TraceSpan span("applyOp", Category::kCompute, 0);
    }
    TraceSpan exchange("exchange", Category::kComm, 1);
    TraceSpan untimed("gmg.vcycle");  // no level: in no profile
  });
  const Snapshot snap = collect();
  RunningStats across;
  for (int r = 0; r < 4; ++r) {
    const LevelStats mine = level_stats(snap, r);
    ASSERT_EQ(mine.size(), 2u) << "rank " << r;
    EXPECT_EQ(mine.at({0, "applyOp"}).count(), 2u);
    EXPECT_EQ(mine.at({1, "exchange"}).count(), 1u);
    across.add(mine.at({0, "applyOp"}).sum());
  }
  EXPECT_EQ(across.count(), 4u);
  EXPECT_LE(across.min(), across.mean());
  EXPECT_LE(across.mean(), across.max());
  // Pooled over ranks: one sample per invocation.
  EXPECT_EQ(level_stats(snap).at({0, "applyOp"}).count(), 8u);
}

TEST_F(CrossRankReport, ArtifactFormatLines) {
  Snapshot snap;
  const auto span = [&](int rank, int level, const char* name,
                        std::uint64_t dur_ns) {
    SpanRecord s;
    s.name = name;
    s.rank = rank;
    s.level = level;
    s.dur_ns = dur_ns;
    snap.spans.push_back(s);
  };
  for (int r = 0; r < 2; ++r) {
    span(r, 0, "applyOp", 250'000'000);
    span(r, 0, "smooth+residual", 500'000'000);
  }
  span(1, 2, "smooth", 125'000'000);
  span(0, -1, "gmg.vcycle", 1'000'000'000);
  const std::string report = format_level_stats(snap);
  EXPECT_NE(report.find("level 0 applyOp ["), std::string::npos);
  EXPECT_NE(report.find("level 0 smooth+residual ["), std::string::npos);
  EXPECT_NE(report.find("level 2 smooth ["), std::string::npos);
  EXPECT_NE(report.find("σ"), std::string::npos);
  EXPECT_EQ(report.find("gmg.vcycle"), std::string::npos);
  // applyOp identical on both ranks: zero spread.
  EXPECT_NE(report.find("[0.25, 0.25, 0.25]"), std::string::npos);
  // One rank's profile holds only its own spans.
  EXPECT_EQ(format_level_stats(snap, 0).find("level 2"), std::string::npos);
}

using TraceCounters = TraceTest;

TEST_F(TraceCounters, ExchangeCountersMatchByteAccounting) {
  constexpr index_t sub = 8, bdim = 4;
  constexpr int kExchanges = 3;
  const CartDecomp decomp({2 * sub, sub, sub}, {2, 1, 1});
  comm::World world(2);
  std::uint64_t bytes_per_call = 0;
  world.run([&](comm::Communicator& c) {
    BrickedArray f =
        BrickedArray::create({sub, sub, sub}, BrickShape::cube(bdim));
    comm::BrickExchange ex(f.grid_ptr(), f.shape(), decomp, c.rank(),
                           comm::BrickExchangeMode::kPacked);
    for (int i = 0; i < kExchanges; ++i) ex.exchange(c, f);
    if (c.rank() == 0) bytes_per_call = ex.bytes_per_exchange();
  });

  const Snapshot snap = collect();
  ASSERT_GT(bytes_per_call, 0u);
  // Both ranks exchanged kExchanges times over symmetric plans.
  EXPECT_EQ(snap.counter_total("exchange.calls"), 2u * kExchanges);
  EXPECT_EQ(snap.counter_total("exchange.bytes"),
            2u * kExchanges * bytes_per_call);
  // The simmpi layer's own ledger and the trace counters are two
  // independent tallies of the same isend traffic.
  EXPECT_EQ(snap.counter_total("mpi.bytes_sent"), world.total_bytes_sent());
  EXPECT_EQ(snap.counter_total("mpi.messages_sent"),
            world.total_messages_sent());
  // kPacked stages remote payloads through gather buffers.
  EXPECT_EQ(snap.counter_total("exchange.bytes_packed"),
            world.total_bytes_sent());
  // Per-rank attribution: the symmetric 2-rank split sends the same
  // bytes from each side.
  double r0 = 0, r1 = 0;
  for (const CounterTotal& c : snap.counters) {
    if (c.name != "mpi.bytes_sent") continue;
    (c.rank == 0 ? r0 : r1) += static_cast<double>(c.value);
  }
  EXPECT_EQ(r0, r1);
}

using TraceFlushStore = TraceTest;

TEST_F(TraceFlushStore, ExitedThreadsReachCollect) {
  std::thread t([] {
    set_rank(3);
    TraceSpan outer("exited.outer", Category::kCompute, 1);
    TraceSpan inner("exited.inner", Category::kComm);
    counter_add("exited.counter", 5);
  });
  t.join();
  // The thread parked its ring when it exited.
  EXPECT_EQ(detail::flush_store_stats().events, 2u);

  const Snapshot snap = collect();
  EXPECT_EQ(snap.dropped, 0u);
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].name, "exited.outer");  // parent first
  EXPECT_EQ(snap.spans[0].level, 1);
  EXPECT_EQ(snap.spans[1].name, "exited.inner");
  EXPECT_EQ(snap.spans[1].cat, Category::kComm);
  for (const SpanRecord& s : snap.spans) EXPECT_EQ(s.rank, 3);
  EXPECT_EQ(snap.spans[0].tid, snap.spans[1].tid);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "exited.counter");
  EXPECT_EQ(snap.counters[0].rank, 3);
  EXPECT_EQ(snap.counters[0].value, 5u);
  // A clearing collect empties the store.
  EXPECT_EQ(detail::flush_store_stats().events, 0u);
  EXPECT_TRUE(collect().spans.empty());
}

TEST_F(TraceFlushStore, KeepsTheNewestEventsAndCountsTheRest) {
  // Short-lived threads park more events than the store keeps; each
  // span's level is its global sequence number.
  const std::size_t keep = detail::flush_store_stats().capacity;
  constexpr int kPerThread = 1000;  // fits the smallest ring
  const int threads = static_cast<int>(keep / kPerThread) + 2;
  const std::size_t recorded =
      static_cast<std::size_t>(threads) * kPerThread;
  for (int t = 0; t < threads; ++t) {
    std::thread([t] {
      for (int i = 0; i < kPerThread; ++i)
        TraceSpan("flush.seq", Category::kOther, t * kPerThread + i);
    }).join();
  }
  EXPECT_EQ(detail::flush_store_stats().events, keep);

  const Snapshot snap = collect();
  ASSERT_EQ(snap.spans.size(), keep);
  EXPECT_EQ(snap.dropped, recorded - keep);
  std::vector<bool> seen(recorded, false);
  for (const SpanRecord& s : snap.spans) {
    const std::size_t seq = static_cast<std::size_t>(s.level);
    ASSERT_GE(seq, recorded - keep) << "an old event survived";
    ASSERT_LT(seq, recorded);
    ASSERT_FALSE(seen[seq]) << "event " << seq << " twice";
    seen[seq] = true;
  }
}

TEST_F(TraceFlushStore, CountersOfExitedThreadsMergeByNameAndRank) {
  constexpr int kThreads = 1000;
  constexpr int kRanks = 4;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i] {
      set_rank(i % kRanks);
      counter_add("merge.calls", 1);
      counter_add("merge.bytes", static_cast<std::uint64_t>(i));
    }).join();
  }
  // One store entry per (name, rank), however many threads exited.
  EXPECT_EQ(detail::flush_store_stats().counter_entries,
            static_cast<std::size_t>(2 * kRanks));

  const Snapshot snap = collect();
  EXPECT_EQ(snap.counter_total("merge.calls"),
            static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(snap.counter_total("merge.bytes"),
            static_cast<std::uint64_t>(kThreads) * (kThreads - 1) / 2);
  ASSERT_EQ(snap.counters.size(), static_cast<std::size_t>(2 * kRanks));
  for (int r = 0; r < kRanks; ++r) {
    // Sorted by (name, rank): "merge.bytes" entries come first.
    const CounterTotal& calls =
        snap.counters[static_cast<std::size_t>(kRanks + r)];
    EXPECT_EQ(calls.name, "merge.calls");
    EXPECT_EQ(calls.rank, r);
    EXPECT_EQ(calls.value, static_cast<std::uint64_t>(kThreads / kRanks));
  }
}

TEST_F(TraceFlushStore, FlushingWhileRecordingLosesNothing) {
  // One thread records while another flushes its live ring in a loop:
  // every span is either collected or counted as dropped.
  constexpr int kSpans = 100000;
  std::atomic<bool> done{false};
  std::thread recorder([&] {
    for (int i = 0; i < kSpans; ++i) TraceSpan("race.span", Category::kOther);
    done.store(true);
  });
  std::thread flusher([&] {
    while (!done.load()) flush_now();
  });
  recorder.join();
  flusher.join();

  const Snapshot snap = collect();
  std::size_t collected = 0;
  for (const SpanRecord& s : snap.spans) collected += s.name == "race.span";
  EXPECT_EQ(collected + snap.dropped, static_cast<std::size_t>(kSpans));
}

using ChromeTrace = TraceTest;

TEST_F(ChromeTrace, JsonRoundTripsExactly) {
  std::thread other([] {
    set_rank(1);
    TraceSpan s("peer.work", Category::kWait, 2);
    counter_add("peer.counter", 41);
    counter_add("peer.counter", 1);
  });
  other.join();
  {
    TraceSpan s("local.work", Category::kCompute);
    TraceSpan nested("local.nested", Category::kModel);
  }
  counter_add("local.counter", 7);

  const Snapshot snap = collect();
  std::stringstream ss;
  write_chrome_trace(snap, ss);

  const Snapshot back = read_chrome_trace(ss);
  ASSERT_EQ(back.spans.size(), snap.spans.size());
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& a = snap.spans[i];
    const SpanRecord& b = back.spans[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.cat, b.cat);
    EXPECT_EQ(a.rank, b.rank);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.dur_ns, b.dur_ns);
    // Timestamps come back relative to the file origin: deltas between
    // spans are preserved exactly.
    EXPECT_EQ(a.t0_ns - snap.spans.front().t0_ns,
              b.t0_ns - back.spans.front().t0_ns);
  }
  EXPECT_EQ(back.counter_total("peer.counter"), 42u);
  EXPECT_EQ(back.counter_total("local.counter"), 7u);

  // The aggregated views agree between original and round-tripped.
  const MetricsSummary ma = summarize(snap), mb = summarize(back);
  ASSERT_EQ(ma.spans.size(), mb.spans.size());
  for (std::size_t i = 0; i < ma.spans.size(); ++i) {
    EXPECT_EQ(ma.spans[i].name, mb.spans[i].name);
    EXPECT_EQ(ma.spans[i].count, mb.spans[i].count);
    EXPECT_DOUBLE_EQ(ma.spans[i].total_s, mb.spans[i].total_s);
  }
  EXPECT_FALSE(render_report(back).empty());
}

TEST_F(ChromeTrace, ReportSumsExchangeWaitPerRank) {
  // Two fake rank threads with known wait durations: the per-rank
  // summary must attribute "exchange.wait" to the right ranks.
  for (int r = 0; r < 2; ++r) {
    std::thread t([r] {
      set_rank(r);
      TraceSpan outer("exchange", Category::kComm, 0);
      TraceSpan wait("exchange.wait", Category::kWait);
    });
    t.join();
  }
  const Snapshot snap = collect();
  const auto ranks = per_rank_summary(snap);
  ASSERT_EQ(ranks.size(), 2u);
  double wait_sum = 0;
  for (const RankSummary& rs : ranks) {
    EXPECT_GT(rs.exchange_s, 0.0);
    EXPECT_GT(rs.exchange_wait_s, 0.0);
    EXPECT_LE(rs.exchange_wait_s, rs.exchange_s);
    wait_sum += rs.exchange_wait_s;
  }
  EXPECT_NEAR(wait_sum, snap.span_seconds("exchange.wait"), 1e-12);
}

}  // namespace
}  // namespace gmg::trace

#include "trace/report.hpp"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>

#include "trace/metrics.hpp"

namespace gmg::trace {
namespace {

/// Walk one thread's time-sorted spans and distribute child durations
/// to parents (RAII spans nest properly within a thread).
void accumulate_thread(const std::vector<const SpanRecord*>& spans,
                       RankSummary& out) {
  struct Open {
    const SpanRecord* span;
    double child_s = 0;
  };
  std::vector<Open> stack;
  const auto close_until = [&](std::uint64_t t0) {
    while (!stack.empty() && stack.back().span->t1_ns() <= t0) {
      const Open top = stack.back();
      stack.pop_back();
      out.self_s[top.span->name] += top.span->seconds() - top.child_s;
    }
  };
  for (const SpanRecord* s : spans) {
    close_until(s->t0_ns);
    if (stack.empty()) {
      out.busy_s += s->seconds();
    } else {
      stack.back().child_s += s->seconds();
    }
    stack.push_back(Open{s});
  }
  close_until(std::numeric_limits<std::uint64_t>::max());
}

std::string seconds_str(double s) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << s;
  return os.str();
}

}  // namespace

std::vector<RankSummary> per_rank_summary(const Snapshot& snap) {
  std::map<int, RankSummary> by_rank;
  std::map<std::pair<int, int>, std::vector<const SpanRecord*>> by_thread;

  for (const SpanRecord& s : snap.spans) {
    RankSummary& r = by_rank[s.rank];
    r.rank = s.rank;
    if (s.name == "exchange") r.exchange_s += s.seconds();
    if (s.name == "exchange.wait") r.exchange_wait_s += s.seconds();
    by_thread[{s.rank, s.tid}].push_back(&s);
  }

  for (auto& [key, spans] : by_thread) {
    // Snapshot order is already (t0 asc, dur desc) within a thread.
    accumulate_thread(spans, by_rank[key.first]);
  }

  for (auto& [rank, r] : by_rank) {
    std::uint64_t lo = std::numeric_limits<std::uint64_t>::max(), hi = 0;
    for (const SpanRecord& s : snap.spans) {
      if (s.rank != rank) continue;
      lo = std::min(lo, s.t0_ns);
      hi = std::max(hi, s.t1_ns());
    }
    if (hi > lo) r.wall_s = static_cast<double>(hi - lo) * 1e-9;
  }

  std::vector<RankSummary> out;
  out.reserve(by_rank.size());
  for (auto& [rank, r] : by_rank) out.push_back(std::move(r));
  return out;
}

LevelStats level_stats(const Snapshot& snap, int rank) {
  LevelStats stats;
  for (const SpanRecord& s : snap.spans)
    if (s.level >= 0 && (rank < 0 || s.rank == rank))
      stats[{s.level, s.name}].add(s.seconds());
  return stats;
}

std::string format_level_stats(const Snapshot& snap, int rank) {
  std::ostringstream os;
  for (const auto& [key, st] : level_stats(snap, rank)) {
    os << "level " << key.first << ' ' << key.second << ' ' << st.summary()
       << '\n';
  }
  return os.str();
}

std::string render_report(const Snapshot& snap) {
  std::ostringstream os;
  const std::vector<RankSummary> ranks = per_rank_summary(snap);

  os << "== trace report ==\n";
  os << "spans: " << snap.spans.size() << "  counters: "
     << snap.counters.size() << "  ranks: " << ranks.size()
     << "  dropped events: " << snap.dropped << "\n";

  os << "\n-- per-rank timeline --\n";
  os << "rank      wall[s]      busy[s]  exchange[s]  exchange-wait[s]\n";
  double wait_sum = 0, exch_sum = 0;
  for (const RankSummary& r : ranks) {
    os << std::setw(4) << r.rank << "  " << std::setw(11)
       << seconds_str(r.wall_s) << "  " << std::setw(11)
       << seconds_str(r.busy_s) << "  " << std::setw(11)
       << seconds_str(r.exchange_s) << "  " << std::setw(16)
       << seconds_str(r.exchange_wait_s) << "\n";
    wait_sum += r.exchange_wait_s;
    exch_sum += r.exchange_s;
  }
  os << "exchange-wait sum across ranks: " << seconds_str(wait_sum) << " s\n";
  os << "exchange total across ranks:    " << seconds_str(exch_sum) << " s\n";

  os << "\n-- per-rank critical path (top self-time spans) --\n";
  for (const RankSummary& r : ranks) {
    std::vector<std::pair<std::string, double>> items(r.self_s.begin(),
                                                      r.self_s.end());
    std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    os << "rank " << r.rank << ":";
    const std::size_t n = std::min<std::size_t>(items.size(), 6);
    for (std::size_t i = 0; i < n; ++i) {
      const double pct =
          r.busy_s > 0 ? items[i].second / r.busy_s * 100.0 : 0.0;
      os << (i ? ", " : " ") << items[i].first << ' '
         << seconds_str(items[i].second) << "s (" << std::fixed
         << std::setprecision(1) << pct << "%)";
    }
    os << "\n";
  }

  const MetricsSummary m = summarize(snap);
  os << "\n-- aggregated span metrics --\n";
  os << "name                        count     total[s]       p50[s]       "
        "p99[s]\n";
  for (const SpanStats& s : m.spans) {
    os << std::left << std::setw(26) << s.name << std::right << std::setw(7)
       << s.count << "  " << std::setw(11) << seconds_str(s.total_s) << "  "
       << std::setw(11) << seconds_str(s.p50_s) << "  " << std::setw(11)
       << seconds_str(s.p99_s) << "\n";
  }

  if (!m.counters.empty()) {
    os << "\n-- counters (summed across ranks) --\n";
    for (const CounterTotal& c : m.counters)
      os << std::left << std::setw(26) << c.name << std::right << c.value
         << "\n";
  }

  const std::string prof = format_level_stats(snap);
  if (!prof.empty()) {
    os << "\n-- per-(level, phase) profile (artifact format) --\n" << prof;
  }
  return os.str();
}

}  // namespace gmg::trace

// Sink 3: human-readable reports over a trace snapshot — the per-rank
// timeline/critical-path/exchange-wait breakdowns printed by
// tools/trace_report, and the artifact-format per-(level, phase)
// profile of the solvers' phase spans (gmg/phase.hpp).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace gmg::trace {

struct RankSummary {
  int rank = 0;
  /// Timeline extent: last span end minus first span start.
  double wall_s = 0;
  /// Sum of top-level (un-nested) span durations — the rank's busy
  /// time; wall - busy is idle/untraced time.
  double busy_s = 0;
  /// Total of the solver's "exchange" phase spans (the umbrella over
  /// the exchange.* spans; 0 when exchange ran outside the solver).
  double exchange_s = 0;
  /// Total of "exchange.wait" spans — time blocked in wait_all inside
  /// the ghost exchange, the rank-skew signal.
  double exchange_wait_s = 0;
  /// Self time per span name (duration minus traced children),
  /// i.e. the rank's critical-path decomposition.
  std::map<std::string, double> self_s;
};

std::vector<RankSummary> per_rank_summary(const Snapshot& snap);

/// Per-(level, span name) stats over the levelled spans — the solvers'
/// phase spans — of rank `rank`, or of every rank pooled when -1: one
/// sample per span invocation. A cross-rank profile reduces each
/// rank's map (sum() per key) across ranks.
using LevelStats = std::map<std::pair<int, std::string>, RunningStats>;
LevelStats level_stats(const Snapshot& snap, int rank = -1);

/// Artifact-format lines of level_stats(snap, rank), e.g.
///   level 0 applyOp [0.000112, 0.000119, 0.000140] (σ: 7.1e-06)
std::string format_level_stats(const Snapshot& snap, int rank = -1);

/// The full trace_report rendering: per-rank table, critical-path
/// decomposition, aggregated span metrics, counters, and the
/// artifact-format profile.
std::string render_report(const Snapshot& snap);

}  // namespace gmg::trace

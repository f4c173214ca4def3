// Per-(level, operation) timing aggregates, reported in the
// artifact's output format:
//   level 0 applyOp [0.265012, 0.265184, 0.265346] (σ: 9.2e-05)
//
// Since the src/trace subsystem landed, the Profiler is a thin
// consumer of trace measurements: timed() opens a trace::TraceSpan
// (which puts the operation on the shared per-rank timeline) and
// records the *same* span duration into its running stats, so the
// timeline, the trace aggregates, and this report all share one
// source of timing truth. from_trace() rebuilds a Profiler purely
// from a collected snapshot.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "common/stats.hpp"
#include "trace/trace.hpp"

namespace gmg::perf {

/// Everything the V-cycle spends time on, including communication.
enum class Phase : int {
  kExchange = 0,
  kApplyOp,
  kSmooth,
  kSmoothResidual,
  kResidual,
  kRestriction,
  /// One fused descent pass covering the final smooth application,
  /// the residual, and the restriction (DESIGN.md §16) — for Jacobi the
  /// last one-pass sweep of the descent (its A*x included), for the GS
  /// tail a kResidual + kRestriction pair, when fusion is on.
  kFusedDescent,
  kInterpIncrement,
  kInitZero,
  kMaxNorm,
  kBottomSolve,
  /// One one-pass Jacobi sweep: A*x and the x update (and, on the last
  /// sweep of a split-schedule descent, the residual) in one pass per
  /// brick (DESIGN.md §16).
  kJacobiSweep,
  kCount
};

const char* phase_name(Phase p);

/// Reverse lookup; returns false when `name` is no phase.
bool phase_from_name(std::string_view name, Phase& out);

/// Trace category a phase renders under (kExchange blocks on peers).
trace::Category phase_category(Phase p);

class Profiler {
 public:
  void record(int level, Phase phase, double seconds) {
    stats_[{level, phase}].add(seconds);
  }

  /// Time one callable: emit a trace span for the timeline and record
  /// the identical duration into the aggregate.
  template <typename Fn>
  void timed(int level, Phase phase, Fn&& fn) {
    trace::TraceSpan span(phase_name(phase), phase_category(phase), level);
    fn();
    record(level, phase, span.close());
  }

  /// Rebuild the per-(level, phase) aggregate from a trace snapshot's
  /// levelled spans (inverse of timed()'s emission).
  static Profiler from_trace(const trace::Snapshot& snap);

  const RunningStats& stats(int level, Phase phase) const;
  bool has(int level, Phase phase) const {
    return stats_.count({level, phase}) != 0;
  }

  /// Total accumulated seconds for one phase at one level.
  double total(int level, Phase phase) const;
  /// Total accumulated seconds across all phases at one level.
  double level_total(int level) const;
  /// Grand total.
  double grand_total() const;
  int max_level() const;

  /// Fraction of one level's time spent in each phase (Table II).
  std::map<Phase, double> level_breakdown(int level) const;

  /// Artifact-format report, one line per (level, phase).
  std::string report() const;

  void clear() { stats_.clear(); }

 private:
  std::map<std::pair<int, Phase>, RunningStats> stats_;
};

}  // namespace gmg::perf

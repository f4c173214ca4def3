// The phase table: everything a multigrid cycle spends time on,
// communication included. The cycle's run executor (level_run.hpp) and
// the array baseline time each phase through timed_phase, as one trace
// span named phase_name(p), in category phase_category(p), at its
// multigrid level; trace::level_stats aggregates those spans per
// (level, name) into the artifact's [min, avg, max] (σ) profile.
#pragma once

#include "trace/trace.hpp"

namespace gmg {

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
};

/// The span name of a phase. Exhaustive: -Wswitch flags a Phase left
/// without a name (no default case).
constexpr const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kExchange:
      return "exchange";
    case Phase::kApplyOp:
      return "applyOp";
    case Phase::kSmooth:
      return "smooth";
    case Phase::kSmoothResidual:
      return "smooth+residual";
    case Phase::kResidual:
      return "residual";
    case Phase::kRestriction:
      return "restriction";
    case Phase::kFusedDescent:
      return "smooth+residual+restriction";
    case Phase::kInterpIncrement:
      return "interpolation+increment";
    case Phase::kInitZero:
      return "initZero";
    case Phase::kMaxNorm:
      return "maxNorm";
    case Phase::kBottomSolve:
      return "bottomSolve";
    case Phase::kJacobiSweep:
      return "applyOp+smooth";
  }
  return "?";
}

/// Trace category a phase renders under (kExchange blocks on peers).
constexpr trace::Category phase_category(Phase p) {
  return p == Phase::kExchange ? trace::Category::kComm
                               : trace::Category::kCompute;
}

/// Run `fn` as phase p of level l: one levelled trace span.
template <class Fn>
void timed_phase(int l, Phase p, Fn&& fn) {
  trace::TraceSpan span(phase_name(p), phase_category(p), l);
  fn();
}

}  // namespace gmg

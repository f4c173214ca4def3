#include "perf/profiler.hpp"

#include <sstream>

#include "common/error.hpp"

namespace gmg::perf {

const char* phase_name(Phase p) {
  // Exhaustive: adding a Phase without naming it must fail to compile
  // (no default case, so -Wswitch flags the omission) and the
  // static_assert pins the count this switch was written against.
  static_assert(static_cast<int>(Phase::kCount) == 12,
                "Phase enum changed: update phase_name and "
                "phase_from_name");
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
    case Phase::kCount:
      break;
  }
  return "?";
}

bool phase_from_name(std::string_view name, Phase& out) {
  for (int p = 0; p < static_cast<int>(Phase::kCount); ++p) {
    if (name == phase_name(static_cast<Phase>(p))) {
      out = static_cast<Phase>(p);
      return true;
    }
  }
  return false;
}

trace::Category phase_category(Phase p) {
  return p == Phase::kExchange ? trace::Category::kComm
                               : trace::Category::kCompute;
}

Profiler Profiler::from_trace(const trace::Snapshot& snap) {
  Profiler prof;
  for (const trace::SpanRecord& s : snap.spans) {
    Phase phase;
    if (s.level >= 0 && phase_from_name(s.name, phase))
      prof.record(s.level, phase, s.seconds());
  }
  return prof;
}

const RunningStats& Profiler::stats(int level, Phase phase) const {
  auto it = stats_.find({level, phase});
  GMG_REQUIRE(it != stats_.end(), "no samples for this (level, phase)");
  return it->second;
}

double Profiler::total(int level, Phase phase) const {
  auto it = stats_.find({level, phase});
  return it == stats_.end() ? 0.0 : it->second.sum();
}

double Profiler::level_total(int level) const {
  double t = 0.0;
  for (const auto& [key, s] : stats_)
    if (key.first == level) t += s.sum();
  return t;
}

double Profiler::grand_total() const {
  double t = 0.0;
  for (const auto& [key, s] : stats_) t += s.sum();
  return t;
}

int Profiler::max_level() const {
  int m = -1;
  for (const auto& [key, s] : stats_) m = std::max(m, key.first);
  return m;
}

std::map<Phase, double> Profiler::level_breakdown(int level) const {
  const double total_s = level_total(level);
  std::map<Phase, double> out;
  if (total_s <= 0.0) return out;
  for (const auto& [key, s] : stats_)
    if (key.first == level) out[key.second] = s.sum() / total_s;
  return out;
}

std::string Profiler::report() const {
  std::ostringstream os;
  for (const auto& [key, s] : stats_) {
    os << "level " << key.first << ' ' << phase_name(key.second) << ' '
       << s.summary() << '\n';
  }
  return os.str();
}

}  // namespace gmg::perf

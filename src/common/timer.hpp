// Wall-clock timing utilities used by the solvers and benches.
#pragma once

#include <chrono>

namespace gmg {

/// Monotonic wall-clock time in seconds.
inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Simple stopwatch. `elapsed()` may be called repeatedly; `restart()`
/// resets the origin.
class Timer {
 public:
  Timer() : start_(now_seconds()) {}
  void restart() { start_ = now_seconds(); }
  double elapsed() const { return now_seconds() - start_; }

 private:
  double start_;
};

}  // namespace gmg

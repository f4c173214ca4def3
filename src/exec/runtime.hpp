// The process-wide parallel kernel runtime: every brick/array hot-path
// kernel funnels its loop through the free functions here, which run it
// on one persistent exec::Engine worker pool. The calling thread
// participates, and no threads are created or joined per kernel — the
// fork/join cost the paper's GPU runs never pay.
//
// Every loop splits by one deterministic chunk plan
// (Engine::plan_chunks — boundaries depend only on the trip count and
// grain, never on thread counts), and reductions combine per-chunk
// partials through a fixed binary tree in chunk order, so sums and
// maxima are bitwise reproducible at any worker count (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cstdint>

#include "exec/engine.hpp"

namespace gmg::exec {

/// The shared engine kernels run on, built lazily from GMG_EXEC_WORKERS
/// (default: max(1, hardware_concurrency - 1)).
Engine& default_engine();

/// Rebuild the default engine with `workers` threads (test/bench hook).
/// Callers must ensure no kernel is in flight on the old engine.
void configure_default_engine(int workers);

/// Worker count GMG_EXEC_WORKERS/hardware resolve to (what a fresh
/// default engine would get).
int resolved_default_workers();

/// Grain for flat per-element loops (norms, axpy, zero-fill): at least
/// this many elements per chunk.
inline constexpr std::int64_t kElementGrain = std::int64_t{1} << 15;

/// Grain for per-brick loops: enough bricks per chunk to cover
/// kElementGrain elements.
constexpr std::int64_t brick_grain(std::int64_t brick_volume) {
  return std::max<std::int64_t>(1, kElementGrain / brick_volume);
}

namespace detail {

/// Per-chunk partials `fn(begin, end) -> T` over [0, n), folded
/// pairwise by `combine`: parts[i] absorbs parts[i + stride] for
/// stride = 1, 2, 4, ... — a fixed-shape binary tree over chunk ids,
/// independent of which threads produced the partials. T{} for n <= 0.
template <typename T, typename Fn, typename Combine>
T reduce_chunks(const char* name, std::int64_t n, std::int64_t grain, Fn& fn,
                Combine combine) {
  if (n <= 0) return T{};
  const int chunks = Engine::plan_chunks(n, grain);
  if (chunks == 1) return fn(std::int64_t{0}, n);
  T parts[Engine::kMaxChunks] = {};
  default_engine().parallel_for_chunks(
      name, n, grain,
      [&fn, &parts](int c, std::int64_t b, std::int64_t e) {
        parts[c] = fn(b, e);
      });
  for (int stride = 1; stride < chunks; stride *= 2) {
    for (int i = 0; i + stride < chunks; i += 2 * stride) {
      parts[i] = combine(parts[i], parts[i + stride]);
    }
  }
  return parts[0];
}

}  // namespace detail

/// Run `fn(begin, end)` over a deterministic chunking of [0, n) on the
/// kernel runtime. Blocking; rethrows the first chunk exception.
template <typename Fn>
void parallel_for(const char* name, std::int64_t n, std::int64_t grain,
                  Fn&& fn) {
  if (n <= 0) return;
  default_engine().parallel_for_chunks(
      name, n, grain, [&fn](int, std::int64_t b, std::int64_t e) { fn(b, e); });
}

/// Sum of per-chunk partials `fn(begin, end) -> T` over [0, n),
/// combined in the fixed tree order — bitwise reproducible for any
/// worker count (the chunk plan depends only on n and grain).
template <typename T, typename Fn>
T parallel_reduce_sum(const char* name, std::int64_t n, std::int64_t grain,
                      Fn&& fn) {
  return detail::reduce_chunks<T>(name, n, grain, fn,
                                  [](T a, T b) { return a + b; });
}

/// Max of per-chunk partials `fn(begin, end) -> T`; T{} for n == 0.
template <typename T, typename Fn>
T parallel_reduce_max(const char* name, std::int64_t n, std::int64_t grain,
                      Fn&& fn) {
  return detail::reduce_chunks<T>(name, n, grain, fn,
                                  [](T a, T b) { return std::max(a, b); });
}

}  // namespace gmg::exec

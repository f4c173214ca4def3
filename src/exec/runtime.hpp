// The process-wide parallel kernel runtime: every brick/array hot-path
// kernel funnels its loop through the free functions here instead of
// spawning an OpenMP team per invocation.
//
// Two execution modes share one deterministic chunk plan
// (Engine::plan_chunks — boundaries depend only on the trip count and
// grain, never on thread counts):
//
//   kEnginePool  (default) a persistent exec::Engine worker pool. The
//                calling thread participates, and no threads are
//                created or joined per kernel — the fork/join cost the
//                paper's GPU runs never pay.
//   kOpenMP      the legacy fork/join path (one `omp parallel for`
//                over the same chunks). Kept as the reference for the
//                bitwise runtime-equivalence tests and the
//                micro_runtime bench; select with GMG_EXEC_RUNTIME=omp.
//
// Reductions combine per-chunk partials through a fixed binary tree in
// chunk order, so sums and maxima are bitwise reproducible at any
// worker count and across both modes (DESIGN.md §11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "exec/engine.hpp"

namespace gmg::exec {

/// How the parallel_for/parallel_reduce free functions execute.
enum class KernelRuntime {
  kEnginePool,  // persistent worker pool (exec::Engine::parallel_for_chunks)
  kOpenMP,      // legacy per-call fork/join over the same chunk plan
};

/// The shared engine kernels run on, built lazily from GMG_EXEC_WORKERS
/// (default: max(1, hardware_concurrency - 1)).
Engine& default_engine();

/// Rebuild the default engine with `workers` threads (test/bench hook).
/// Callers must ensure no kernel is in flight on the old engine.
void configure_default_engine(int workers);

/// Worker count GMG_EXEC_WORKERS/hardware resolve to (what a fresh
/// default engine would get).
int resolved_default_workers();

/// Current mode: GMG_EXEC_RUNTIME=omp selects kOpenMP, anything else
/// (or unset) the engine pool. Overridable at runtime for tests.
KernelRuntime kernel_runtime();
void set_kernel_runtime(KernelRuntime mode);

/// Grain for flat per-element loops (norms, axpy, zero-fill): at least
/// this many elements per chunk.
inline constexpr std::int64_t kElementGrain = std::int64_t{1} << 15;

/// Grain for per-brick loops: enough bricks per chunk to cover
/// kElementGrain elements.
constexpr std::int64_t brick_grain(std::int64_t brick_volume) {
  return std::max<std::int64_t>(1, kElementGrain / brick_volume);
}

namespace detail {

/// The kOpenMP mode body: one fork/join team over the chunk ids
/// (serial when built without OpenMP, e.g. under TSan).
void run_chunks_openmp(
    int chunks, std::int64_t n,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn);

/// Fold `parts[0, m)` pairwise: parts[i] absorbs parts[i + stride] for
/// stride = 1, 2, 4, ... — a fixed-shape binary tree over chunk ids,
/// independent of which threads produced the partials.
template <typename T, typename Combine>
T combine_chunk_tree(T* parts, int m, Combine&& combine) {
  for (int stride = 1; stride < m; stride *= 2) {
    for (int i = 0; i + stride < m; i += 2 * stride) {
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
  const auto body = [&fn](int, std::int64_t b, std::int64_t e) { fn(b, e); };
  if (kernel_runtime() == KernelRuntime::kOpenMP) {
    detail::run_chunks_openmp(Engine::plan_chunks(n, grain), n, body);
  } else {
    default_engine().parallel_for_chunks(name, n, grain, body);
  }
}

/// Sum of per-chunk partials `fn(begin, end) -> T` over [0, n),
/// combined in the fixed tree order — bitwise reproducible for any
/// worker count (the chunk plan depends only on n and grain).
template <typename T, typename Fn>
T parallel_reduce_sum(const char* name, std::int64_t n, std::int64_t grain,
                      Fn&& fn) {
  if (n <= 0) return T{};
  const int chunks = Engine::plan_chunks(n, grain);
  if (chunks == 1) return fn(std::int64_t{0}, n);
  T parts[Engine::kMaxChunks] = {};
  const auto body = [&fn, &parts](int c, std::int64_t b, std::int64_t e) {
    parts[c] = fn(b, e);
  };
  if (kernel_runtime() == KernelRuntime::kOpenMP) {
    detail::run_chunks_openmp(chunks, n, body);
  } else {
    default_engine().parallel_for_chunks(name, n, grain, body);
  }
  return detail::combine_chunk_tree(parts, chunks,
                                    [](T a, T b) { return a + b; });
}

/// Max of per-chunk partials `fn(begin, end) -> T`; T{} for n == 0.
template <typename T, typename Fn>
T parallel_reduce_max(const char* name, std::int64_t n, std::int64_t grain,
                      Fn&& fn) {
  if (n <= 0) return T{};
  const int chunks = Engine::plan_chunks(n, grain);
  if (chunks == 1) return fn(std::int64_t{0}, n);
  T parts[Engine::kMaxChunks] = {};
  const auto body = [&fn, &parts](int c, std::int64_t b, std::int64_t e) {
    parts[c] = fn(b, e);
  };
  if (kernel_runtime() == KernelRuntime::kOpenMP) {
    detail::run_chunks_openmp(chunks, n, body);
  } else {
    default_engine().parallel_for_chunks(name, n, grain, body);
  }
  return detail::combine_chunk_tree(
      parts, chunks, [](T a, T b) { return std::max(a, b); });
}

}  // namespace gmg::exec

// exec: the persistent worker pool behind the kernel runtime
// (exec/runtime.hpp). A parallel_for_chunks call splits [0, n) into a
// chunk plan that depends only on the trip count and grain, then the
// calling thread and each worker claim one contiguous block of chunks
// and steal whatever is left — no threads are created or joined per
// kernel. Chunk spans are traced under Category::kExec with the
// submitting thread's simulated rank, so a worker's share of a kernel
// lands on that rank's timeline row.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

namespace gmg::exec {

namespace detail {
struct EngineState;
}  // namespace detail

class Engine {
 public:
  /// Spawn `workers` worker threads (>= 1).
  explicit Engine(int workers = 1);

  /// Joins the workers.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  int workers() const;

  /// Hard upper bound on chunks per parallel_for_chunks call. A fixed
  /// constant on purpose: chunk boundaries must never depend on the
  /// worker count, or chunked reductions stop being reproducible.
  static constexpr int kMaxChunks = 64;

  /// Number of chunks a range of `n` items splits into when each chunk
  /// should hold at least `grain` items: clamp(n/grain, 1, kMaxChunks).
  /// Pure function of (n, grain) — see kMaxChunks.
  static int plan_chunks(std::int64_t n, std::int64_t grain);

  /// Start index of chunk `c` of `chunks` over [0, n): n*c/chunks.
  /// chunk_bound(n, chunks, chunks) == n, so chunk c spans
  /// [chunk_bound(c), chunk_bound(c+1)).
  static std::int64_t chunk_bound(std::int64_t n, int chunks, int c);

  /// Data-parallel loop over [0, n): runs `fn(chunk, begin, end)` once
  /// per chunk of the (n, grain) chunk plan. The calling thread always
  /// participates: it claims the first of min(chunks, workers + 1)
  /// contiguous blocks, worker i the (i+1)-th, and every thread then
  /// steals unclaimed chunks, so the call completes even when every
  /// worker is busy with another caller's job. Blocking: returns once
  /// every chunk has run. Which thread runs a chunk varies from call
  /// to call; chunk *boundaries* are worker-count independent. If any
  /// chunk throws, the first exception is rethrown here after all
  /// claimed chunks finish. Single-chunk plans run inline with no pool
  /// traffic.
  void parallel_for_chunks(
      const char* name, std::int64_t n, std::int64_t grain,
      const std::function<void(int, std::int64_t, std::int64_t)>& fn);

 private:
  std::unique_ptr<detail::EngineState> state_;
  std::vector<std::thread> workers_;
  bool solo_ = false;  // 1 worker on a 1-CPU host: run chunks inline
};

}  // namespace gmg::exec

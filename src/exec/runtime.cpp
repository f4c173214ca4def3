#include "exec/runtime.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

namespace gmg::exec {

namespace {

std::mutex g_engine_mu;
std::unique_ptr<Engine> g_engine;               // guarded by g_engine_mu
std::atomic<Engine*> g_engine_ptr{nullptr};     // fast path

std::atomic<int> g_runtime_mode{-1};  // -1: unresolved, else KernelRuntime

int env_workers() {
  if (const char* s = std::getenv("GMG_EXEC_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end != s && v >= 1 && v <= 1024) return static_cast<int>(v);
  }
  return 0;
}

KernelRuntime env_runtime() {
  if (const char* s = std::getenv("GMG_EXEC_RUNTIME")) {
    if (std::string(s) == "omp") return KernelRuntime::kOpenMP;
  }
  return KernelRuntime::kEnginePool;
}

}  // namespace

int resolved_default_workers() {
  if (const int w = env_workers()) return w;
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? static_cast<int>(hc - 1) : 1;
}

Engine& default_engine() {
  if (Engine* e = g_engine_ptr.load(std::memory_order_acquire)) return *e;
  std::lock_guard<std::mutex> lock(g_engine_mu);
  if (!g_engine) {
    g_engine = std::make_unique<Engine>(resolved_default_workers());
    g_engine_ptr.store(g_engine.get(), std::memory_order_release);
  }
  return *g_engine;
}

void configure_default_engine(int workers) {
  std::lock_guard<std::mutex> lock(g_engine_mu);
  g_engine_ptr.store(nullptr, std::memory_order_release);
  g_engine.reset();  // joins the old pool before the new one spawns
  g_engine = std::make_unique<Engine>(workers < 1 ? 1 : workers);
  g_engine_ptr.store(g_engine.get(), std::memory_order_release);
}

KernelRuntime kernel_runtime() {
  int mode = g_runtime_mode.load(std::memory_order_relaxed);
  if (mode < 0) {
    mode = static_cast<int>(env_runtime());
    g_runtime_mode.store(mode, std::memory_order_relaxed);
  }
  return static_cast<KernelRuntime>(mode);
}

void set_kernel_runtime(KernelRuntime mode) {
  g_runtime_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

namespace detail {

// The only `omp parallel for` left in the codebase: the legacy
// fork/join reference mode. Same chunk plan as the engine path, so the
// two modes produce bitwise-identical results.
void run_chunks_openmp(
    int chunks, std::int64_t n,
    const std::function<void(int, std::int64_t, std::int64_t)>& fn) {
#ifdef _OPENMP
#pragma omp parallel for schedule(static)
#endif
  for (int c = 0; c < chunks; ++c) {
    fn(c, Engine::chunk_bound(n, chunks, c), Engine::chunk_bound(n, chunks, c + 1));
  }
}

}  // namespace detail

}  // namespace gmg::exec

#include "exec/runtime.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace gmg::exec {

namespace {

std::mutex g_engine_mu;
std::unique_ptr<Engine> g_engine;               // guarded by g_engine_mu
std::atomic<Engine*> g_engine_ptr{nullptr};     // fast path

int env_workers() {
  if (const char* s = std::getenv("GMG_EXEC_WORKERS")) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end != s && v >= 1 && v <= 1024) return static_cast<int>(v);
  }
  return 0;
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

}  // namespace gmg::exec

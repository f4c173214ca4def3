#include "serve/hierarchy_cache.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace gmg::serve {

std::unique_ptr<CachedHierarchy> HierarchyCache::acquire(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find_if(idle_.begin(), idle_.end(),
                         [&](const std::unique_ptr<CachedHierarchy>& e) {
                           return e->key == key;
                         });
  if (it == idle_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  std::unique_ptr<CachedHierarchy> entry = std::move(*it);
  idle_.erase(it);
  ++stats_.hits;
  return entry;
}

void HierarchyCache::release(std::unique_ptr<CachedHierarchy> entry) {
  if (!entry) return;
  entry->last_used_ns = trace::now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  idle_.push_back(std::move(entry));
  while (idle_.size() > capacity_) {
    auto lru = std::min_element(
        idle_.begin(), idle_.end(),
        [](const std::unique_ptr<CachedHierarchy>& a,
           const std::unique_ptr<CachedHierarchy>& b) {
          return a->last_used_ns < b->last_used_ns;
        });
    idle_.erase(lru);
    ++stats_.evictions;
  }
}

HierarchyCache::Stats HierarchyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.idle_entries = idle_.size();
  return s;
}

}  // namespace gmg::serve

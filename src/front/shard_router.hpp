// Consistent-hash routing of hierarchy keys onto serve shards, with
// bounded loads (DESIGN.md §14).
//
// Each shard owns `vnodes_per_shard` points on a 64-bit hash ring; a
// key's walk lists the distinct shards in ring order from the first
// point at or after the key's hash (wrapping), and route(key) is the
// walk's first shard. Two properties the front tier depends on:
//
//   * Stability: the ring is built from a fixed hash (FNV-1a, then the
//     fmix64 finalizer that scatters a shard's points) over fixed
//     strings, so the same key maps to the same shard in every process
//     on every run — a client can even predict placement. Cache
//     affinity (HierarchyCache entries live per shard) survives
//     restarts.
//   * Minimal disruption: removing one of N shards deletes only that
//     shard's points, so only the keys in the deleted arcs move
//     (~1/N of them), to the next point on the ring. All other keys
//     keep their shard and therefore their warm hierarchy caches.
//     test_front pins both properties.
//
// place() adds bounded loads (Mirrokni, Thorup, Zadimoghaddam,
// "Consistent Hashing with Bounded Loads", SODA 2018): a request
// walks past every shard whose load is at the cap
// ⌈(1 + ε)·(total + 1)/N⌉, so a key stays on its ring shard until that
// shard carries (1 + ε)× the mean, and then moves to the next shard
// along its own walk — the same one for every request of the key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gmg::front {

class ShardRouter {
 public:
  /// Ring over shard ids 0..shards-1.
  explicit ShardRouter(int shards, int vnodes_per_shard = 64);

  /// Ring over an explicit shard-id set: the ring for {0..N-1} minus
  /// shard s is exactly the full ring with s's points deleted, which
  /// is what makes removal minimally disruptive.
  ShardRouter(const std::vector<int>& shard_ids, int vnodes_per_shard = 64);

  /// Shard owning `key` (a serve::hierarchy_key string): the first
  /// shard of its walk.
  int route(std::string_view key) const;

  /// Walk the distinct shards in ring order from `key`'s point, calling
  /// `visit(shard)` on each until it returns true; returns that shard,
  /// or -1 once every shard was listed. Walks the ring in place.
  template <class Visit>
  int walk(std::string_view key, Visit&& visit) const;

  /// Bounded-load placement: the first shard along `key`'s walk whose
  /// `load(shard)` (its inflight request count) is under
  /// load_cap(total, num_shards()) and for which `admit(shard)` returns
  /// true; -1 when none admits. With unit loads the least-loaded shard
  /// is always under the cap, so only `admit` can refuse.
  template <class Load, class Admit>
  int place(std::string_view key, Load&& load, Admit&& admit) const;

  /// ε: a shard takes no request while it carries (1 + ε)× the mean.
  static constexpr double kLoadSlack = 0.25;

  /// ⌈(1 + ε)·(total + 1)/shards⌉: the load at which a shard is passed
  /// over, `total` being the load summed over shards before the
  /// request being placed.
  static std::size_t load_cap(std::size_t total, int shards);

  int num_shards() const { return num_shards_; }

  /// FNV-1a finished with MurmurHash3's fmix64; deterministic across
  /// runs and platforms by construction.
  static std::uint64_t hash64(std::string_view s);

 private:
  void build(const std::vector<int>& shard_ids, int vnodes_per_shard);

  /// Index of the first ring point at or after `h`, wrapping.
  std::size_t first_point(std::uint64_t h) const;

  int num_shards_ = 0;
  std::vector<int> shard_ids_;
  /// (ring point, shard id), sorted by point.
  std::vector<std::pair<std::uint64_t, int>> ring_;
  /// prev_same_[i]: the index of the point before ring_[i], cyclically,
  /// owned by the same shard (i itself for a one-point shard).
  std::vector<std::size_t> prev_same_;
};

template <class Visit>
int ShardRouter::walk(std::string_view key, Visit&& visit) const {
  const std::size_t n = ring_.size();
  const std::size_t start = first_point(hash64(key));
  const auto offset = [&](std::size_t i) {  // steps from start to i
    return i >= start ? i - start : i + n - start;
  };
  int listed = 0;
  for (std::size_t k = 0; k < n && listed < num_shards_; ++k) {
    const std::size_t i = start + k < n ? start + k : start + k - n;
    // Listed already if an earlier point of this walk has its shard.
    if (offset(prev_same_[i]) < k) continue;
    ++listed;
    if (visit(ring_[i].second)) return ring_[i].second;
  }
  return -1;
}

template <class Load, class Admit>
int ShardRouter::place(std::string_view key, Load&& load,
                       Admit&& admit) const {
  std::size_t total = 0;
  for (const int shard : shard_ids_) total += load(shard);
  const std::size_t cap = load_cap(total, num_shards_);
  return walk(key,
              [&](int shard) { return load(shard) < cap && admit(shard); });
}

}  // namespace gmg::front

#include "front/shard_router.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/error.hpp"

namespace gmg::front {

std::uint64_t ShardRouter::hash64(std::string_view s) {
  // FNV-1a, 64-bit. Chosen for bit-exact portability, not speed: the
  // router hashes one short key string per request.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  // MurmurHash3's fmix64 finalizer. FNV-1a of labels that differ only
  // in their last bytes lands close together, so without it a shard's
  // vnode points form one arc of the ring instead of scattering.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

ShardRouter::ShardRouter(int shards, int vnodes_per_shard) {
  GMG_REQUIRE(shards > 0, "ShardRouter: need at least one shard");
  std::vector<int> ids(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) ids[static_cast<std::size_t>(s)] = s;
  build(ids, vnodes_per_shard);
}

ShardRouter::ShardRouter(const std::vector<int>& shard_ids,
                         int vnodes_per_shard) {
  build(shard_ids, vnodes_per_shard);
}

void ShardRouter::build(const std::vector<int>& shard_ids,
                        int vnodes_per_shard) {
  GMG_REQUIRE(!shard_ids.empty(), "ShardRouter: need at least one shard");
  GMG_REQUIRE(vnodes_per_shard > 0, "ShardRouter: need at least one vnode");
  shard_ids_ = shard_ids;
  num_shards_ = static_cast<int>(shard_ids.size());
  ring_.reserve(shard_ids.size() *
                static_cast<std::size_t>(vnodes_per_shard));
  for (const int id : shard_ids) {
    for (int v = 0; v < vnodes_per_shard; ++v) {
      // A fixed naming scheme makes each shard's points a function of
      // (shard id, vnode index) only — adding or removing a shard
      // never moves another shard's points.
      const std::string label =
          "shard-" + std::to_string(id) + "#" + std::to_string(v);
      ring_.emplace_back(hash64(label), id);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  // Two passes: the second gives each shard's first point its
  // predecessor from the end of the ring.
  prev_same_.assign(ring_.size(), 0);
  std::map<int, std::size_t> last;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const auto [it, first] = last.try_emplace(ring_[i].second, i);
      if (!first) prev_same_[i] = std::exchange(it->second, i);
    }
  }
}

std::size_t ShardRouter::first_point(std::uint64_t h) const {
  const auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, int>& p, std::uint64_t v) {
        return p.first < v;
      });
  return it == ring_.end() ? 0 : static_cast<std::size_t>(it - ring_.begin());
}

int ShardRouter::route(std::string_view key) const {
  return ring_[first_point(hash64(key))].second;
}

std::size_t ShardRouter::load_cap(std::size_t total, int shards) {
  // (1 + ε)·(total + 1) is exact for ε = 1/4, and a correctly rounded
  // quotient that should be an integer is one, so the ceil is exact.
  return static_cast<std::size_t>(
      std::ceil((1 + kLoadSlack) * static_cast<double>(total + 1) /
                static_cast<double>(shards)));
}

}  // namespace gmg::front

#include "brick/brick_grid.hpp"

#include <algorithm>

#include "brick/brick_mask.hpp"
#include "common/error.hpp"
#include "trace/trace.hpp"

namespace gmg {

BrickGrid::BrickGrid(Vec3 interior_bricks, std::array<bool, 3> wrap)
    : nb_(interior_bricks), wrap_(wrap) {
  GMG_REQUIRE(nb_.x > 0 && nb_.y > 0 && nb_.z > 0,
              "brick grid extents must be positive");

  const Box ext = extended_box();
  id_of_.assign(static_cast<std::size_t>(ext.volume()), -1);

  // Interior bricks first, lexicographic (i fastest).
  std::int32_t next = 0;
  for_each(interior_box(), [&](index_t i, index_t j, index_t k) {
    id_of_[flat_index({i, j, k})] = next++;
  });
  interior_count_ = next;

  // Then each stored ghost group, contiguous, in direction order.
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    ghost_ranges_[dir].first = next;
    if (!stores_group(dir)) continue;
    for_each(ghost_box(dir), [&](index_t i, index_t j, index_t k) {
      id_of_[flat_index({i, j, k})] = next++;
    });
    ghost_ranges_[dir].count = next - ghost_ranges_[dir].first;
  }
  total_ = next;

  // Reverse map; every remaining coordinate aliases the stored brick
  // its wrapped-axis components wrap onto.
  coord_of_.resize(static_cast<std::size_t>(total_));
  for_each(ext, [&](index_t i, index_t j, index_t k) {
    std::int32_t& id = id_of_[flat_index({i, j, k})];
    if (id >= 0) {
      coord_of_[static_cast<std::size_t>(id)] = {i, j, k};
      return;
    }
    Vec3 home{i, j, k};
    for (int d = 0; d < 3; ++d) {
      if (wraps(d)) home[d] = floor_mod(home[d], nb_[d]);
    }
    id = id_of_[flat_index(home)];
    GMG_ASSERT(id >= 0);
  });

  adj_.resize(static_cast<std::size_t>(total_));
  for (std::int32_t id = 0; id < total_; ++id) {
    const Vec3 c = coord_of_[static_cast<std::size_t>(id)];
    for (int dir = 0; dir < kNumDirections; ++dir) {
      adj_[static_cast<std::size_t>(id)][dir] =
          storage_id(c + direction_offset(dir));
    }
  }
}

bool BrickGrid::stores_group(int dir) const {
  const Vec3 off = direction_offset(dir);
  for (int d = 0; d < 3; ++d) {
    if (wraps(d) && off[d] != 0) return false;
  }
  return true;
}

Box BrickGrid::grow_unwrapped(const Box& cells, index_t layers) const {
  Box out = cells;
  for (int d = 0; d < 3; ++d) {
    if (wraps(d)) continue;
    out.lo[d] -= layers;
    out.hi[d] += layers;
  }
  return out;
}

BrickRange BrickGrid::ghost_range(int dir) const {
  GMG_REQUIRE(dir >= 0 && dir < kNumDirections && dir != kSelfDirection,
              "dir must be one of the 26 neighbor directions");
  return ghost_ranges_[dir];
}

std::shared_ptr<const BrickIterPlan> BrickGrid::build_plan(
    const Box& active, Vec3 brick_dims, const BrickMask* mask) const {
  const Vec3 bd = brick_dims;
  auto plan = std::make_shared<BrickIterPlan>();
  plan->active = active;
  plan->brick_dims = bd;
  if (active.empty()) return plan;
  plan->brick_region =
      Box{{floor_div(active.lo.x, bd.x), floor_div(active.lo.y, bd.y),
           floor_div(active.lo.z, bd.z)},
          {floor_div(active.hi.x - 1, bd.x) + 1,
           floor_div(active.hi.y - 1, bd.y) + 1,
           floor_div(active.hi.z - 1, bd.z) + 1}};
  GMG_REQUIRE(extended_box().covers(plan->brick_region),
              "active region extends beyond the ghost bricks");
  for (int d = 0; d < 3; ++d) {
    GMG_REQUIRE(!wraps(d) || (active.lo[d] >= 0 &&
                              active.hi[d] <= nb_[d] * bd[d]),
                "active region reaches past the interior on a wrapped axis "
                "(its ghost bricks alias owned bricks the plan would visit "
                "twice)");
  }

  // Two lexicographic passes keep each half of `items` in brick order
  // (chunk boundaries then cut a deterministic sequence).
  std::vector<BrickPlanItem> clipped;
  for_each(plan->brick_region, [&](index_t bx, index_t by, index_t bz) {
    const std::int32_t id = storage_id({bx, by, bz});
    GMG_ASSERT(id >= 0);
    if (mask && !mask->test(id)) return;  // masked-out brick: skip
    BrickPlanItem it;
    it.id = id;
    it.coord = {bx, by, bz};
    const index_t cx = bx * bd.x, cy = by * bd.y, cz = bz * bd.z;
    it.ilo = static_cast<std::int16_t>(std::max<index_t>(0, active.lo.x - cx));
    it.ihi =
        static_cast<std::int16_t>(std::min<index_t>(bd.x, active.hi.x - cx));
    it.jlo = static_cast<std::int16_t>(std::max<index_t>(0, active.lo.y - cy));
    it.jhi =
        static_cast<std::int16_t>(std::min<index_t>(bd.y, active.hi.y - cy));
    it.klo = static_cast<std::int16_t>(std::max<index_t>(0, active.lo.z - cz));
    it.khi =
        static_cast<std::int16_t>(std::min<index_t>(bd.z, active.hi.z - cz));
    it.adj = adj_[static_cast<std::size_t>(id)].data();
    const bool full = it.ilo == 0 && it.jlo == 0 && it.klo == 0 &&
                      it.ihi == bd.x && it.jhi == bd.y && it.khi == bd.z;
    if (full) {
      plan->items.push_back(it);
    } else {
      clipped.push_back(it);
    }
  });
  plan->num_full = static_cast<std::int64_t>(plan->items.size());
  plan->items.insert(plan->items.end(), clipped.begin(), clipped.end());
  return plan;
}

std::shared_ptr<const BrickIterPlan> BrickGrid::iteration_plan(
    const Box& active, Vec3 brick_dims, const BrickMask* mask) const {
  if (mask) {
    GMG_REQUIRE(mask->size() == total_,
                "mask size must match the grid's brick count");
  }
  const PlanKey key{active, brick_dims, mask ? mask->unique_id() : 0,
                    mask ? mask->version() : 0};
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    for (auto it = plan_cache_.begin(); it != plan_cache_.end(); ++it) {
      if (it->first == key) {
        ++plan_stats_.hits;
        trace::counter_add("brick.plan_cache.hit", 1);
        std::rotate(it, it + 1, plan_cache_.end());  // move to MRU slot
        return plan_cache_.back().second;
      }
    }
    ++plan_stats_.misses;
    trace::counter_add("brick.plan_cache.miss", 1);
  }
  auto plan = build_plan(active, brick_dims, mask);
  std::lock_guard<std::mutex> lock(plan_mu_);
  for (const auto& [k, p] : plan_cache_) {  // lost a build race: reuse
    if (k == key) return p;
  }
  // Bounded LRU: the uniform path sees only a handful of (active, dims)
  // keys per level, but AMR masks multiply the key space (every mask
  // version is a distinct key) — evict the least recently used entry
  // rather than growing without bound.
  while (plan_cache_.size() >= plan_cache_cap_ && !plan_cache_.empty()) {
    plan_cache_.erase(plan_cache_.begin());
    ++plan_stats_.evictions;
  }
  if (plan_cache_cap_ > 0) plan_cache_.emplace_back(key, plan);
  return plan;
}

BrickGrid::PlanCacheStats BrickGrid::plan_cache_stats() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  PlanCacheStats s = plan_stats_;
  s.entries = plan_cache_.size();
  s.capacity = plan_cache_cap_;
  return s;
}

void BrickGrid::set_plan_cache_capacity(std::size_t cap) const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  plan_cache_cap_ = cap;
  while (plan_cache_.size() > plan_cache_cap_) {
    plan_cache_.erase(plan_cache_.begin());
    ++plan_stats_.evictions;
  }
}

std::vector<BrickRange> BrickGrid::segments_of(const Box& region) const {
  GMG_REQUIRE(extended_box().covers(region),
              "region extends outside the brick grid");
  std::vector<BrickRange> runs;
  for_each(region, [&](index_t i, index_t j, index_t k) {
    const std::int32_t id = storage_id({i, j, k});
    GMG_ASSERT(id >= 0);
    if (!runs.empty() && runs.back().first + runs.back().count == id) {
      ++runs.back().count;
    } else {
      runs.push_back({id, 1});
    }
  });
  return runs;
}

}  // namespace gmg

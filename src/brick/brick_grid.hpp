// The brick grid: geometry, storage ordering, and adjacency of the
// fine-grain blocks covering one subdomain plus its one-brick-deep
// ghost shell.
//
// Storage order is the communication-optimized layout of the paper's
// reference [6] (Zhao et al., PPoPP'21): interior bricks first in
// lexicographic order, then the 26 ghost groups, each contiguous.
// Receives from a neighbor therefore land in a single contiguous range
// of brick storage — no unpack pass ("packing-free communication
// buffers", paper §V).
//
// A grid may *wrap* an axis on which the subdomain is its own periodic
// neighbor (DESIGN.md §11): ghost coordinates along that axis resolve,
// in storage_id() and in every adjacency row, to the owned brick they
// would otherwise hold a copy of, and the ghost groups with a
// component along a wrapped axis get no storage.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "brick/brick_shape.hpp"
#include "common/types.hpp"
#include "mesh/box.hpp"

namespace gmg {

class BrickMask;

/// Contiguous run of bricks in storage order: [first, first+count).
struct BrickRange {
  std::int32_t first = 0;
  std::int32_t count = 0;
};

/// One resolved brick of a cached iteration plan: storage id, brick
/// coordinate, the local clip bounds of the active region inside the
/// brick, and a pointer to the brick's 27-entry adjacency row (valid
/// for the lifetime of the owning BrickGrid).
struct BrickPlanItem {
  std::int32_t id = -1;
  Vec3 coord;
  // Local element bounds in [0, brick dim]; a *full* brick has
  // (0, bx, 0, by, 0, bz) — the whole brick is active.
  std::int16_t ilo = 0, ihi = 0, jlo = 0, jhi = 0, klo = 0, khi = 0;
  const std::int32_t* adj = nullptr;
};

/// The resolved brick list for one (active box, brick dims) pair:
/// items[0, num_full) are full-interior bricks (whole brick active —
/// kernels run one straight-line loop with compile-time bounds),
/// items[num_full, ...) are clipped boundary bricks. Each half keeps
/// lexicographic brick order, so chunked sweeps stay deterministic.
/// Plans reference the grid's adjacency storage and must not outlive
/// it; the grid is immutable after construction, so a cached plan
/// never goes stale.
struct BrickIterPlan {
  Box active;
  Vec3 brick_dims;
  Box brick_region;           // brick-coordinate cover of `active`
  std::int64_t num_full = 0;  // prefix of `items` that is full bricks
  std::vector<BrickPlanItem> items;
};

class BrickGrid {
 public:
  /// Plan-cache LRU capacity of a new grid. A level uses a handful of
  /// keys (one per kernel margin, times the active AMR masks).
  static constexpr std::size_t kPlanCacheCapacity = 128;

  /// `interior_bricks`: number of bricks per axis covering the
  /// subdomain interior. On every unwrapped axis the grid carries one
  /// ghost brick layer per side (the paper's deep ghost zone: depth ==
  /// brick dim). `wrap[d]` marks axis d as self-periodic: its ghost
  /// coordinates alias the owned bricks at the wrapped coordinate, so
  /// no ghost storage exists along it and nothing needs copying there.
  explicit BrickGrid(Vec3 interior_bricks,
                     std::array<bool, 3> wrap = {false, false, false});

  Vec3 interior_extent() const { return nb_; }
  Box interior_box() const { return Box::from_extent(nb_); }
  /// Every addressable brick coordinate: the interior grown by one
  /// brick on all sides (on wrapped axes those coordinates alias).
  Box extended_box() const { return grow(interior_box(), 1); }

  bool wraps(int axis) const { return wrap_[static_cast<std::size_t>(axis)]; }
  /// Whether ghost group `dir` has storage: true iff the direction has
  /// no component along a wrapped axis.
  bool stores_group(int dir) const;
  /// `cells` grown by `layers` along the unwrapped axes only — the one
  /// rule by which communication-avoiding sweeps extend their active
  /// region into the ghost zone (a box past the interior on a wrapped
  /// axis would visit owned bricks twice; iteration_plan rejects it).
  Box grow_unwrapped(const Box& cells, index_t layers) const;

  /// Interior bricks plus the bricks of the stored ghost groups.
  std::int32_t num_bricks() const { return total_; }
  std::int32_t num_interior() const { return interior_count_; }

  /// Storage id of the brick at coordinate `bc` in [-1, nb+1)^3 (an
  /// aliased coordinate resolves to the brick it wraps onto); -1 if
  /// outside the extended grid.
  std::int32_t storage_id(Vec3 bc) const {
    if (!extended_box().contains(bc)) return -1;
    return id_of_[flat_index(bc)];
  }

  /// Brick coordinate of a storage id (never an aliased coordinate).
  Vec3 coord_of(std::int32_t id) const { return coord_of_[id]; }

  /// Storage id of the neighbor of brick `id` in direction `dir`
  /// (one of 27; dir 13 returns id itself); -1 if the neighbor lies
  /// outside the extended grid.
  std::int32_t adjacent(std::int32_t id, int dir) const {
    return adj_[id][dir];
  }
  const std::array<std::int32_t, kNumDirections>& adjacency(
      std::int32_t id) const {
    return adj_[id];
  }

  /// The contiguous storage range holding the ghost bricks received
  /// from the neighbor in direction `dir` (empty for an unstored group).
  BrickRange ghost_range(int dir) const;

  /// The memoized iteration plan for `active` under `brick_dims`
  /// (BrickShape element dims); `active` must stay inside the interior
  /// on wrapped axes. Repeated calls with the same arguments
  /// return the same shared plan — steady-state V-cycle sweeps resolve
  /// their brick list, storage ids, clip bounds, and adjacency pointers
  /// exactly once. Thread-safe. The grid is immutable, so plans are
  /// never invalidated; they simply must not outlive the grid (see
  /// BrickIterPlan).
  ///
  /// `mask` (optional) restricts the plan to the bricks whose storage
  /// id tests true — AMR level masks (DESIGN.md §17). Masked plans keep
  /// the full/clipped split and lexicographic order of the uniform
  /// path; the cache keys on the mask's (unique_id, version), so
  /// mutating a mask transparently misses to a fresh build.
  ///
  /// The cache is a bounded LRU (kPlanCacheCapacity entries;
  /// set_plan_cache_capacity changes it): AMR masks multiply the key
  /// space, and an unbounded memo would leak. Lookups bump trace
  /// counters brick.plan_cache.{hit,miss}.
  std::shared_ptr<const BrickIterPlan> iteration_plan(
      const Box& active, Vec3 brick_dims,
      const BrickMask* mask = nullptr) const;

  /// Plan-cache observability (per grid). Counters are cumulative.
  struct PlanCacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };
  PlanCacheStats plan_cache_stats() const;

  /// Shrink-or-grow the LRU capacity (testing / tuning hook). Excess
  /// least-recently-used entries are evicted immediately. Thread-safe;
  /// const because the cache is already mutable state of a logically
  /// immutable grid.
  void set_plan_cache_capacity(std::size_t cap) const;

  /// The storage runs covering an arbitrary brick-coordinate region
  /// (adjacent storage ids merged). Used to build send segments.
  std::vector<BrickRange> segments_of(const Box& region) const;

  /// The brick-coordinate region this rank sends toward direction
  /// `dir`: the interior bricks that are the neighbor's ghost region
  /// seen from the opposite side.
  Box surface_box(int dir) const {
    return surface_region(interior_box(), dir, 1);
  }
  /// Ghost region (brick coordinates) received from direction `dir`.
  Box ghost_box(int dir) const {
    return ghost_region(interior_box(), dir, 1);
  }

 private:
  std::size_t flat_index(Vec3 bc) const {
    const Vec3 e = extended_box().extent();
    return static_cast<std::size_t>((bc.z + 1) * e.y * e.x +
                                    (bc.y + 1) * e.x + (bc.x + 1));
  }

  Vec3 nb_;
  std::array<bool, 3> wrap_;
  std::int32_t total_ = 0;
  std::int32_t interior_count_ = 0;
  std::vector<std::int32_t> id_of_;   // flat extended-grid coord -> id
  std::vector<Vec3> coord_of_;        // id -> coord
  std::vector<std::array<std::int32_t, kNumDirections>> adj_;
  std::array<BrickRange, kNumDirections> ghost_ranges_{};

  std::shared_ptr<const BrickIterPlan> build_plan(const Box& active,
                                                  Vec3 brick_dims,
                                                  const BrickMask* mask) const;

  struct PlanKey {
    Box active;
    Vec3 brick_dims;
    std::uint64_t mask_id = 0;       // 0 == unmasked
    std::uint64_t mask_version = 0;  // 0 == unmasked
    friend bool operator==(const PlanKey&, const PlanKey&) = default;
  };
  // Few distinct keys are live at once (one per kernel margin, times
  // the active AMR masks), so an LRU list with linear scan beats a
  // hash map here. Front is least recently used, back most recent.
  mutable std::mutex plan_mu_;
  mutable std::vector<std::pair<PlanKey, std::shared_ptr<const BrickIterPlan>>>
      plan_cache_;
  mutable std::size_t plan_cache_cap_ = kPlanCacheCapacity;
  mutable PlanCacheStats plan_stats_{};
};

/// Floor division/modulo for mapping (possibly negative) ghost cell
/// coordinates to brick coordinates.
constexpr index_t floor_div(index_t a, index_t b) {
  return a >= 0 ? a / b : -((-a + b - 1) / b);
}
constexpr index_t floor_mod(index_t a, index_t b) {
  return a - floor_div(a, b) * b;
}

}  // namespace gmg

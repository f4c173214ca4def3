// Multi-RHS (batched) bricked storage — AoSoA with the batch index
// innermost (DESIGN.md §15).
//
// A batch of K systems shares one BrickGrid and stores component c of
// cell (i,j,k) at inner element (i*K + c, j, k) of a BrickedArray
// whose brick shape is stretched along x: {bx*K, by, bz}. That makes
// the K components of a cell adjacent in memory (the innermost fold of
// the AoSoA layout), keeps every brick contiguous, and — because the
// ghost-exchange engine only cares about whole-brick storage ranges —
// lets ONE BrickExchange round built on the stretched shape move all K
// components of every ghost brick per neighbor.
//
// The key flat-index identity the kernels build on: interior bricks are
// ids [0, num_interior) in both the solo and the stretched layout (same
// grid), so if a solo field stores interior element e at flat offset e,
// the batched field stores component c of that same cell at flat offset
// e*K + c. A BrickedArray is the same layout at K = 1, which is how one
// kernel set serves both (with_lanes below hands every kernel K as a
// compile-time constant): component c of the whole interior is a
// stride-K slice of one contiguous span.
#pragma once

#include <type_traits>
#include <utility>

#include "brick/bricked_array.hpp"

namespace gmg {

/// The stretched inner brick shape for a batch of `k` systems.
inline BrickShape stretched_shape(BrickShape base, int k) {
  return BrickShape{base.bx * static_cast<index_t>(k), base.by, base.bz};
}

/// Map a box in base cell coordinates to the stretched inner
/// coordinates (x scaled by K; the image covers all K components of
/// every base cell).
inline Box stretch_box(const Box& b, int k) {
  const index_t kk = static_cast<index_t>(k);
  return Box{{b.lo.x * kk, b.lo.y, b.lo.z}, {b.hi.x * kk, b.hi.y, b.hi.z}};
}

class BatchedBrickedArray {
 public:
  BatchedBrickedArray() = default;

  BatchedBrickedArray(std::shared_ptr<const BrickGrid> grid, BrickShape base,
                      int k, bool zero = true)
      : base_(base),
        k_(static_cast<index_t>(k)),
        inner_(std::move(grid), stretched_shape(base, k), zero) {}

  int batch() const { return static_cast<int>(k_); }
  BrickShape base_shape() const { return base_; }
  /// Brick shape and interior extent in cells, as BrickedArray's: the
  /// kernels tile cells, each carrying batch() lanes.
  BrickShape shape() const { return base_; }
  Vec3 extent() const {
    const Vec3 e = inner_.extent();
    return {e.x / k_, e.y, e.z};
  }

  /// The stretched-shape storage array: what the ghost exchange
  /// operates on directly.
  BrickedArray& inner() { return inner_; }
  const BrickedArray& inner() const { return inner_; }

  const BrickGrid& grid() const { return inner_.grid(); }
  std::size_t size() const { return inner_.size(); }
  real_t* data() { return inner_.data(); }
  const real_t* data() const { return inner_.data(); }

  /// Element access by base cell coordinate and component (convenience
  /// path; kernels iterate bricks directly).
  real_t& at(index_t i, index_t j, index_t k, int c) {
    return inner_(i * k_ + static_cast<index_t>(c), j, k);
  }
  const real_t& at(index_t i, index_t j, index_t k, int c) const {
    return inner_(i * k_ + static_cast<index_t>(c), j, k);
  }

 private:
  BrickShape base_{};
  index_t k_ = 1;
  BrickedArray inner_;
};

/// The widest batch the kernels are built for: every kernel of the one
/// kernel set is instantiated for K = 1..kMaxBatch lanes per cell
/// (with_lanes), so wider batches are rejected where they are formed
/// (GmgOptions::max_batch, BatchedSolver).
inline constexpr int kMaxBatch = 8;

/// A lane count K as a compile-time constant: what every kernel sees.
template <index_t K>
using Lanes = std::integral_constant<index_t, K>;
using OneLane = Lanes<1>;

/// The lane count of lane-count type KT (cv- and ref-qualified forms
/// included: decltype of a captured K may carry either).
template <class KT>
inline constexpr index_t kLanes = std::remove_cvref_t<KT>::value;

/// Whether lane-count type KT is K = 1: the solo code.
template <class KT>
inline constexpr bool kOneLane =
    std::is_same_v<std::remove_cvref_t<KT>, OneLane>;

/// Components per cell of a field, as a run-time value (flop tallies,
/// RHS setup, the cycle's bookkeeping — never a kernel loop bound).
inline int batch_width(const BrickedArray&) { return 1; }
inline int batch_width(const BatchedBrickedArray& a) { return a.batch(); }

/// Dispatch a callable templated on the lane count of `f`, as
/// with_brick_dims does on the brick shape: fn(Lanes<K>{}) with K the
/// field's components per cell. A BrickedArray is K = 1, and so is a
/// one-component batch: both run the solo code.
template <typename Fn>
decltype(auto) with_lanes(const BrickedArray&, Fn&& fn) {
  return fn(OneLane{});
}
template <typename Fn>
decltype(auto) with_lanes(const BatchedBrickedArray& f, Fn&& fn) {
  switch (f.batch()) {
    case 1:
      return fn(Lanes<1>{});
    case 2:
      return fn(Lanes<2>{});
    case 3:
      return fn(Lanes<3>{});
    case 4:
      return fn(Lanes<4>{});
    case 5:
      return fn(Lanes<5>{});
    case 6:
      return fn(Lanes<6>{});
    case 7:
      return fn(Lanes<7>{});
    case 8:
      return fn(Lanes<8>{});
    default:
      GMG_REQUIRE(false, "batch width outside [1, kMaxBatch]");
  }
  // unreachable; silences missing-return warnings
  return fn(OneLane{});
}
static_assert(kMaxBatch == 8, "with_lanes has one case per width");

/// with_brick_dims and with_lanes in one: fn(bd, K) with the brick
/// shape and lane count of `f` as compile-time constants.
template <class F, typename Fn>
decltype(auto) with_field_dims(const F& f, Fn&& fn) {
  return with_brick_dims(f.shape(), [&](auto bd) -> decltype(auto) {
    return with_lanes(f, [&](auto K) -> decltype(auto) { return fn(bd, K); });
  });
}

/// A field type of the one kernel set.
template <class F>
concept BrickField = std::is_same_v<F, BrickedArray> ||
                     std::is_same_v<F, BatchedBrickedArray>;

/// The brick storage the ghost exchange moves.
inline BrickedArray& storage(BrickedArray& a) { return a; }
inline BrickedArray& storage(BatchedBrickedArray& a) { return a.inner(); }

/// Component c of base cell (i, j, k) (element access; kernels iterate
/// bricks directly).
inline real_t& component(BrickedArray& a, index_t i, index_t j, index_t k,
                         int) {
  return a(i, j, k);
}
inline real_t& component(BatchedBrickedArray& a, index_t i, index_t j,
                         index_t k, int c) {
  return a.at(i, j, k, c);
}

}  // namespace gmg

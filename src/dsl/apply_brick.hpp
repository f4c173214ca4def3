// Apply a DSL expression over bricked storage — the fine-grain
// data-blocking engine of the paper.
//
// The iteration is brick-by-brick. Inside a brick, cells whose taps
// stay in-brick run through a unit-stride SIMD loop over contiguous
// memory (this is what fine-grain blocking buys: one address stream
// per brick instead of one per (j,k) row — paper §III). Cells on the
// brick boundary resolve their out-of-brick taps through the brick
// adjacency table, exactly like BrickLib's generated code.
//
// The engine takes an *active region* in cell coordinates that may
// extend into the ghost bricks: this is what makes communication-
// avoiding smoothing possible (compute redundantly into the ghost
// region, shrinking by the stencil radius each sweep — paper §V).
#pragma once

#include <array>
#include <iterator>
#include <tuple>
#include <utility>

#include "brick/batched_array.hpp"
#include "brick/brick_plan.hpp"
#include "brick/bricked_array.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "dsl/expr.hpp"

namespace gmg::dsl {

/// Roles of an apply's input slots, in slot order.
inline constexpr const char* kSlotRoles[] = {"in0", "in1", "in2", "in3",
                                             "in4", "in5", "in6", "in7"};

/// dsl::apply's effect summary over `slots` inputs: `out` written (and
/// read, for an increment), input slot s read under kSlotRoles[s]. The
/// slot reads carry no reach of their own: each binding brings its own
/// box, grown by exactly that slot's tap extents in the expression.
constexpr check::EffectSummary apply_effects(int slots, bool increment) {
  check::EffectSummary s = check::EffectSummary("dsl.apply").writes("out");
  if (increment) s = s.reads("out");
  for (int i = 0; i < slots; ++i) s = s.reads(kSlotRoles[i]);
  return s;
}

namespace detail {

/// Accessor for one brick: resolves local coordinates that step out of
/// [0,B)^3 through the adjacency table. |tap| must be <= B, i.e. the
/// stencil radius may not exceed the brick dimension (true for every
/// operator in the paper: radius 1, bricks 4 or 8). Slot s reads cell e
/// at field[s][e * stride_s]: a lane of a batched field (its base
/// offset to the lane, stride K) or a BrickedArray (the compile-time
/// stride 1 — solo storage, or a field shared by every lane).
template <typename BD, typename... Strides>
struct BrickAccessor {
  std::array<const real_t*, sizeof...(Strides)> field;  // base per slot
  std::tuple<Strides...> stride;
  const std::int32_t* adj;  // 27 adjacency entries
  std::int32_t id;          // current brick

  template <int Slot>
  real_t load(index_t li, index_t lj, index_t lk) const {
    const int sx = li < 0 ? -1 : (li >= BD::bx ? 1 : 0);
    const int sy = lj < 0 ? -1 : (lj >= BD::by ? 1 : 0);
    const int sz = lk < 0 ? -1 : (lk >= BD::bz ? 1 : 0);
    std::int32_t b = id;
    if (sx != 0 || sy != 0 || sz != 0) {
      b = adj[direction_index(sx, sy, sz)];
      GMG_ASSERT(b >= 0);
      li -= sx * BD::bx;
      lj -= sy * BD::by;
      lk -= sz * BD::bz;
    }
    return field[Slot][(static_cast<std::size_t>(b) * BD::volume +
                        static_cast<std::size_t>((lk * BD::by + lj) * BD::bx +
                                                 li)) *
                       std::get<Slot>(stride)];
  }
};

/// Accessor for rows whose taps provably stay inside the brick: plain
/// in-brick loads, vectorizable.
template <typename BD, typename... Strides>
struct FastAccessor {
  std::array<const real_t*, sizeof...(Strides)> brick;  // this brick
  std::tuple<Strides...> stride;

  template <int Slot>
  real_t load(index_t li, index_t lj, index_t lk) const {
    return brick[Slot][static_cast<std::size_t>((lk * BD::by + lj) * BD::bx +
                                                li) *
                       std::get<Slot>(stride)];
  }
};

/// Evaluate `expr` over cells [ilo, ihi) of row (lj, lk) of one brick,
/// handing each value to `emit(li, v)`. Rows whose taps stay in-brick
/// in y/z split x into shell|core|shell so the core is a pure in-brick
/// SIMD loop; the rest resolve taps through the adjacency table. The
/// fused variable-coefficient Jacobi sweep (gmg/fused_kernels.cpp)
/// evaluates its A*x rows through this same body, so its per-element
/// arithmetic is the apply's by construction.
template <typename BD, typename Expr, typename Slow, typename Fast,
          typename Emit>
inline void eval_row(const Expr& expr, const Extents& ext, const Slow& slow,
                     const Fast& fast, index_t lj, index_t lk, index_t ilo,
                     index_t ihi, Emit&& emit) {
  const bool zin = (lk + ext.lo[2] >= 0) && (lk + ext.hi[2] < BD::bz);
  const bool yin = (lj + ext.lo[1] >= 0) && (lj + ext.hi[1] < BD::by);
  if (zin && yin) {
    const index_t core_lo =
        std::max<index_t>(ilo, static_cast<index_t>(-ext.lo[0]));
    const index_t core_hi =
        std::min<index_t>(ihi, BD::bx - static_cast<index_t>(ext.hi[0]));
    for (index_t li = ilo; li < std::min(core_lo, ihi); ++li)
      emit(li, expr.eval(slow, li, lj, lk));
    if (core_lo < core_hi) {
#pragma omp simd
      for (index_t li = core_lo; li < core_hi; ++li)
        emit(li, expr.eval(fast, li, lj, lk));
    }
    for (index_t li = std::max(core_hi, ilo); li < ihi; ++li)
      emit(li, expr.eval(slow, li, lj, lk));
  } else {
    for (index_t li = ilo; li < ihi; ++li)
      emit(li, expr.eval(slow, li, lj, lk));
  }
}

/// The slow (adjacency-resolving) and fast (in-brick) accessors of plan
/// brick `id` over the slot bases of one lane.
template <typename BD, typename... Strides>
struct BrickAccessors {
  BrickAccessor<BD, Strides...> slow;
  FastAccessor<BD, Strides...> fast;

  BrickAccessors(const std::array<const real_t*, sizeof...(Strides)>& bases,
                 const std::tuple<Strides...>& strides,
                 const std::int32_t* adj, std::int32_t id)
      : slow{bases, strides, adj, id},
        fast{brick_bases(bases, strides, id,
                         std::index_sequence_for<Strides...>{}),
             strides} {}

 private:
  template <std::size_t... S>
  static std::array<const real_t*, sizeof...(S)> brick_bases(
      const std::array<const real_t*, sizeof...(S)>& bases,
      const std::tuple<Strides...>& strides, std::int32_t id,
      std::index_sequence<S...>) {
    return {(bases[S] + static_cast<std::size_t>(id) * BD::volume *
                            std::get<S>(strides))...};
  }
};

/// Slot base of lane c: a batched field's lane sits at offset c; a
/// BrickedArray is read by every lane.
inline const real_t* lane_base(const BrickedArray& f, index_t) {
  return f.data();
}
inline const real_t* lane_base(const BatchedBrickedArray& f, index_t c) {
  return f.data() + c;
}

template <bool Increment, typename BD, typename Expr, class Out,
          typename... Fields>
void apply_bricks_impl(BD, const Expr& expr, Out& out, const Box& active,
                       const Fields&... inputs) {
  const BrickGrid& grid = out.grid();
  const auto K = lanes(out);
  const auto check_slot = [&](const auto& f) {
    GMG_REQUIRE(&f.grid() == &grid,
                "all fields of one apply must share a brick grid");
    GMG_REQUIRE(lanes(f) == 1 || lanes(f) == K,
                "an apply input is the output's batch or shared by it");
  };
  (check_slot(inputs), ...);

  // Footprint-vs-ghost-depth check (src/check): an undersized ghost
  // depth is a setup failure here, not a silent out-of-ghost read in
  // the accessor.
  const Extents ext = expr.extents();
  check::require_footprint_fits("dsl::apply",
                                ext, BrickShape{BD::bx, BD::by, BD::bz});

  constexpr int kSlots = sizeof...(Fields);
  static_assert(kSlots <= static_cast<int>(std::size(kSlotRoles)),
                "one role per input slot");
  const std::tuple strides{lanes(inputs)...};

  // Access-hazard scope: out is written over `active` (and read, for an
  // increment); each input is read over `active` grown by its own
  // slot's tap extents. The expression is this kernel's one
  // declaration, so the slot boxes are derived from it — walking its
  // tap set only while the detector is on.
  std::array<Box, kSlots> slot_box{};
  if (check::enabled()) {
    const OffsetSet offs = expr.offsets();
    for (int s = 0; s < kSlots; ++s) {
      const Extents se = offs.slot_extents(s);
      slot_box[static_cast<std::size_t>(s)] =
          Box{{active.lo.x + se.lo[0], active.lo.y + se.lo[1],
               active.lo.z + se.lo[2]},
              {active.hi.x + se.hi[0], active.hi.y + se.hi[1],
               active.hi.z + se.hi[2]}};
    }
  }
  const auto scope = [&]<std::size_t... S>(std::index_sequence<S...>) {
    return check::scope(
        apply_effects(kSlots, Increment), active,
        {check::bind("out", out),
         check::bind(kSlotRoles[S], inputs, slot_box[S])...});
  }(std::index_sequence_for<Fields...>{});

  // Taps of the outermost active cells must still hit existing bricks
  // (the plan itself validates the active region's own brick cover).
  {
    const Box tap_region{
        {floor_div(active.lo.x + ext.lo[0], BD::bx),
         floor_div(active.lo.y + ext.lo[1], BD::by),
         floor_div(active.lo.z + ext.lo[2], BD::bz)},
        {floor_div(active.hi.x - 1 + ext.hi[0], BD::bx) + 1,
         floor_div(active.hi.y - 1 + ext.hi[1], BD::by) + 1,
         floor_div(active.hi.z - 1 + ext.hi[2], BD::bz) + 1}};
    GMG_REQUIRE(grid.extended_box().covers(tap_region),
                "stencil taps reach beyond the ghost bricks");
  }

  const auto plan = grid.iteration_plan(active, Vec3{BD::bx, BD::by, BD::bz});
  real_t* const out_base = out.data();
  for_each_plan_brick<BD>(
      "dsl.apply", *plan, [&](const BrickPlanItem& it, auto full) {
        constexpr bool kFull = decltype(full)::value;
        const std::int32_t id = it.id;
        real_t* __restrict ob =
            out_base + static_cast<std::size_t>(id * BD::volume * K);

        // Active cell region clipped to this brick (local coords) —
        // whole-brick constants for the plan's full bricks.
        const index_t ilo = kFull ? 0 : it.ilo;
        const index_t ihi = kFull ? BD::bx : it.ihi;
        const index_t jlo = kFull ? 0 : it.jlo;
        const index_t jhi = kFull ? BD::by : it.jhi;
        const index_t klo = kFull ? 0 : it.klo;
        const index_t khi = kFull ? BD::bz : it.khi;

        for (index_t c = 0; c < K; ++c) {
          const std::array<const real_t*, kSlots> bases{
              lane_base(inputs, c)...};
          const BrickAccessors<BD, decltype(lanes(inputs))...> acc(
              bases, strides, it.adj, id);
          for (index_t lk = klo; lk < khi; ++lk) {
            for (index_t lj = jlo; lj < jhi; ++lj) {
              real_t* __restrict orow =
                  ob + (lk * BD::by + lj) * BD::bx * K + c;
              eval_row<BD>(expr, ext, acc.slow, acc.fast, lj, lk, ilo, ihi,
                           [&](index_t li, real_t v) {
                             if constexpr (Increment)
                               orow[li * K] += v;
                             else
                               orow[li * K] = v;
                           });
            }
          }
        }
      });
}

}  // namespace detail

/// out(i,j,k) = expr over `active` (cell coordinates; may extend into
/// the ghost bricks for communication-avoiding sweeps), every lane of a
/// batched `out`; each input is out's batch or one field shared by
/// every lane.
template <typename Expr, BrickField Out, typename... Fields>
void apply(const Expr& expr, Out& out, const Box& active,
           const Fields&... inputs) {
  const auto check_shape = [&](const auto& f) {
    GMG_REQUIRE(f.shape() == out.shape(), "brick shape mismatch");
  };
  (check_shape(inputs), ...);
  with_brick_dims(out.shape(), [&](auto bd) {
    detail::apply_bricks_impl<false>(bd, expr, out, active, inputs...);
  });
}

/// out(i,j,k) += expr over `active`.
template <typename Expr, BrickField Out, typename... Fields>
void apply_increment(const Expr& expr, Out& out, const Box& active,
                     const Fields&... inputs) {
  const auto check_shape = [&](const auto& f) {
    GMG_REQUIRE(f.shape() == out.shape(), "brick shape mismatch");
  };
  (check_shape(inputs), ...);
  with_brick_dims(out.shape(), [&](auto bd) {
    detail::apply_bricks_impl<true>(bd, expr, out, active, inputs...);
  });
}

}  // namespace gmg::dsl

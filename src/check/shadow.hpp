// Debug-build brick access-hazard detector (layer 2 of src/check).
//
// The kernel runtime's chunk plans are deterministic (DESIGN.md §11):
// the same bricks land in the same chunks on every run, so TSan almost
// never sees the conflicting schedules that a wrong plan *could*
// produce. This tracker checks the
// region-disjointness invariants directly instead of waiting for an
// unlucky interleaving:
//
//   - every kernel launch opens a scope declaring, per field, the cell
//     box it writes and the (tap-grown) boxes it reads — derived by
//     check::scope from the kernel's constexpr EffectSummary
//     (effects.hpp), its launch box and its role->field bindings;
//   - each exchange round (BrickExchange, PatchExchange) marks the
//     receive ghost-brick ranges of its fields in flight from posting
//     until its wait returns (sends are buffered at post time, so only
//     receives matter);
//   - hazards are recorded when a scope reads or writes an in-flight
//     ghost brick (a kernel racing a round's receives), when two
//     concurrently open scopes write intersecting cell boxes of one
//     field, when a second exchange begins while one is in flight for
//     the same field, or when a cached iteration plan is structurally
//     corrupt (a kernel would write bricks outside its declared
//     footprint).
//
// Enabled via GMG_CHECK=1 (or the GMG_CHECK CMake option, which flips
// the default). Disabled, a launch pays one enabled() call — an atomic
// load — and the stack stores of its bindings: no access is derived,
// nothing is heap-allocated and nothing runs per brick or cell, so
// release solve time is unaffected. Hazards are recorded, not thrown
// (kernels run on engine workers where an exception would terminate
// the process); tests and CI drain them via hazards()/require_clean().
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "brick/batched_array.hpp"
#include "brick/brick_grid.hpp"
#include "brick/bricked_array.hpp"
#include "check/effects.hpp"
#include "mesh/box.hpp"

namespace gmg::check {

/// Is the detector on? First call resolves GMG_CHECK from the
/// environment (GMG_CHECK_DEFAULT_ON builds default to on); cached in
/// an atomic afterwards.
bool enabled();
/// Programmatic override (tests); wins over the environment.
void set_enabled(bool on);

enum class HazardKind {
  kReadInflightGhost,   // read of a ghost brick whose exchange has not finished
  kWriteInflightGhost,  // write into an in-flight receive ghost brick
  kWriteWriteOverlap,   // two open scopes write intersecting boxes of a field
  kOverlappingExchange, // begin() while the field is already in flight
  kCorruptPlan,         // iteration plan covers bricks outside its declaration
};

const char* hazard_kind_name(HazardKind kind);

struct HazardRecord {
  HazardKind kind;
  std::string detail;    // kernel/exchange name + field + box/brick info
  std::uint64_t epoch;   // per-field write epoch when the hazard fired
};

/// One declared field access of a kernel launch. `box` is in cell
/// coordinates of the field's grid; reads pass their box already grown
/// by the stencil reach.
struct Access {
  const void* key = nullptr;         // field identity: storage base pointer
  const BrickGrid* grid = nullptr;
  Vec3 brick_dims{0, 0, 0};
  Box box;
};

inline Access access(const BrickedArray& f, const Box& box) {
  return Access{f.data(), &f.grid(), f.shape().dims(), box};
}

/// A batched field's cell box covers every lane of its cells: the box
/// stretched onto the storage's x axis.
inline Access access(const BatchedBrickedArray& f, const Box& box) {
  return access(f.inner(), stretch_box(box, f.batch()));
}

/// RAII declaration of one kernel launch's reads and writes. All
/// hazard checks run in the constructor; the destructor closes the
/// scope and bumps the write epoch of every written field. Kernels
/// open theirs through check::scope below; a default-constructed scope
/// is inert.
class KernelScope {
 public:
  KernelScope() = default;
  KernelScope(const char* name, std::vector<Access> writes,
              std::vector<Access> reads);
  ~KernelScope();
  KernelScope(KernelScope&& other) noexcept : token_(other.token_) {
    other.token_ = 0;
  }
  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;
  KernelScope& operator=(KernelScope&&) = delete;

 private:
  std::uint64_t token_ = 0;  // 0: detector was off at construction
};

/// One role -> field binding of a kernel launch (check::scope): the
/// field, and — for a role that lives on another grid or covers only
/// part of the launch, one face of several — its own box. A null field
/// is an optional role this launch skips.
struct FieldBinding {
  const char* role = "";
  const void* field = nullptr;
  Access (*make_access)(const void* field, const Box& box) = nullptr;
  std::optional<Box> box;
};

template <BrickField F>
FieldBinding bind(const char* role, const F* field,
                  std::optional<Box> box = std::nullopt) {
  return FieldBinding{role, field,
                      [](const void* f, const Box& b) {
                        return access(*static_cast<const F*>(f), b);
                      },
                      box};
}
template <BrickField F>
FieldBinding bind(const char* role, const F& field,
                  std::optional<Box> box = std::nullopt) {
  return bind<F>(role, &field, box);
}

/// The accesses of one launch, derived from its kernel's summary: the
/// body of check::scope, which calls it only while the detector is on.
struct ScopeAccesses {
  std::vector<Access> writes;
  std::vector<Access> reads;
};
ScopeAccesses derive_accesses(const EffectSummary& s, const Box& box,
                              std::span<const FieldBinding> binds);

/// The GMG_CHECK scope of one launch of the kernel `s` summarises, over
/// `box`: each effect's role is looked up in `binds`
/// (for_each_bound_effect); writes cover the binding's box — the launch
/// box unless it carries its own — and reads that box grown by the
/// role's declared reach. While the detector is off it returns an inert
/// scope and derives nothing.
[[nodiscard]] inline KernelScope scope(const EffectSummary& s,
                                       const Box& box,
                                       std::span<const FieldBinding> binds) {
  if (!enabled()) return KernelScope();
  ScopeAccesses a = derive_accesses(s, box, binds);
  return KernelScope(s.kernel, std::move(a.writes), std::move(a.reads));
}
[[nodiscard]] inline KernelScope scope(
    const EffectSummary& s, const Box& box,
    std::initializer_list<FieldBinding> binds) {
  return scope(s, box, std::span(binds.begin(), binds.size()));
}

/// Exchange hooks (called by comm::BrickExchange and PatchExchange
/// around each round's wait). `ghost_ranges` are the storage ranges the
/// in-flight receives will scatter into.
void on_receives_posted(const void* key, const BrickGrid* grid,
                        const std::vector<BrickRange>& ghost_ranges);
void on_receives_done(const void* key);

/// Structural validation of a cached iteration plan, run once per
/// launch by for_each_plan_brick when the detector is on: unique
/// non-negative ids, a genuinely-full full prefix, in-range clip
/// bounds. A violation means chunks would write bricks outside the
/// declared active region.
void validate_plan(const char* name, const BrickPlanItem* items,
                   std::size_t count, std::int64_t num_full, Vec3 brick_dims);

// Hazard sink. Thread-safe; reset() also drops all shadow state
// (in-flight marks, open scopes, epochs).
std::size_t hazard_count();
std::vector<HazardRecord> hazards();
void clear_hazards();
void reset();
/// Throws gmg::Error listing every recorded hazard unless clean.
void require_clean(const std::string& what);

}  // namespace gmg::check

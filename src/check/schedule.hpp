// Setup-time schedule verification (DESIGN.md §18, layer 3 of the
// verification ladder). A Schedule is the full planned sequence of
// kernel launches, blocking ghost exchanges, masked sweeps,
// reductions and component retirements one solver
// configuration will execute — recorded by driving the solvers' own
// cycle through a recording executor (gmg/schedule_audit.hpp; the
// batched and AMR composite recordings build on it) without running a
// single sweep. The ScheduleVerifier then
// statically proves, per level and per field:
//
//   * ghost-validity: every read reaching `g` layers past the
//     interior is preceded by a completed exchange (or producing
//     write) that filled at least `g` layers — the CA margin
//     invariant, proven over the whole plan instead of observed at
//     runtime by GMG_CHECK; on a wrapped axis reads are always valid
//     and writes past the interior are rejected;
//   * effect conformance: each recorded access matches the kernel's
//     constexpr EffectSummary — an access with no declared effect for
//     its role is an undeclared read/write box;
//   * no in-place stencil updates: a launch never writes, through one
//     role, the field it reads through a stencil (reach > 0) under
//     another role — the one-pass Jacobi sweep must write its spare
//     buffer;
//   * fused chunk disjointness: a fused stage's per-chunk write boxes
//     are pairwise disjoint (congruent aligned tiles take an O(n)
//     hash path; small irregular sets fall back to O(n^2));
//   * masked plans: the scheduled brick set never intersects the
//     covered set;
//   * reduction order: within a reduction group components are
//     non-decreasing, and a retired component never appears in a
//     later group — so batch retirement cannot reorder reductions.
//
// Failures reject the solver at setup with a diagnostic naming the
// offending kernel pair and step indices. Gated by GMG_VERIFY_SCHEDULE
// (default on; "0" disables).
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "check/effects.hpp"
#include "common/types.hpp"
#include "mesh/box.hpp"

namespace gmg::check {

/// Process-wide gate, mirroring check::enabled() for GMG_CHECK.
/// Reads GMG_VERIFY_SCHEDULE once; default on.
bool verify_schedule_enabled();
void set_verify_schedule_enabled(bool on);

/// Count of schedules proven clean since process start (serve-tier
/// stats surface this: every hierarchy the cache builds was verified).
std::uint64_t schedules_verified();

/// One recorded field access of a kernel step. `box` is in the level's
/// local cell coordinates (the interior is [0, cells)); `reach` is the
/// stencil radius beyond `box` for reads and must be 0 for writes.
/// `role` names the formal slot in the kernel's EffectSummary this
/// access binds ("x", "b", "coarse", ...).
struct StepAccess {
  std::string field;
  int level = 0;
  Box box;
  int reach = 0;
  bool write = false;
  std::string role;
};

enum class StepKind : std::uint8_t {
  kKernel,
  kExchange,        // blocking: fields valid to `exchange_depth` after
  kReduction,       // one collective contribution (component, group)
  kRetire,          // batch component retirement
  kSwap,            // two fields of one level exchange storage (ping-pong)
};

struct ScheduleStep {
  StepKind kind = StepKind::kKernel;
  std::string kernel;  // kernel name / exchange label / reduction op
  int level = 0;
  std::vector<StepAccess> accesses;

  // kExchange: which fields, filled to what depth.
  std::vector<std::string> exchange_fields;
  index_t exchange_depth = 0;

  // Masked kernel steps (AMR level masks): brick storage ids this
  // launch schedules, and the ids the mask declares covered.
  std::vector<std::int32_t> scheduled_bricks;
  std::vector<std::int32_t> covered_bricks;

  // Fused stages: per-chunk write boxes that must be pairwise
  // disjoint (the parallel chunks of one fused launch). When
  // `chunk_pitch` is set to the brick dims, each chunk is expected to
  // stay inside one cell of that tiling — the O(n) disjointness fast
  // path; irregular sets fall back to O(n^2).
  std::vector<Box> chunk_writes;
  Vec3 chunk_pitch{0, 0, 0};

  // kReduction / kRetire: batch component and reduction group id.
  // `retirement_masked` marks reductions belonging to a sequence that
  // skips retired components (residual_norms); only those are subject
  // to the never-resurrect rule. Unmasked sequences (bottom CG, which
  // keeps every component riding to preserve the collective count)
  // are order-checked but exempt.
  int component = -1;
  int reduction_group = -1;
  bool retirement_masked = false;

  // The kernel's static effect summary (empty => no conformance check,
  // used only for exchange/reduction pseudo-steps).
  EffectSummary summary;
};

/// Static per-level geometry the verifier needs: the interior box in
/// local coordinates, the ghost capacity in layers, and which axes the
/// level's brick grid wraps (DESIGN.md §11): past the interior on a
/// wrapped axis every read lands on owned cells and is always valid,
/// while a write there is rejected — it would hit an owned cell
/// through its alias.
struct LevelInfo {
  int level = 0;
  Box interior;
  index_t ghost_depth = 0;
  bool wrapped[3] = {false, false, false};
};

/// Initial ghost validity of one field (e.g. init_zero'd fields start
/// fully valid; freshly-set RHS interiors start at 0).
struct InitialValidity {
  std::string field;
  int level = 0;
  index_t valid_layers = 0;
};

struct Schedule {
  std::string name;
  std::vector<LevelInfo> levels;
  std::vector<InitialValidity> initial;
  std::vector<ScheduleStep> steps;
  int num_components = 1;  // batch width K (reduction components)
};

/// One role -> field binding of a recorded launch
/// (ScheduleRecorder::launch): the schedule field name — null for an
/// optional role this launch skips — and, for a role that lives off
/// the launch's level and box (the coarse grid of a transfer, the patch
/// of an interface kernel), its own level and box.
struct StepBinding {
  StepBinding(const char* role, const char* field)
      : role(role), field(field) {}
  StepBinding(const char* role, const char* field, int level, const Box& box)
      : role(role), field(field), level(level), box(box) {}

  const char* role;
  const char* field;
  int level = -1;  // -1: the launch's level and box
  Box box;
};

/// Builder used by the recording executors. Thin: it owns the Schedule
/// and hands out step construction helpers.
class ScheduleRecorder {
 public:
  explicit ScheduleRecorder(std::string name) { sched_.name = std::move(name); }

  Schedule& schedule() { return sched_; }
  const Schedule& schedule() const { return sched_; }
  Schedule take() { return std::move(sched_); }

  void add_level(const LevelInfo& info) { sched_.levels.push_back(info); }
  void set_initial(const std::string& field, int level, index_t layers) {
    sched_.initial.push_back(InitialValidity{field, level, layers});
  }
  void set_num_components(int k) { sched_.num_components = k; }

  ScheduleStep& push(ScheduleStep step) {
    ScheduleStep& out = emplace();
    out = std::move(step);
    return out;
  }

  ScheduleStep& emplace() {
    if (sched_.steps.capacity() == sched_.steps.size())
      sched_.steps.reserve(
          std::max<std::size_t>(256, sched_.steps.size() * 2));
    return sched_.steps.emplace_back();
  }

  /// Kernel step of `summary` on `level`, named by the summary, with no
  /// accesses yet (hand-built schedules append their own).
  ScheduleStep& kernel(const EffectSummary& summary, int level) {
    // Built in place — a schedule holds thousands of kernel steps and
    // this runs in every solver constructor (see the overhead budget in
    // ci/tier1.sh): no intermediate ScheduleStep to move.
    ScheduleStep& out = emplace();
    out.kind = StepKind::kKernel;
    out.kernel = summary.kernel;
    out.level = level;
    out.summary = summary;
    return out;
  }

  /// A planned launch of the kernel `summary` describes, on `level`
  /// over `box`: one access per effect and bound field
  /// (for_each_bound_effect) — writes over the binding's box (the
  /// launch box unless it carries its own), reads over it with the
  /// role's declared reach.
  ScheduleStep& launch(const EffectSummary& summary, int level,
                       const Box& box,
                       std::initializer_list<StepBinding> binds);

  void exchange(int level, std::vector<std::string> fields, index_t depth) {
    ScheduleStep s;
    s.kind = StepKind::kExchange;
    s.kernel = "exchange";
    s.level = level;
    s.exchange_fields = std::move(fields);
    s.exchange_depth = depth;
    push(std::move(s));
  }

  int next_reduction_group() { return reduction_groups_++; }
  void reduction(const char* op, int level, int component, int group,
                 bool retirement_masked = false) {
    ScheduleStep s;
    s.kind = StepKind::kReduction;
    s.kernel = op;
    s.level = level;
    s.component = component;
    s.reduction_group = group;
    s.retirement_masked = retirement_masked;
    push(std::move(s));
  }
  void retire(int component) {
    ScheduleStep s;
    s.kind = StepKind::kRetire;
    s.kernel = "retire";
    s.component = component;
    push(std::move(s));
  }
  /// The two named fields of `level` trade storage (the Jacobi sweep's
  /// x <-> Ax ping-pong): their ghost-validity states swap with them.
  void swap(int level, const std::string& a, const std::string& b) {
    ScheduleStep s;
    s.kind = StepKind::kSwap;
    s.kernel = "swap";
    s.level = level;
    s.exchange_fields = {a, b};
    push(std::move(s));
  }

 private:
  Schedule sched_;
  int reduction_groups_ = 0;
};

/// Access builders for hand-built schedules (the recorders derive
/// theirs through ScheduleRecorder::launch).
inline StepAccess read_access(const std::string& field, int level,
                              const Box& box, int reach,
                              const std::string& role) {
  return StepAccess{field, level, box, reach, false, role};
}
inline StepAccess write_access(const std::string& field, int level,
                               const Box& box, const std::string& role) {
  return StepAccess{field, level, box, 0, true, role};
}

/// The static prover. check() returns every diagnostic (empty ==
/// schedule is clean); verify() throws gmg::Error on the first
/// finding, with the schedule name, step index and offending kernel
/// pair in the message. Thread-safe (no shared state).
class ScheduleVerifier {
 public:
  std::vector<std::string> check(const Schedule& sched) const;
  void verify(const Schedule& sched) const;
};

/// Record of a completed verification, for the setup-overhead bench
/// and the serve stats.
void note_schedule_verified();

}  // namespace gmg::check

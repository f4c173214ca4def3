// Static kernel-effect summaries (DESIGN.md §18, layer 2 of the
// verification ladder). An EffectSummary is a constexpr description of
// what one kernel launch touches: its name, which field *roles* it
// writes and which it reads, and — for reads — how far beyond its
// active box the stencil taps reach. The reaches restate the constexpr
// DSL footprints (footprint.hpp); static_asserts next to each kernel
// pin them to each other.
//
// The summary is a kernel's one declaration of its accesses. Both
// consumers derive from it through for_each_bound_effect below, given
// a launch box and role->field bindings: the GMG_CHECK scope the kernel
// opens (check::scope, shadow.hpp) and the step a schedule recorder
// writes (ScheduleRecorder::launch, schedule.hpp), which the schedule
// verifier proves hazard-free at setup time.
//
// Every kernel in src/gmg, src/dsl (stencilgen-emitted included) and
// src/amr exports one as a sibling `<kernel>_effects()` constexpr
// function and opens its scope from it — enforced by gmg_lint rule
// effect-scope.
//
// Roles are positional names ("x", "b", "Ax", "coarse", "fine", ...),
// not concrete field identities: each launch binds them to its fields,
// and the verifier cross-checks a recorded step's accesses against the
// summary — a recorded write with no declared write effect for its
// role is the "undeclared write box" hazard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace gmg::check {

/// constexpr-safe string equality for role/kernel names.
constexpr bool streq(const char* a, const char* b) {
  while (*a != '\0' && *a == *b) {
    ++a;
    ++b;
  }
  return *a == *b;
}

enum class EffectKind : std::uint8_t { kRead, kWrite };

/// One field-role effect: `reach` is the stencil radius beyond the
/// kernel's active box (always 0 for writes — kernels write only the
/// cells they are launched over, plus any ghost spill declared via the
/// recorded access box itself).
struct FieldEffect {
  EffectKind kind = EffectKind::kRead;
  const char* role = "";
  int reach = 0;
};

/// The full effect set of one kernel. Built fluently:
///   constexpr check::EffectSummary smooth_effects() {
///     return check::EffectSummary("kernel.smooth")
///         .writes("x").reads("x").reads("Ax").reads("b");
///   }
struct EffectSummary {
  static constexpr int kMaxEffects = 12;

  const char* kernel = "";
  FieldEffect effects[kMaxEffects] = {};
  int count = 0;

  constexpr EffectSummary() = default;
  constexpr explicit EffectSummary(const char* name) : kernel(name) {}

  constexpr EffectSummary writes(const char* role) const {
    return with(FieldEffect{EffectKind::kWrite, role, 0});
  }
  constexpr EffectSummary reads(const char* role, int reach = 0) const {
    return with(FieldEffect{EffectKind::kRead, role, reach});
  }

  constexpr bool empty() const { return count == 0; }

  /// Declared read reach for `role`, or -1 when the summary declares
  /// no read of that role.
  constexpr int read_reach(const char* role) const {
    for (int i = 0; i < count; ++i) {
      if (effects[i].kind == EffectKind::kRead && streq(effects[i].role, role))
        return effects[i].reach;
    }
    return -1;
  }

  constexpr bool writes_role(const char* role) const {
    for (int i = 0; i < count; ++i) {
      if (effects[i].kind == EffectKind::kWrite && streq(effects[i].role, role))
        return true;
    }
    return false;
  }

  constexpr int max_read_reach() const {
    int m = 0;
    for (int i = 0; i < count; ++i) {
      if (effects[i].kind == EffectKind::kRead && effects[i].reach > m)
        m = effects[i].reach;
    }
    return m;
  }

 private:
  constexpr EffectSummary with(FieldEffect e) const {
    EffectSummary s = *this;
    // Silently saturating would hide effects from the verifier; a
    // constexpr out-of-bounds write fails compilation instead.
    s.effects[s.count] = e;
    s.count = s.count + 1;
    return s;
  }
};

/// The one traversal of a summary that both consumers share: the
/// GMG_CHECK scope of a launch (shadow.hpp) and its recorded schedule
/// step (schedule.hpp). `binds[0, n)` map roles to the launch's fields
/// (each Binding has a `role` and a `field`, null for an optional role
/// this launch skips). Calls `fn(bind, write, reach)` once per effect
/// and non-null binding of its role, in effect order; `reach` is the
/// role's declared read reach, 0 for writes. A role may be bound more
/// than once (one binding per face, say). A binding naming a role the
/// summary lacks, or a summary role left unbound, is a GMG_REQUIRE
/// failure.
template <class Binding, class Fn>
void for_each_bound_effect(const EffectSummary& s, const Binding* binds,
                           std::size_t n, Fn&& fn) {
  // One pass over effects x bindings: the recorders run this for every
  // step of every schedule they record, in each solver constructor.
  GMG_REQUIRE(n <= 64, "at most 64 bindings per launch");
  std::uint64_t matched = 0;
  for (int e = 0; e < s.count; ++e) {
    const FieldEffect& fx = s.effects[e];
    bool bound = false;
    for (std::size_t b = 0; b < n; ++b) {
      if (!streq(binds[b].role, fx.role)) continue;
      bound = true;
      matched |= std::uint64_t{1} << b;
      if (binds[b].field == nullptr) continue;
      const bool write = fx.kind == EffectKind::kWrite;
      fn(binds[b], write, write ? 0 : fx.reach);
    }
    GMG_REQUIRE(bound, std::string(s.kernel) + " leaves role '" + fx.role +
                           "' of its EffectSummary unbound");
  }
  for (std::size_t b = 0; b < n; ++b) {
    GMG_REQUIRE((matched >> b) & 1,
                std::string(s.kernel) + " binds role '" + binds[b].role +
                    "', which its EffectSummary does not declare");
  }
}

}  // namespace gmg::check

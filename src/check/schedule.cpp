#include "check/schedule.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"

namespace gmg::check {

namespace {

std::atomic<bool> g_verify_enabled{[] {
  const char* env = std::getenv("GMG_VERIFY_SCHEDULE");
  return env == nullptr || std::string(env) != "0";
}()};

std::atomic<std::uint64_t> g_verified_count{0};

}  // namespace

bool verify_schedule_enabled() {
  return g_verify_enabled.load(std::memory_order_relaxed);
}
void set_verify_schedule_enabled(bool on) {
  g_verify_enabled.store(on, std::memory_order_relaxed);
}
std::uint64_t schedules_verified() {
  return g_verified_count.load(std::memory_order_relaxed);
}
void note_schedule_verified() {
  g_verified_count.fetch_add(1, std::memory_order_relaxed);
}

ScheduleStep& ScheduleRecorder::launch(
    const EffectSummary& summary, int level, const Box& box,
    std::initializer_list<StepBinding> binds) {
  ScheduleStep& step = kernel(summary, level);
  // One up-front allocation for the handful of accesses instead of the
  // vector's growth ladder.
  step.accesses.reserve(6);
  for_each_bound_effect(
      summary, binds.begin(), binds.size(),
      [&](const StepBinding& b, bool write, int reach) {
        const bool own = b.level >= 0;
        step.accesses.emplace_back(b.field, own ? b.level : level,
                                   own ? b.box : box, reach, write, b.role);
      });
  return step;
}

namespace {

// Per-(level, field) ghost-validity state: how many ghost layers hold
// values coherent with the interior, and which step produced them.
// Provenance is kept as step indices and rendered lazily — producer
// strings are only built inside a failure branch, so the clean-path
// cost per write/exchange is a couple of integer stores (the verifier
// runs inside every solver constructor; see the overhead budget in
// ci/tier1.sh).
struct FieldState {
  enum class From : std::uint8_t { kInitial, kWrite, kExchange };
  index_t valid = 0;
  From from = From::kInitial;
  std::size_t step = 0;  // producing step (kWrite/kExchange)
};

struct FieldSlot {
  std::string field;
  FieldState st;
};

struct LevelSlots {
  int level = 0;
  std::vector<FieldSlot> fields;
};

struct SideNeed {
  int lo[3] = {0, 0, 0};
  int hi[3] = {0, 0, 0};
  int max() const {
    int m = lo[0];
    for (int d = 0; d < 3; ++d) m = std::max({m, lo[d], hi[d]});
    return m;
  }
};

// Ghost growth of `box` beyond `interior`, per face, plus the read
// reach: how many ghost layers each side of this access touches.
SideNeed side_need(const Box& box, const Box& interior, int reach) {
  SideNeed n;
  for (int d = 0; d < 3; ++d) {
    n.lo[d] = static_cast<int>(interior.lo[d] - box.lo[d]) + reach;
    n.hi[d] = static_cast<int>(box.hi[d] - interior.hi[d]) + reach;
  }
  return n;
}

std::string step_name(const Schedule& s, std::size_t i) {
  std::ostringstream os;
  os << "'" << s.steps[i].kernel << "' (step " << i << ", level "
     << s.steps[i].level << ")";
  return os.str();
}

class Checker {
 public:
  explicit Checker(const Schedule& s) : s_(s) {
    for (const LevelInfo& l : s.levels) levels_[l.level] = &l;
    for (const InitialValidity& iv : s.initial) {
      state(iv.level, iv.field) = FieldState{iv.valid_layers};
    }
  }

  std::vector<std::string> run() {
    for (i_ = 0; i_ < s_.steps.size(); ++i_) {
      const ScheduleStep& st = s_.steps[i_];
      switch (st.kind) {
        case StepKind::kExchange:
          check_exchange(st);
          break;
        case StepKind::kKernel:
          check_kernel(st);
          break;
        case StepKind::kReduction:
          check_reduction(st);
          break;
        case StepKind::kRetire:
          check_retire(st);
          break;
        case StepKind::kSwap:
          check_swap(st);
          break;
      }
    }
    return std::move(diags_);
  }

 private:
  std::string producer_name(const FieldState& fs) const {
    switch (fs.from) {
      case FieldState::From::kInitial:
        return "initial state";
      case FieldState::From::kWrite:
        return "write by " + step_name(s_, fs.step);
      case FieldState::From::kExchange:
        return step_name(s_, fs.step);
    }
    return "initial state";
  }

  void report(const std::string& msg) {
    std::ostringstream os;
    os << "[schedule '" << s_.name << "'] " << msg;
    diags_.push_back(os.str());
  }

  const LevelInfo* level_info(int l) {
    auto it = levels_.find(l);
    if (it == levels_.end()) {
      std::ostringstream os;
      os << step_name(s_, i_) << " references level " << l
         << " with no LevelInfo";
      report(os.str());
      return nullptr;
    }
    return it->second;
  }

  // A schedule touches a handful of fields on a handful of levels, so
  // per-(level, field) state lives in flat arrays scanned linearly —
  // no hashing and no key-string copies on the per-access hot path.
  FieldState& state(int level, const std::string& field) {
    LevelSlots& ls = level_slots(level);
    for (FieldSlot& s : ls.fields) {
      if (s.field == field) return s.st;
    }
    ls.fields.push_back(FieldSlot{field, FieldState{}});
    return ls.fields.back().st;
  }

  LevelSlots& level_slots(int level) {
    for (LevelSlots& ls : state_) {
      if (ls.level == level) return ls;
    }
    state_.push_back(LevelSlots{level, {}});
    return state_.back();
  }

  void check_exchange(const ScheduleStep& st) {
    for (const std::string& f : st.exchange_fields) {
      FieldState& fs = state(st.level, f);
      fs.valid = st.exchange_depth;
      fs.from = FieldState::From::kExchange;
      fs.step = i_;
    }
  }

  void check_swap(const ScheduleStep& st) {
    // Create both slots before taking references: state() may grow the
    // slot vector.
    const std::string& a = st.exchange_fields[0];
    const std::string& b = st.exchange_fields[1];
    state(st.level, a);
    state(st.level, b);
    std::swap(state(st.level, a), state(st.level, b));
  }

  // A write through one role of a field the same launch reads through a
  // stencil under another role: with any chunking, a brick reads a
  // neighbor's cell after the neighbor's chunk overwrote it. Kernels
  // that update in place by design (the colored GS half-sweep) declare
  // the field under ONE role, read and written.
  void check_aliasing(const ScheduleStep& st) {
    for (const StepAccess& w : st.accesses) {
      if (!w.write) continue;
      for (const StepAccess& r : st.accesses) {
        if (r.write || r.reach == 0 || r.level != w.level ||
            r.field != w.field || r.role == w.role)
          continue;
        std::ostringstream os;
        os << step_name(s_, i_) << " writes '" << w.field << "' (role '"
           << w.role << "') while reading it through a radius-" << r.reach
           << " stencil (role '" << r.role
           << "'): in-place stencil update — its output storage aliases "
              "its input, a read-after-write race across bricks";
        report(os.str());
        return;
      }
    }
  }

  void check_kernel(const ScheduleStep& st) {
    const LevelInfo* li = level_info(st.level);
    check_effect_conformance(st);
    check_aliasing(st);
    check_masked(st);
    check_chunks(st, li);
    if (li == nullptr) return;
    // Reads see the pre-launch ghost state: check every read before
    // applying any of the step's own writes (a sweep that reads and
    // writes the same field must not have its read validated against
    // the validity its own write establishes).
    for (const StepAccess& a : st.accesses) {
      const LevelInfo* ali = a.level == st.level ? li : level_info(a.level);
      if (ali == nullptr || a.box.empty() || a.write) continue;
      check_read(a, *ali);
    }
    for (const StepAccess& a : st.accesses) {
      const LevelInfo* ali = a.level == st.level ? li : level_info(a.level);
      if (ali == nullptr || a.box.empty() || !a.write) continue;
      check_write(a, *ali);
    }
  }

  void check_read(const StepAccess& a, const LevelInfo& li) {
    const SideNeed need = side_need(a.box, li.interior, a.reach);
    // Interior-only reads touch no ghost layer: nothing to prove.
    // Skipping the state lookup here keeps the common case — reach-0
    // interior reads — at a few subtractions.
    if (need.max() <= 0) return;
    const FieldState& fs = state(a.level, a.field);
    for (int d = 0; d < 3; ++d) {
      // A wrapped axis has no ghost layers: past the interior it reads
      // the owned cells themselves, which are always current.
      if (li.wrapped[d]) continue;
      for (int side = 0; side < 2; ++side) {
        const int n = side == 0 ? need.lo[d] : need.hi[d];
        if (n <= 0) continue;
        if (n > static_cast<int>(fs.valid)) {
          std::ostringstream os;
          os << step_name(s_, i_) << " reads '" << a.field << "' (level "
             << a.level << ") " << n << " ghost layer(s) deep but only "
             << fs.valid << " are valid; last producer: "
             << producer_name(fs)
             << " — a matching completed exchange must precede this read";
          report(os.str());
          return;
        }
      }
    }
  }

  void check_write(const StepAccess& a, const LevelInfo& li) {
    const SideNeed g = side_need(a.box, li.interior, /*reach=*/0);
    for (int d = 0; d < 3; ++d) {
      if (li.wrapped[d] && (g.lo[d] > 0 || g.hi[d] > 0)) {
        std::ostringstream os;
        os << step_name(s_, i_) << " writes '" << a.field
           << "' past the interior on wrapped axis " << d
           << ": write into wrapped ghost — those cells alias owned cells, "
              "so the launch would write them twice";
        report(os.str());
        return;
      }
    }
    index_t valid = li.ghost_depth;
    for (int d = 0; d < 3; ++d) {
      if (li.wrapped[d]) continue;  // reads there never consult `valid`
      valid = std::min(valid, static_cast<index_t>(std::max(0, g.lo[d])));
      valid = std::min(valid, static_cast<index_t>(std::max(0, g.hi[d])));
    }
    FieldState& fs = state(a.level, a.field);
    fs.valid = valid;
    fs.from = FieldState::From::kWrite;
    fs.step = i_;
  }

  void check_effect_conformance(const ScheduleStep& st) {
    if (st.summary.empty()) return;
    for (const StepAccess& a : st.accesses) {
      const char* role = a.role.c_str();
      if (a.write) {
        if (!st.summary.writes_role(role)) {
          std::ostringstream os;
          os << step_name(s_, i_) << " records a write of '" << a.field
             << "' (role '" << a.role << "') but EffectSummary '"
             << st.summary.kernel
             << "' declares no write effect for that role — undeclared "
                "write box";
          report(os.str());
        }
      } else {
        const int declared = st.summary.read_reach(role);
        if (declared < 0) {
          std::ostringstream os;
          os << step_name(s_, i_) << " records a read of '" << a.field
             << "' (role '" << a.role << "') but EffectSummary '"
             << st.summary.kernel << "' declares no read effect for that role";
          report(os.str());
        } else if (a.reach > declared) {
          std::ostringstream os;
          os << step_name(s_, i_) << " records a read reach of " << a.reach
             << " for role '" << a.role << "' but EffectSummary '"
             << st.summary.kernel << "' declares only " << declared;
          report(os.str());
        }
      }
    }
  }

  void check_masked(const ScheduleStep& st) {
    if (st.scheduled_bricks.empty() || st.covered_bricks.empty()) return;
    std::unordered_set<std::int32_t> covered(st.covered_bricks.begin(),
                                             st.covered_bricks.end());
    for (std::int32_t id : st.scheduled_bricks) {
      if (covered.count(id) != 0) {
        std::ostringstream os;
        os << step_name(s_, i_) << " schedules brick " << id
           << " which the level mask declares covered by refinement — a "
              "masked plan must never sweep covered bricks";
        report(os.str());
        return;
      }
    }
  }

  void check_chunks(const ScheduleStep& st, const LevelInfo* li) {
    const std::vector<Box>& ch = st.chunk_writes;
    if (ch.empty()) return;
    // Every chunk must land inside a declared write box of this step.
    if (li != nullptr) {
      for (std::size_t c = 0; c < ch.size(); ++c) {
        bool inside = false;
        for (const StepAccess& a : st.accesses) {
          if (a.write && a.level == st.level && a.box.covers(ch[c])) {
            inside = true;
            break;
          }
        }
        if (!inside) {
          std::ostringstream os;
          os << step_name(s_, i_) << " fused chunk " << c
             << " writes outside every declared write box of the stage — "
                "undeclared write box";
          report(os.str());
          break;
        }
      }
    }
    // Pairwise disjointness. Fast path: when the step declares a chunk
    // pitch (the brick dims), every chunk of a well-formed fused launch
    // stays inside one cell of that tiling — including the clipped
    // ghost-brick slabs a CA active region produces — so the set is
    // disjoint iff the containing cells are unique: O(n) through a
    // hash set. Any chunk straddling a tile cell drops the whole set
    // to the O(n^2) fallback.
    const Vec3 pitch = st.chunk_pitch;
    if (pitch.x > 0 && pitch.y > 0 && pitch.z > 0) {
      auto floor_div = [](index_t a, index_t p) {
        return a >= 0 ? a / p : -((-a + p - 1) / p);
      };
      // Bias keeps each packed 21-bit field non-negative for cells a
      // CA active region pushes below the interior origin.
      constexpr std::int64_t kBias = std::int64_t{1} << 20;
      auto tile_key = [&](const Box& b, Vec3& cell) -> std::int64_t {
        cell = Vec3{floor_div(b.lo.x, pitch.x), floor_div(b.lo.y, pitch.y),
                    floor_div(b.lo.z, pitch.z)};
        if (b.lo.x < cell.x * pitch.x || b.lo.y < cell.y * pitch.y ||
            b.lo.z < cell.z * pitch.z || b.hi.x > (cell.x + 1) * pitch.x ||
            b.hi.y > (cell.y + 1) * pitch.y ||
            b.hi.z > (cell.z + 1) * pitch.z) {
          return -1;  // straddles a tile cell: not a tiled set
        }
        return ((cell.z + kBias) << 42) | ((cell.y + kBias) << 21) |
               (cell.x + kBias);
      };
      auto report_repeat = [&](std::size_t c, const Vec3& cell) {
        std::ostringstream os;
        os << step_name(s_, i_) << " fused chunk " << c
           << " repeats brick tile (" << cell.x << "," << cell.y << ","
           << cell.z << "): chunk write sets are not pairwise disjoint";
        report(os.str());
      };
      // The recordings emit chunks in brick-iteration order
      // (for_each: z outer, x inner — exactly this key's collation),
      // so a well-formed set is strictly increasing and one
      // allocation-free scan proves uniqueness. Only sets that break
      // the order pay for a sort; only non-tiled sets fall through to
      // the O(n^2) overlap check.
      bool tiled = true;
      bool monotone = true;
      std::int64_t prev = -1;
      Vec3 cell{0, 0, 0};
      for (std::size_t c = 0; c < ch.size(); ++c) {
        const std::int64_t h = tile_key(ch[c], cell);
        if (h < 0) {
          tiled = false;
          break;
        }
        if (h == prev) {
          report_repeat(c, cell);
          return;
        }
        if (h < prev) {
          monotone = false;
          break;
        }
        prev = h;
      }
      if (tiled && monotone) return;
      if (tiled) {
        cells_.clear();
        cells_.reserve(ch.size());
        for (std::size_t c = 0; c < ch.size(); ++c) {
          cells_.push_back({tile_key(ch[c], cell),
                            static_cast<std::int64_t>(c)});
        }
        std::sort(cells_.begin(), cells_.end());
        for (std::size_t c = 1; c < cells_.size(); ++c) {
          if (cells_[c].first != cells_[c - 1].first) continue;
          const std::size_t ci = static_cast<std::size_t>(cells_[c].second);
          tile_key(ch[ci], cell);
          report_repeat(ci, cell);
          return;
        }
        return;
      }
    }
    if (ch.size() > 4096) {
      std::ostringstream os;
      os << step_name(s_, i_) << " has " << ch.size()
         << " irregular fused chunks — too many to prove pairwise disjoint";
      report(os.str());
      return;
    }
    for (std::size_t a = 0; a < ch.size(); ++a) {
      for (std::size_t b = a + 1; b < ch.size(); ++b) {
        if (!intersect(ch[a], ch[b]).empty()) {
          std::ostringstream os;
          os << step_name(s_, i_) << " fused chunks " << a << " and " << b
             << " overlap: chunk write sets are not pairwise disjoint";
          report(os.str());
          return;
        }
      }
    }
  }

  void check_reduction(const ScheduleStep& st) {
    if (st.component < 0 || st.component >= s_.num_components) {
      std::ostringstream os;
      os << step_name(s_, i_) << " reduces component " << st.component
         << " outside the batch width " << s_.num_components;
      report(os.str());
      return;
    }
    if (st.retirement_masked && retired_.count(st.component) != 0) {
      std::ostringstream os;
      os << step_name(s_, i_) << " reduces component " << st.component
         << " after its retirement — retirement must not resurrect a "
            "component's collectives";
      report(os.str());
      return;
    }
    auto it = group_last_.find(st.reduction_group);
    if (it != group_last_.end() && st.component < it->second.first) {
      std::ostringstream os;
      os << step_name(s_, i_) << " reduces component " << st.component
         << " after " << step_name(s_, it->second.second)
         << " reduced component " << it->second.first
         << " in the same group — retirement would reorder the collective "
            "sequence across ranks";
      report(os.str());
      return;
    }
    group_last_[st.reduction_group] = {st.component, i_};
  }

  void check_retire(const ScheduleStep& st) {
    if (!retired_.insert(st.component).second) {
      std::ostringstream os;
      os << step_name(s_, i_) << " retires component " << st.component
         << " twice";
      report(os.str());
    }
  }

  const Schedule& s_;
  std::size_t i_ = 0;
  std::map<int, const LevelInfo*> levels_;
  std::vector<LevelSlots> state_;
  std::vector<std::pair<std::int64_t, std::int64_t>> cells_;
  std::map<int, std::pair<int, std::size_t>> group_last_;  // group -> (component, step)
  std::unordered_set<int> retired_;
  std::vector<std::string> diags_;
};

}  // namespace

std::vector<std::string> ScheduleVerifier::check(const Schedule& sched) const {
  return Checker(sched).run();
}

void ScheduleVerifier::verify(const Schedule& sched) const {
  std::vector<std::string> diags = check(sched);
  if (diags.empty()) {
    note_schedule_verified();
    return;
  }
  std::ostringstream os;
  os << "schedule verification failed: " << diags.front();
  if (diags.size() > 1)
    os << " (+" << diags.size() - 1 << " further finding(s))";
  throw Error(os.str());
}

}  // namespace gmg::check

#include "check/shadow.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/error.hpp"

namespace gmg::check {

namespace {

std::atomic<int> g_mode{-1};  // -1 unresolved, 0 off, 1 on

int resolve_mode() {
  const char* env = std::getenv("GMG_CHECK");
  if (env == nullptr || env[0] == '\0') {
#ifdef GMG_CHECK_DEFAULT_ON
    return 1;
#else
    return 0;
#endif
  }
  return (env[0] == '0' && env[1] == '\0') ? 0 : 1;
}

struct OpenScope {
  std::uint64_t token = 0;
  const char* name = nullptr;
  std::thread::id tid;
  std::vector<Access> writes;
};

struct FieldState {
  const BrickGrid* grid = nullptr;       // set by on_receives_posted
  std::vector<BrickRange> inflight;      // receive ghost ranges
  bool in_flight = false;
  std::uint64_t epoch = 0;
};

struct Tracker {
  std::mutex mu;
  std::unordered_map<const void*, FieldState> fields;
  std::vector<OpenScope> open;
  std::vector<HazardRecord> hazards;
  std::uint64_t next_token = 1;
};

Tracker& tracker() {
  // Leaked deliberately: the at-exit hazard report below runs during
  // shutdown, after function-local statics would have been destroyed.
  static Tracker* t = new Tracker;
  return *t;
}

/// With the detector on, a process that recorded hazards but never
/// called require_clean() still reports them — to stderr, at exit, so
/// existing tests and examples run under GMG_CHECK=1 surface ordering
/// bugs without being rewritten.
void register_exit_report() {
  static std::once_flag once;
  std::call_once(once, [] {
    std::atexit([] {
      Tracker& t = tracker();
      std::lock_guard<std::mutex> lock(t.mu);
      if (t.hazards.empty()) return;
      std::fprintf(stderr, "[gmg-check] %zu access hazard(s) recorded:\n",
                   t.hazards.size());
      for (const HazardRecord& h : t.hazards) {
        std::fprintf(stderr, "  [%s @epoch %llu] %s\n",
                     hazard_kind_name(h.kind),
                     static_cast<unsigned long long>(h.epoch),
                     h.detail.c_str());
      }
    });
  });
}

std::string box_str(const Box& b) {
  std::ostringstream os;
  os << "[" << b.lo.x << ".." << b.hi.x << ")x[" << b.lo.y << ".." << b.hi.y
     << ")x[" << b.lo.z << ".." << b.hi.z << ")";
  return os.str();
}

/// Brick-coordinate cover of a cell box.
Box brick_cover(const Box& cells, Vec3 bd) {
  if (cells.empty()) return Box{};
  return Box{{floor_div(cells.lo.x, bd.x), floor_div(cells.lo.y, bd.y),
              floor_div(cells.lo.z, bd.z)},
             {floor_div(cells.hi.x - 1, bd.x) + 1,
              floor_div(cells.hi.y - 1, bd.y) + 1,
              floor_div(cells.hi.z - 1, bd.z) + 1}};
}

/// First in-flight ghost brick whose coordinate falls inside `cover`,
/// or -1. The in-flight set is the ghost shell (at most a few hundred
/// bricks), so a linear scan per launch is fine for a debug tool.
std::int32_t inflight_hit(const FieldState& f, const Box& cover) {
  if (f.grid == nullptr) return -1;
  for (const BrickRange& range : f.inflight) {
    for (std::int32_t b = 0; b < range.count; ++b) {
      const std::int32_t id = range.first + b;
      if (cover.contains(f.grid->coord_of(id))) return id;
    }
  }
  return -1;
}

// Callers hold tracker().mu.
void record_locked(Tracker& t, HazardKind kind, std::uint64_t epoch,
                   const std::string& detail) {
  t.hazards.push_back(HazardRecord{kind, detail, epoch});
}

}  // namespace

bool enabled() {
  int m = g_mode.load(std::memory_order_relaxed);
  if (m < 0) {
    m = resolve_mode();
    g_mode.store(m, std::memory_order_relaxed);
    if (m != 0) register_exit_report();
  }
  return m != 0;
}

void set_enabled(bool on) {
  g_mode.store(on ? 1 : 0, std::memory_order_relaxed);
  if (on) register_exit_report();
}

const char* hazard_kind_name(HazardKind kind) {
  switch (kind) {
    case HazardKind::kReadInflightGhost:
      return "read-inflight-ghost";
    case HazardKind::kWriteInflightGhost:
      return "write-inflight-ghost";
    case HazardKind::kWriteWriteOverlap:
      return "write-write-overlap";
    case HazardKind::kOverlappingExchange:
      return "overlapping-exchange";
    case HazardKind::kCorruptPlan:
      return "corrupt-plan";
  }
  return "unknown";
}

KernelScope::KernelScope(const char* name, std::vector<Access> writes,
                         std::vector<Access> reads) {
  if (!enabled()) return;
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  token_ = t.next_token++;
  const std::thread::id tid = std::this_thread::get_id();

  for (const Access& w : writes) {
    if (w.key == nullptr || w.box.empty()) continue;
    const Box cover = brick_cover(w.box, w.brick_dims);
    auto it = t.fields.find(w.key);
    if (it != t.fields.end() && it->second.in_flight) {
      const std::int32_t hit = inflight_hit(it->second, cover);
      if (hit >= 0) {
        record_locked(t, HazardKind::kWriteInflightGhost, it->second.epoch,
                      std::string(name) + ": write box " + box_str(w.box) +
                          " covers ghost brick " + std::to_string(hit) +
                          " of a field whose exchange has not finished");
      }
    }
    // Concurrent write-write at cell-box granularity. Same-thread
    // scopes are RAII-nested (an enclosing kernel delegating to an
    // inner engine over the same field) and sequence their stores, so
    // only cross-thread overlap is a hazard.
    for (const OpenScope& os : t.open) {
      if (os.tid == tid) continue;
      for (const Access& w2 : os.writes) {
        if (w2.key != w.key) continue;
        const Box common = intersect(w2.box, w.box);
        if (!common.empty()) {
          const std::uint64_t epoch =
              it != t.fields.end() ? it->second.epoch : 0;
          record_locked(t, HazardKind::kWriteWriteOverlap, epoch,
                        std::string(name) + " and " + os.name +
                            ": concurrent writes to one field overlap on " +
                            box_str(common));
        }
      }
    }
  }

  for (const Access& r : reads) {
    if (r.key == nullptr || r.box.empty()) continue;
    auto it = t.fields.find(r.key);
    if (it == t.fields.end() || !it->second.in_flight) continue;
    const std::int32_t hit = inflight_hit(it->second, brick_cover(r.box, r.brick_dims));
    if (hit >= 0) {
      record_locked(t, HazardKind::kReadInflightGhost, it->second.epoch,
                    std::string(name) + ": read box " + box_str(r.box) +
                        " (tap-grown) covers ghost brick " +
                        std::to_string(hit) +
                        " of a field whose exchange has not finished");
    }
  }

  OpenScope scope;
  scope.token = token_;
  scope.name = name;
  scope.tid = tid;
  scope.writes = std::move(writes);
  t.open.push_back(std::move(scope));
}

KernelScope::~KernelScope() {
  if (token_ == 0) return;
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  for (std::size_t n = 0; n < t.open.size(); ++n) {
    if (t.open[n].token != token_) continue;
    for (const Access& w : t.open[n].writes) {
      if (w.key != nullptr) ++t.fields[w.key].epoch;
    }
    t.open.erase(t.open.begin() + static_cast<std::ptrdiff_t>(n));
    break;
  }
}

ScopeAccesses derive_accesses(const EffectSummary& s, const Box& box,
                              std::span<const FieldBinding> binds) {
  ScopeAccesses out;
  for_each_bound_effect(
      s, binds.data(), binds.size(),
      [&](const FieldBinding& b, bool write, int reach) {
        const Box& own = b.box ? *b.box : box;
        if (write) {
          out.writes.push_back(b.make_access(b.field, own));
        } else {
          out.reads.push_back(b.make_access(b.field, grow(own, reach)));
        }
      });
  return out;
}

void on_receives_posted(const void* key, const BrickGrid* grid,
                        const std::vector<BrickRange>& ghost_ranges) {
  if (!enabled()) return;
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  FieldState& f = t.fields[key];
  if (f.in_flight) {
    record_locked(t, HazardKind::kOverlappingExchange, f.epoch,
                  "exchange posted while a previous exchange of the same "
                  "field is still in flight");
  }
  f.grid = grid;
  f.inflight = ghost_ranges;
  f.in_flight = true;
}

void on_receives_done(const void* key) {
  if (!enabled()) return;
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  auto it = t.fields.find(key);
  if (it == t.fields.end()) return;
  it->second.in_flight = false;
  it->second.inflight.clear();
  ++it->second.epoch;
}

void validate_plan(const char* name, const BrickPlanItem* items,
                   std::size_t count, std::int64_t num_full, Vec3 brick_dims) {
  if (!enabled()) return;
  constexpr std::size_t kMaxReports = 8;  // one bad plan, not 10k lines
  std::vector<std::string> problems;
  const auto note = [&](std::size_t n, const std::string& what) {
    if (problems.size() < kMaxReports) {
      problems.push_back("item " + std::to_string(n) + ": " + what);
    }
  };
  if (num_full < 0 || static_cast<std::size_t>(num_full) > count) {
    note(0, "full-brick prefix length " + std::to_string(num_full) +
                " exceeds item count " + std::to_string(count));
  }
  std::unordered_set<std::int32_t> ids;
  ids.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    const BrickPlanItem& it = items[n];
    if (it.id < 0) note(n, "negative brick id");
    if (!ids.insert(it.id).second) {
      note(n, "duplicate brick id " + std::to_string(it.id) +
                  " (two chunks would write the same brick)");
    }
    const bool full = it.ilo == 0 && it.jlo == 0 && it.klo == 0 &&
                      it.ihi == brick_dims.x && it.jhi == brick_dims.y &&
                      it.khi == brick_dims.z;
    const bool in_prefix =
        num_full >= 0 && n < static_cast<std::size_t>(num_full);
    if (in_prefix && !full) {
      note(n, "clipped brick inside the full-brick prefix (the kernel "
              "would write the whole brick)");
    }
    if (it.ilo < 0 || it.jlo < 0 || it.klo < 0 || it.ihi > brick_dims.x ||
        it.jhi > brick_dims.y || it.khi > brick_dims.z ||
        it.ilo >= it.ihi || it.jlo >= it.jhi || it.klo >= it.khi) {
      note(n, "clip bounds outside the brick (writes would escape the "
              "declared region)");
    }
  }
  if (problems.empty()) return;
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  for (const std::string& p : problems) {
    record_locked(t, HazardKind::kCorruptPlan, 0,
                  std::string(name) + ": " + p);
  }
}

std::size_t hazard_count() {
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.hazards.size();
}

std::vector<HazardRecord> hazards() {
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  return t.hazards;
}

void clear_hazards() {
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  t.hazards.clear();
}

void reset() {
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  t.fields.clear();
  t.open.clear();
  t.hazards.clear();
}

void require_clean(const std::string& what) {
  Tracker& t = tracker();
  std::lock_guard<std::mutex> lock(t.mu);
  if (t.hazards.empty()) return;
  std::ostringstream os;
  os << what << ": " << t.hazards.size() << " access hazard(s) recorded:";
  for (const HazardRecord& h : t.hazards) {
    os << "\n  [" << hazard_kind_name(h.kind) << " @epoch " << h.epoch << "] "
       << h.detail;
  }
  throw Error(os.str());
}

}  // namespace gmg::check

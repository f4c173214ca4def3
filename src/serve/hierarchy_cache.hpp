// Hierarchy cache: fully-set-up multigrid hierarchies keyed by
// everything that determines their setup — (domain box, rank grid,
// brick dims, operator id, levels) — so repeated solves skip the
// dominant cost of a request: level construction, exchange-engine
// setup, brick iteration-plan creation, and (for variable-coefficient
// operators) coefficient restriction.
//
// Entries are checked out *exclusively*: a GmgSolver holds mutable
// per-solve state, so two requests may never share one entry. An entry
// owns its solo and batched fields from construction until eviction
// (field lifetime, DESIGN.md §12): a hit reuses them as they are, and
// set_rhs resets everything a solve reads, so a reused entry solves
// bitwise like a fresh one. Beyond `capacity` idle entries the
// least-recently-used is evicted and freed whole.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "batch/batched_solver.hpp"
#include "gmg/solver.hpp"
#include "mesh/decomposition.hpp"

namespace gmg::serve {

/// One cached hierarchy: the per-rank solver chain for a decomposed
/// domain, plus the bookkeeping the service needs to reuse it.
struct CachedHierarchy {
  std::string key;
  CartDecomp decomp;
  GmgOptions options;
  /// One solver per rank of `decomp`, index == rank.
  std::vector<std::unique_ptr<GmgSolver>> solvers;
  /// Batched (multi-RHS) twins keyed by batch size K, one per rank,
  /// built lazily on the first K-way coalesced batch and reused for
  /// the hierarchy's lifetime — a batched solver's construction
  /// (stretched exchanges, K-wide fields) is per-shape setup, exactly
  /// what this cache exists to amortize. Their fields live as long as
  /// the entry: a memory-for-latency trade scoped to operators that
  /// opted into batching (GmgOptions::max_batch > 1).
  /// Declared after `solvers`: each BatchedSolver references its base
  /// GmgSolver and must be destroyed first.
  std::map<int, std::vector<std::unique_ptr<batch::BatchedSolver>>> batched;
  /// Variable-coefficient operators evaluate their coefficient once
  /// per hierarchy (it is keyed state, like the stencil).
  bool coefficient_set = false;
  std::uint64_t last_used_ns = 0;

  CachedHierarchy(std::string k, const CartDecomp& d, const GmgOptions& o)
      : key(std::move(k)), decomp(d), options(o) {}
};

class HierarchyCache {
 public:
  /// Keep at most `capacity` idle hierarchies.
  explicit HierarchyCache(std::size_t capacity) : capacity_(capacity) {}
  HierarchyCache(const HierarchyCache&) = delete;
  HierarchyCache& operator=(const HierarchyCache&) = delete;

  /// Check out the idle entry for `key`, fields and all (a *hit*), or
  /// nullptr when none is idle under that key (a *miss* — the caller
  /// builds the hierarchy and later release()s it).
  std::unique_ptr<CachedHierarchy> acquire(const std::string& key);

  /// Return a checked-out (or freshly built) entry: it becomes
  /// acquirable again. May evict the least-recently-used idle entry
  /// over capacity.
  void release(std::unique_ptr<CachedHierarchy> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t idle_entries = 0;

    double hit_ratio() const {
      const std::uint64_t total = hits + misses;
      return total ? static_cast<double>(hits) / static_cast<double>(total)
                   : 0.0;
    }
  };
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<CachedHierarchy>> idle_;
  Stats stats_;
};

}  // namespace gmg::serve

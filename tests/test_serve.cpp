// SolveService end-to-end: concurrent requests bitwise-match solo
// solves, hierarchy cache hit/eviction behavior and field reuse, solver
// re-entrancy, admission-queue backpressure, priorities, cancellation and
// deadlines. Runs under TSan in ci/tier1.sh — the service is the
// repo's most concurrent component (executor pool x simmpi worlds x
// the shared exec engine).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "batch/batched_solver.hpp"
#include "gmg/solver.hpp"
#include "mesh/array3d.hpp"
#include "serve/service.hpp"

namespace gmg::serve {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

GmgOptions small_options(index_t bdim = 4, int levels = 3) {
  GmgOptions o;
  o.levels = levels;
  o.smooths = 6;
  o.bottom_smooths = 30;
  o.tolerance = 1e-8;
  o.max_vcycles = 40;
  o.brick = BrickShape::cube(bdim);
  return o;
}

/// Reference: the same request solved solo on a fresh solver.
struct Reference {
  SolveResult result;
  std::vector<real_t> solution;
};

Reference solo_solve(const GmgOptions& opts, const DomainSpec& domain,
                     const std::function<real_t(real_t, real_t, real_t)>& rhs,
                     real_t tolerance, int max_vcycles) {
  Reference ref;
  const CartDecomp decomp(domain.global_extent, domain.rank_grid);
  const int n = domain.ranks();
  std::vector<std::unique_ptr<GmgSolver>> solvers;
  std::vector<SolveResult> per_rank(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    solvers.push_back(std::make_unique<GmgSolver>(opts, decomp, r));
  comm::World world(n);
  world.run([&](comm::Communicator& c) {
    GmgSolver& s = *solvers[static_cast<std::size_t>(c.rank())];
    s.set_solve_params(tolerance, max_vcycles);
    s.set_rhs(rhs);
    per_rank[static_cast<std::size_t>(c.rank())] = s.solve(c);
  });
  ref.result = per_rank.front();
  for (int r = 0; r < n; ++r) {
    const BrickedArray& x = solvers[static_cast<std::size_t>(r)]->solution();
    for_each(Box::from_extent(x.extent()),
             [&](index_t i, index_t j, index_t k) {
               ref.solution.push_back(x(i, j, k));
             });
  }
  return ref;
}

/// Blocks callers until release()d; used to pin a request inside its
/// solve so tests can control executor timing deterministically.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};

  void wait() {
    entered.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void await_entered() {
    while (!entered.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
};

SolveRequest basic_request() {
  SolveRequest req;
  req.domain.global_extent = {32, 32, 32};
  req.rhs = sine_rhs;
  req.tolerance = 1e-8;
  req.max_vcycles = 40;
  return req;
}

TEST(SolveService, SingleRequestMatchesSoloSolverBitwise) {
  ServeConfig cfg;
  cfg.executors = 1;
  SolveService service(cfg);
  service.register_operator("poisson", small_options());

  const SolveRequest req = basic_request();
  const Reference ref = solo_solve(small_options(), req.domain, sine_rhs,
                                   req.tolerance, req.max_vcycles);

  const RequestResult& res = service.submit(req).get();
  ASSERT_EQ(res.status, RequestStatus::kDone) << res.error;
  EXPECT_TRUE(res.solve.converged);
  EXPECT_FALSE(res.cache_hit);
  EXPECT_EQ(res.solve.vcycles, ref.result.vcycles);
  EXPECT_EQ(res.solve.final_residual, ref.result.final_residual);
  ASSERT_EQ(res.solution.size(), ref.solution.size());
  EXPECT_EQ(res.solution, ref.solution);
}

TEST(SolveService, CachedHierarchySolvesBitwiseIdenticalToCold) {
  ServeConfig cfg;
  cfg.executors = 1;
  SolveService service(cfg);
  service.register_operator("poisson", small_options());

  const SolveRequest req = basic_request();
  const RequestResult first = service.submit(req).get();  // cold
  ASSERT_EQ(first.status, RequestStatus::kDone);
  ASSERT_FALSE(first.cache_hit);

  // Solve #2..#K reuse the hierarchy and its fields; the acceptance
  // bar is bitwise identity with solve #1.
  for (int k = 0; k < 3; ++k) {
    const RequestResult& res = service.submit(req).get();
    ASSERT_EQ(res.status, RequestStatus::kDone);
    EXPECT_TRUE(res.cache_hit);
    EXPECT_EQ(res.setup_seconds, 0.0);
    EXPECT_EQ(res.solve.vcycles, first.solve.vcycles);
    EXPECT_EQ(res.solve.final_residual, first.solve.final_residual);
    EXPECT_EQ(res.solve.history, first.solve.history);
    EXPECT_EQ(res.solution, first.solution);
  }

  const ServiceStats rep = service.stats();
  EXPECT_EQ(rep.cache.hits, 3u);
  EXPECT_EQ(rep.cache.misses, 1u);
}

TEST(HierarchyCache, AcquireHandsBackTheReleasedEntryWithItsFields) {
  // An entry owns its fields until evicted: a hit reuses the storage
  // the last request solved in, so steady state allocates none.
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  HierarchyCache cache(2);
  EXPECT_EQ(cache.acquire("k"), nullptr);
  auto entry = std::make_unique<CachedHierarchy>("k", decomp, small_options());
  entry->solvers.push_back(
      std::make_unique<GmgSolver>(small_options(), decomp, 0));
  const real_t* storage = entry->solvers[0]->solution().data();
  cache.release(std::move(entry));

  auto again = cache.acquire("k");
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->solvers[0]->solution().data(), storage);
  EXPECT_EQ(cache.acquire("k"), nullptr);  // checked out exclusively
  cache.release(std::move(again));
  const HierarchyCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.idle_entries, 1u);
}

TEST(SolveService, EightConcurrentClientsMatchSequentialBitwise) {
  const SolveRequest req = basic_request();
  const Reference ref = solo_solve(small_options(), req.domain, sine_rhs,
                                   req.tolerance, req.max_vcycles);

  ServeConfig cfg;
  cfg.executors = 2;
  cfg.queue_capacity = 16;
  SolveService service(cfg);
  service.register_operator("poisson", small_options());

  constexpr int kClients = 8;
  std::vector<SolveFuture> futures(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
      clients.emplace_back(
          [&, i] { futures[static_cast<std::size_t>(i)] = service.submit(req); });
    for (auto& t : clients) t.join();
  }
  for (int i = 0; i < kClients; ++i) {
    const RequestResult& res = futures[static_cast<std::size_t>(i)].get();
    ASSERT_EQ(res.status, RequestStatus::kDone) << "client " << i;
    EXPECT_EQ(res.solve.vcycles, ref.result.vcycles) << "client " << i;
    EXPECT_EQ(res.solve.final_residual, ref.result.final_residual)
        << "client " << i;
    EXPECT_EQ(res.solve.history, ref.result.history) << "client " << i;
    ASSERT_EQ(res.solution, ref.solution) << "client " << i;
  }
  const ServiceStats rep = service.stats();
  EXPECT_EQ(rep.completed, static_cast<std::uint64_t>(kClients));
}

TEST(SolveService, MultiRankDomainMatchesSoloWorld) {
  SolveRequest req = basic_request();
  req.domain.global_extent = {32, 16, 16};
  req.domain.rank_grid = {2, 1, 1};
  req.tolerance = 1e-6;
  const GmgOptions opts = small_options(4, 2);

  const Reference ref = solo_solve(opts, req.domain, sine_rhs, req.tolerance,
                                   req.max_vcycles);

  SolveService service;
  service.register_operator("poisson", opts);
  const RequestResult& res = service.submit(req).get();
  ASSERT_EQ(res.status, RequestStatus::kDone) << res.error;
  EXPECT_EQ(res.solve.converged, ref.result.converged);
  EXPECT_EQ(res.solve.vcycles, ref.result.vcycles);
  EXPECT_EQ(res.solve.history, ref.result.history);
  EXPECT_EQ(res.solution, ref.solution);
}

TEST(SolveService, EvictsLeastRecentlyUsedHierarchy) {
  ServeConfig cfg;
  cfg.executors = 1;
  cfg.cache_capacity = 1;
  SolveService service(cfg);
  service.register_operator("poisson", small_options());

  SolveRequest a = basic_request();
  SolveRequest b = basic_request();
  b.domain.global_extent = {16, 16, 16};

  ASSERT_EQ(service.submit(a).get().status, RequestStatus::kDone);  // miss
  ASSERT_EQ(service.submit(b).get().status, RequestStatus::kDone);  // miss, evicts a
  const RequestResult& again = service.submit(a).get();             // miss again
  ASSERT_EQ(again.status, RequestStatus::kDone);
  EXPECT_FALSE(again.cache_hit);

  const ServiceStats rep = service.stats();
  EXPECT_EQ(rep.cache.misses, 3u);
  EXPECT_GE(rep.cache.evictions, 1u);
  EXPECT_LE(rep.cache.idle_entries, 1u);
}

TEST(SolveService, QueueFullBackpressure) {
  ServeConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  SolveService service(cfg);
  service.register_operator("poisson", small_options(4, 2));

  Gate gate;
  SolveRequest pinned = basic_request();
  pinned.domain.global_extent = {16, 16, 16};
  pinned.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  SolveFuture running = service.submit(pinned);
  gate.await_entered();  // executor is busy; queue is empty

  SolveRequest quick = basic_request();
  quick.domain.global_extent = {16, 16, 16};
  SolveFuture queued = service.try_submit(quick);   // fills the queue
  SolveFuture rejected = service.try_submit(quick); // bounces
  ASSERT_TRUE(rejected.ready());
  EXPECT_EQ(rejected.get().status, RequestStatus::kRejected);

  // Blocking submit() parks until the executor frees a slot.
  SolveFuture blocked;
  std::thread submitter([&] { blocked = service.submit(quick); });
  gate.release();
  submitter.join();

  EXPECT_EQ(running.get().status, RequestStatus::kDone);
  EXPECT_EQ(queued.get().status, RequestStatus::kDone);
  EXPECT_EQ(blocked.get().status, RequestStatus::kDone);
  const ServiceStats rep = service.stats();
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.completed, 3u);
  EXPECT_EQ(rep.queue_high_water, 1u);
}

TEST(SolveService, HigherPriorityRunsFirstWithinTheQueue) {
  ServeConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 8;
  SolveService service(cfg);
  service.register_operator("poisson", small_options(4, 2));

  std::mutex order_mu;
  std::vector<std::string> order;
  auto tagged_rhs = [&](std::string tag) {
    auto first = std::make_shared<std::atomic<bool>>(false);
    return [&order_mu, &order, tag, first](real_t x, real_t y, real_t z) {
      if (!first->exchange(true)) {
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(tag);
      }
      return sine_rhs(x, y, z);
    };
  };

  Gate gate;
  SolveRequest pinned = basic_request();
  pinned.domain.global_extent = {16, 16, 16};
  pinned.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  SolveFuture running = service.submit(pinned);
  gate.await_entered();

  SolveRequest low = basic_request();
  low.domain.global_extent = {16, 16, 16};
  low.priority = 0;
  low.rhs = tagged_rhs("low");
  SolveRequest high = low;
  high.priority = 5;
  high.rhs = tagged_rhs("high");

  SolveFuture f_low = service.submit(low);    // queued first...
  SolveFuture f_high = service.submit(high);  // ...but outranked
  gate.release();

  EXPECT_EQ(running.get().status, RequestStatus::kDone);
  EXPECT_EQ(f_low.get().status, RequestStatus::kDone);
  EXPECT_EQ(f_high.get().status, RequestStatus::kDone);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "high");
  EXPECT_EQ(order[1], "low");
}

TEST(SolveService, CancelWhileQueuedAndWhileRunning) {
  ServeConfig cfg;
  cfg.executors = 1;
  SolveService service(cfg);
  service.register_operator("poisson", small_options(4, 2));

  Gate gate;
  SolveRequest pinned = basic_request();
  pinned.domain.global_extent = {16, 16, 16};
  pinned.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  SolveFuture running = service.submit(pinned);
  gate.await_entered();

  // Cancel a request that is still queued: it never starts.
  SolveRequest quick = basic_request();
  quick.domain.global_extent = {16, 16, 16};
  SolveFuture queued = service.submit(quick);
  EXPECT_TRUE(queued.cancel());

  // Cancel the in-flight request: its solve stops at the first cycle
  // boundary with the cancelled flag set.
  EXPECT_TRUE(running.cancel());
  gate.release();

  EXPECT_EQ(queued.get().status, RequestStatus::kCancelled);
  const RequestResult& r = running.get();
  EXPECT_EQ(r.status, RequestStatus::kCancelled);
  EXPECT_TRUE(r.solve.cancelled);
  EXPECT_EQ(r.solve.vcycles, 0);
  EXPECT_FALSE(running.cancel());  // already complete

  const ServiceStats rep = service.stats();
  EXPECT_EQ(rep.cancelled, 2u);
}

TEST(SolveService, DeadlineExpiresBeforeAndDuringExecution) {
  ServeConfig cfg;
  cfg.executors = 1;
  SolveService service(cfg);
  service.register_operator("poisson", small_options(4, 2));

  Gate gate;
  SolveRequest pinned = basic_request();
  pinned.domain.global_extent = {16, 16, 16};
  pinned.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  // The pinned request's deadline passes while it sits gated inside
  // set_rhs (long after the admission pre-check): the solve then
  // aborts at its first cycle boundary.
  pinned.deadline_seconds = 0.05;
  SolveFuture running = service.submit(pinned);
  gate.await_entered();

  // A queued request whose deadline passes while it waits never runs.
  SolveRequest stale = basic_request();
  stale.domain.global_extent = {16, 16, 16};
  stale.deadline_seconds = 1e-6;
  SolveFuture queued = service.submit(stale);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.release();
  EXPECT_EQ(queued.get().status, RequestStatus::kExpired);
  const RequestResult& r = running.get();
  EXPECT_EQ(r.status, RequestStatus::kExpired);
  EXPECT_TRUE(r.solve.cancelled);

  const ServiceStats rep = service.stats();
  EXPECT_EQ(rep.expired, 2u);
}

TEST(SolveService, UnknownOperatorFailsAndShutdownRejects) {
  SolveService service;
  service.register_operator("poisson", small_options(4, 2));

  SolveRequest req = basic_request();
  req.domain.global_extent = {16, 16, 16};
  req.operator_id = "helmholtz";
  const RequestResult& failed = service.submit(req).get();
  EXPECT_EQ(failed.status, RequestStatus::kFailed);
  EXPECT_NE(failed.error.find("helmholtz"), std::string::npos);

  service.shutdown();
  req.operator_id = "poisson";
  const RequestResult& rejected = service.submit(req).get();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
}

TEST(SolveService, VariableCoefficientOperatorCachesCoefficient) {
  OperatorSpec spec;
  spec.options = small_options(4, 2);
  spec.coefficient = [](real_t x, real_t y, real_t z) {
    return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) *
                     std::sin(2 * M_PI * z);
  };

  ServeConfig cfg;
  cfg.executors = 1;
  SolveService service(cfg);
  service.register_operator("varcoef", spec);

  SolveRequest req = basic_request();
  req.domain.global_extent = {16, 16, 16};
  req.operator_id = "varcoef";
  req.tolerance = 1e-7;

  const RequestResult first = service.submit(req).get();
  ASSERT_EQ(first.status, RequestStatus::kDone) << first.error;
  EXPECT_TRUE(first.solve.converged);
  // The cached hierarchy keeps the restricted coefficient; the hit
  // must reproduce the cold solve bitwise without re-evaluating it.
  const RequestResult& second = service.submit(req).get();
  ASSERT_EQ(second.status, RequestStatus::kDone);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.solve.history, first.solve.history);
  EXPECT_EQ(second.solution, first.solution);
}

// Satellite: the solver itself must be re-entrant — set_rhs + solve on
// a used hierarchy is bitwise identical to solve #1 (no hidden
// one-shot state).
TEST(ReentrantSolver, RepeatedSolvesAreBitwiseIdentical) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(), decomp, 0);
    solver.set_rhs(sine_rhs);
    const SolveResult first = solver.solve(c);
    Array3D x1({32, 32, 32}, 0);
    solver.solution().copy_to(x1);

    for (int k = 0; k < 2; ++k) {
      solver.set_rhs(sine_rhs);
      const SolveResult again = solver.solve(c);
      EXPECT_EQ(again.vcycles, first.vcycles);
      EXPECT_EQ(again.final_residual, first.final_residual);
      EXPECT_EQ(again.history, first.history);
      const BrickedArray& x = solver.solution();
      for_each(Box::from_extent({32, 32, 32}),
               [&](index_t i, index_t j, index_t k2) {
                 ASSERT_EQ(x(i, j, k2), x1(i, j, k2));
               });
    }
  });
}

// A cache entry keeps its fields from one request to the next, so
// set_rhs alone must reset everything a solve reads: a solver that has
// solved RHS A and is given set_rhs(B) must solve B bit for bit like a
// fresh solver. B differs from A, so any state A leaves behind shows.
real_t second_rhs(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) * (0.5 + z);
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

/// Every rank's interior of `x`, concatenated in rank order.
template <class Solvers, class Field>
std::vector<real_t> gather(const Solvers& per_rank, Field field) {
  std::vector<real_t> out;
  for (const auto& s : per_rank) {
    const BrickedArray& x = field(*s);
    for_each(Box::from_extent(x.extent()),
             [&](index_t i, index_t j, index_t k) {
               out.push_back(x(i, j, k));
             });
  }
  return out;
}

struct ReentrantCase {
  Smoother smoother;
  BottomSolverType bottom;
  bool ca;
  bool varcoef;
  Vec3 ranks;
};

/// Solve `rhs` on every rank's solver of one decomposition; rank 0's
/// result (the loop runs collectively, so every rank's is the same).
SolveResult solve_all(std::vector<std::unique_ptr<GmgSolver>>& solvers,
                      const std::function<real_t(real_t, real_t, real_t)>& rhs,
                      bool set_coefficient) {
  std::vector<SolveResult> res(solvers.size());
  comm::World world(static_cast<int>(solvers.size()));
  world.run([&](comm::Communicator& c) {
    GmgSolver& s = *solvers[static_cast<std::size_t>(c.rank())];
    if (set_coefficient) s.set_coefficient(c, wavy_coef);
    s.set_rhs(rhs);
    res[static_cast<std::size_t>(c.rank())] = s.solve(c);
  });
  return res.front();
}

TEST(ReentrantSolver, SecondRhsMatchesFreshSolver) {
  std::vector<ReentrantCase> cases;
  for (const Smoother sm :
       {Smoother::kJacobi, Smoother::kChebyshev, Smoother::kRedBlackGS})
    for (const BottomSolverType bottom :
         {BottomSolverType::kSmooth, BottomSolverType::kConjugateGradient})
      for (const bool ca : {true, false})
        for (const Vec3 ranks : {Vec3{1, 1, 1}, Vec3{2, 2, 1}})
          cases.push_back({sm, bottom, ca, false, ranks});
  for (const Vec3 ranks : {Vec3{1, 1, 1}, Vec3{2, 2, 1}})
    cases.push_back({Smoother::kJacobi, BottomSolverType::kSmooth, true, true,
                     ranks});

  for (const ReentrantCase& rc : cases) {
    SCOPED_TRACE(testing::Message()
                 << "smoother " << static_cast<int>(rc.smoother) << " bottom "
                 << static_cast<int>(rc.bottom) << " ca " << rc.ca
                 << " varcoef " << rc.varcoef << " ranks " << rc.ranks.x
                 << "x" << rc.ranks.y << "x" << rc.ranks.z);
    GmgOptions o = small_options(4, 3);
    o.smoother = rc.smoother;
    o.bottom = rc.bottom;
    o.communication_avoiding = rc.ca;
    o.smooths = 4;
    o.bottom_smooths = 16;
    o.tolerance = 1e-9;
    o.max_vcycles = 6;
    const CartDecomp decomp({16, 16, 16}, rc.ranks);
    const auto build = [&] {
      std::vector<std::unique_ptr<GmgSolver>> v;
      for (int r = 0; r < static_cast<int>(rc.ranks.volume()); ++r)
        v.push_back(std::make_unique<GmgSolver>(o, decomp, r));
      return v;
    };
    auto fresh = build();
    const SolveResult ref = solve_all(fresh, second_rhs, rc.varcoef);
    auto reused = build();
    solve_all(reused, sine_rhs, rc.varcoef);
    const SolveResult got = solve_all(reused, second_rhs, false);
    EXPECT_EQ(got.vcycles, ref.vcycles);
    EXPECT_EQ(got.history, ref.history);
    const auto solution = [](GmgSolver& s) -> const BrickedArray& {
      return s.solution();
    };
    EXPECT_EQ(gather(reused, solution), gather(fresh, solution));
  }
}

TEST(ReentrantSolver, BatchedRerunWithSwappedLanesMatchesFreshBatch) {
  for (const Vec3 ranks : {Vec3{1, 1, 1}, Vec3{2, 2, 1}}) {
    SCOPED_TRACE(testing::Message() << "ranks " << ranks.x << "x" << ranks.y);
    GmgOptions o = small_options(4, 3);
    o.smooths = 4;
    o.max_vcycles = 6;
    const CartDecomp decomp({16, 16, 16}, ranks);
    const int n = static_cast<int>(ranks.volume());
    std::vector<std::unique_ptr<GmgSolver>> bases;
    for (int r = 0; r < n; ++r)
      bases.push_back(std::make_unique<GmgSolver>(o, decomp, r));
    std::vector<std::vector<SolveResult>> ref(static_cast<std::size_t>(n)),
        got(static_cast<std::size_t>(n));
    std::vector<std::vector<std::vector<real_t>>> ref_x(
        static_cast<std::size_t>(n)),
        got_x(static_cast<std::size_t>(n));
    const std::vector<SolveSpec> specs(2, SolveSpec{o.tolerance,
                                                    o.max_vcycles, nullptr});
    comm::World world(n);
    world.run([&](comm::Communicator& c) {
      const std::size_t r = static_cast<std::size_t>(c.rank());
      batch::BatchedSolver fresh(*bases[r], 2);
      fresh.set_rhs({second_rhs, sine_rhs});
      ref[r] = fresh.solve(c, specs);
      ref_x[r] = {fresh.solution(0), fresh.solution(1)};

      batch::BatchedSolver reused(*bases[r], 2);
      reused.set_rhs({sine_rhs, second_rhs});
      reused.solve(c, specs);
      reused.set_rhs({second_rhs, sine_rhs});
      got[r] = reused.solve(c, specs);
      got_x[r] = {reused.solution(0), reused.solution(1)};
    });
    for (std::size_t r = 0; r < static_cast<std::size_t>(n); ++r) {
      for (std::size_t lane = 0; lane < 2; ++lane) {
        EXPECT_EQ(got[r][lane].history, ref[r][lane].history);
        EXPECT_EQ(got_x[r][lane], ref_x[r][lane]);
      }
    }
  }
}

TEST(ReentrantSolver, CompositeSecondRhsMatchesFreshHierarchy) {
  for (const Vec3 ranks : {Vec3{1, 1, 1}, Vec3{2, 2, 1}}) {
    SCOPED_TRACE(testing::Message() << "ranks " << ranks.x << "x" << ranks.y);
    amr::AmrOptions o;
    o.gmg = small_options(4, 3);
    o.gmg.identity_coef = 1.0;
    o.gmg.laplacian_coef = -1e-3;
    o.patch = Box{{4, 4, 4}, {12, 12, 12}};
    o.max_cycles = 8;
    const CartDecomp decomp({16, 16, 16}, ranks);
    const int n = static_cast<int>(ranks.volume());
    const auto build = [&] {
      std::vector<std::unique_ptr<amr::AmrHierarchy>> v;
      for (int r = 0; r < n; ++r)
        v.push_back(std::make_unique<amr::AmrHierarchy>(o, decomp, r));
      return v;
    };
    const auto solve = [&](std::vector<std::unique_ptr<amr::AmrHierarchy>>& hs,
                           const std::function<real_t(real_t, real_t, real_t)>&
                               rhs) {
      std::vector<amr::CompositeResult> res(static_cast<std::size_t>(n));
      comm::World world(n);
      world.run([&](comm::Communicator& c) {
        amr::AmrHierarchy& h = *hs[static_cast<std::size_t>(c.rank())];
        h.set_rhs(rhs);
        res[static_cast<std::size_t>(c.rank())] =
            amr::CompositeSolver(h).solve(c);
      });
      return res.front();
    };
    auto fresh = build();
    const amr::CompositeResult ref = solve(fresh, second_rhs);
    auto reused = build();
    solve(reused, sine_rhs);
    const amr::CompositeResult got = solve(reused, second_rhs);
    EXPECT_EQ(got.cycles, ref.cycles);
    EXPECT_EQ(got.history, ref.history);
    const auto xH = [](amr::AmrHierarchy& h) -> const BrickedArray& {
      return h.xH();
    };
    const auto patch_x = [](amr::AmrHierarchy& h) -> const BrickedArray& {
      return h.patch().x;
    };
    EXPECT_EQ(gather(reused, xH), gather(fresh, xH));
    EXPECT_EQ(gather(reused, patch_x), gather(fresh, patch_x));
  }
}

// ---- BatchCoalescer (DESIGN.md §15) ----------------------------------
//
// Coalescing is an executor-side regrouping: results must stay bitwise
// identical to the uncoalesced service, batches must only form across
// compatible requests, and queue-side cancellations/deadlines must
// drop members without poisoning the batch.

real_t cosine_rhs(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) * (0.5 + z);
}

real_t poly_rhs(real_t x, real_t y, real_t z) {
  return x * (1 - x) + 0.25 * std::sin(2 * M_PI * (y + z));
}

GmgOptions batched_options(int max_batch) {
  GmgOptions o = small_options(4, 2);
  o.max_batch = max_batch;
  return o;
}

// On one rank and on two: the multi-rank batch runs its collectives
// and stretched exchanges across ranks and scatters every rank's slice.
TEST(BatchCoalescer, CoalescedBatchBitwiseMatchesSoloService) {
  for (const Vec3 rank_grid : {Vec3{1, 1, 1}, Vec3{2, 1, 1}}) {
    SCOPED_TRACE("rank grid " + std::to_string(rank_grid.x) + "x" +
                 std::to_string(rank_grid.y) + "x" +
                 std::to_string(rank_grid.z));
    const DomainSpec domain{{16, 16, 16}, rank_grid};
    ServeConfig cfg;
    cfg.executors = 1;
    cfg.queue_capacity = 8;
    SolveService service(cfg);
    service.register_operator("poisson", batched_options(4));

    // Pin the lone executor so the three batchable requests pile up in
    // the queue; on release the executor pops one leader and coalesces
    // the other two into a K=3 batched solve.
    Gate gate;
    SolveRequest pinned = basic_request();
    pinned.domain = domain;
    pinned.rhs = [&](real_t x, real_t y, real_t z) {
      gate.wait();
      return sine_rhs(x, y, z);
    };
    SolveFuture running = service.submit(pinned);
    gate.await_entered();

    const std::function<real_t(real_t, real_t, real_t)> rhses[3] = {
        sine_rhs, cosine_rhs, poly_rhs};
    std::vector<SolveFuture> futures;
    for (const auto& f : rhses) {
      SolveRequest req = basic_request();
      req.domain = domain;
      req.rhs = f;
      futures.push_back(service.submit(req));
    }
    gate.release();

    EXPECT_EQ(running.get().status, RequestStatus::kDone);
    for (int i = 0; i < 3; ++i) {
      const RequestResult res = futures[static_cast<std::size_t>(i)].get();
      ASSERT_EQ(res.status, RequestStatus::kDone) << res.error;
      const Reference ref =
          solo_solve(batched_options(4), domain, rhses[i], 1e-8, 40);
      EXPECT_EQ(res.solve.vcycles, ref.result.vcycles) << "rhs " << i;
      EXPECT_EQ(res.solve.final_residual, ref.result.final_residual)
          << "rhs " << i;
      EXPECT_EQ(res.solve.history, ref.result.history) << "rhs " << i;
      ASSERT_EQ(res.solution.size(), ref.solution.size());
      EXPECT_EQ(res.solution, ref.solution) << "rhs " << i;
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.batch_solves, 1u);
    EXPECT_EQ(stats.batch_requests, 3u);
  }
}

TEST(BatchCoalescer, FirstRequestOnIdleServiceRunsSoloImmediately) {
  ServeConfig cfg;
  cfg.executors = 1;
  SolveService service(cfg);
  service.register_operator("poisson", batched_options(8));

  SolveRequest req = basic_request();
  req.domain.global_extent = {16, 16, 16};
  const auto t0 = std::chrono::steady_clock::now();
  const RequestResult res = service.submit(req).get();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(res.status, RequestStatus::kDone) << res.error;
  EXPECT_LT(elapsed, 10.0);
  EXPECT_EQ(service.stats().batch_solves, 0u);
}

/// Spin until `service` has `n` executors waiting on its queue.
void await_idle_executors(const SolveService& service, std::size_t n) {
  while (service.stats().idle_executors != n) std::this_thread::yield();
}

// A request that an idle executor can take runs solo: with both
// executors waiting, two compatible requests arrive; whichever executor
// pops the first finds the other still waiting, so it leaves the second
// to it. The second solve finishes while the first is still gated
// inside its own solve — it never rode in the first's batch.
TEST(BatchCoalescer, IdleExecutorTakesQueuedPeerSolo) {
  ServeConfig cfg;
  cfg.executors = 2;
  SolveService service(cfg);
  service.register_operator("poisson", batched_options(4));
  await_idle_executors(service, 2);

  Gate gate;
  SolveRequest first = basic_request();
  first.domain.global_extent = {16, 16, 16};
  first.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  SolveRequest second = basic_request();
  second.domain.global_extent = {16, 16, 16};
  second.rhs = cosine_rhs;
  SolveFuture f1 = service.submit(first);
  SolveFuture f2 = service.submit(second);
  gate.await_entered();

  // Bounded, so a batch that gated the second solve fails the test
  // instead of hanging it.
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(60);
  while (!f2.ready() && std::chrono::steady_clock::now() < give_up)
    std::this_thread::yield();
  EXPECT_TRUE(f2.ready()) << "the second request waited on the first";
  gate.release();

  EXPECT_EQ(f1.get().status, RequestStatus::kDone);
  EXPECT_EQ(f2.get().status, RequestStatus::kDone);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.batch_solves, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

// Operators are registered with a batch width the kernels are built
// for.
TEST(BatchCoalescer, RegisterRejectsWidthsTheKernelsAreNotBuiltFor) {
  SolveService service(ServeConfig{});
  EXPECT_THROW(service.register_operator("none", batched_options(0)), Error);
  EXPECT_THROW(
      service.register_operator("wide", batched_options(kMaxBatch + 1)),
      Error);
  service.register_operator("widest", batched_options(kMaxBatch));
}

TEST(BatchCoalescer, IncompatibleDomainsAndUnbatchedOperatorsStaySolo) {
  ServeConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 8;
  SolveService service(cfg);
  service.register_operator("batched", batched_options(4));
  service.register_operator("plain", small_options(4, 2));  // max_batch = 1

  Gate gate;
  SolveRequest pinned = basic_request();
  pinned.operator_id = "plain";
  pinned.domain.global_extent = {16, 16, 16};
  pinned.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  SolveFuture running = service.submit(pinned);
  gate.await_entered();

  // Same batchable operator, different domain: not compatible.
  SolveRequest small = basic_request();
  small.operator_id = "batched";
  small.domain.global_extent = {16, 16, 16};
  SolveRequest large = small;
  large.domain.global_extent = {32, 16, 16};
  // max_batch = 1 operator: never coalesced even with an identical twin.
  SolveRequest plain_a = basic_request();
  plain_a.operator_id = "plain";
  plain_a.domain.global_extent = {16, 16, 16};
  SolveRequest plain_b = plain_a;

  SolveFuture fs = service.submit(small);
  SolveFuture fl = service.submit(large);
  SolveFuture fa = service.submit(plain_a);
  SolveFuture fb = service.submit(plain_b);
  gate.release();

  EXPECT_EQ(running.get().status, RequestStatus::kDone);
  EXPECT_EQ(fs.get().status, RequestStatus::kDone);
  EXPECT_EQ(fl.get().status, RequestStatus::kDone);
  EXPECT_EQ(fa.get().status, RequestStatus::kDone);
  EXPECT_EQ(fb.get().status, RequestStatus::kDone);
  EXPECT_EQ(service.stats().batch_solves, 0u);
}

TEST(BatchCoalescer, QueueSideCancelAndDeadlineDropMembersIndividually) {
  ServeConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 8;
  SolveService service(cfg);
  service.register_operator("poisson", batched_options(4));

  Gate gate;
  SolveRequest pinned = basic_request();
  pinned.domain.global_extent = {16, 16, 16};
  pinned.rhs = [&](real_t x, real_t y, real_t z) {
    gate.wait();
    return sine_rhs(x, y, z);
  };
  SolveFuture running = service.submit(pinned);
  gate.await_entered();

  SolveRequest base = basic_request();
  base.domain.global_extent = {16, 16, 16};
  SolveFuture keeper = service.submit(base);
  SolveRequest doomed = base;
  SolveFuture cancelled = service.submit(doomed);
  SolveRequest hurried = base;
  hurried.deadline_seconds = 0.01;
  SolveFuture expired = service.submit(hurried);

  cancelled.cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // deadline
  gate.release();

  EXPECT_EQ(running.get().status, RequestStatus::kDone);
  const RequestResult kept = keeper.get();
  EXPECT_EQ(kept.status, RequestStatus::kDone);
  EXPECT_EQ(cancelled.get().status, RequestStatus::kCancelled);
  EXPECT_EQ(expired.get().status, RequestStatus::kExpired);
  // Two of the three coalesced members died in the queue; the batch
  // degraded to a solo solve of the survivor, bitwise a fresh solver's.
  EXPECT_EQ(service.stats().batch_solves, 0u);
  const Reference ref = solo_solve(
      batched_options(4), base.domain, base.rhs, base.tolerance,
      base.max_vcycles);
  EXPECT_EQ(kept.solve.vcycles, ref.result.vcycles);
  EXPECT_EQ(kept.solve.history, ref.result.history);
  EXPECT_EQ(kept.solution, ref.solution);
}

TEST(SolverControl, PreCancelledControlStopsBeforeFirstCycle) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(4, 2), decomp, 0);
    solver.set_rhs(sine_rhs);
    SolveControl control;
    control.cancel.store(true);
    const SolveResult res = solver.solve(c, &control);
    EXPECT_TRUE(res.cancelled);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.vcycles, 0);
  });
}

}  // namespace
}  // namespace gmg::serve

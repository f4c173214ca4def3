// Engine::parallel_for_chunks semantics (chunk coverage, exception
// propagation, concurrent submitters, arbitrary worker counts), the
// pool's job path (workers wake to claim chunks, each thread claims one
// contiguous block of chunks, the caller finishes its own job when
// every worker is busy, rethrow after every claimed chunk, chunk spans
// on the submitter's rank) and the exec runtime facade: the default
// engine's configuration, and deterministic tree reductions that are
// bitwise identical across worker counts, all the way up to full
// solver runs.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "exec/engine.hpp"
#include "exec/runtime.hpp"
#include "gmg/solver.hpp"
#include "tests/test_util.hpp"
#include "trace/trace.hpp"

namespace gmg::exec {
namespace {

TEST(PlanChunks, BoundariesPartitionTheRange) {
  for (std::int64_t n : {std::int64_t{1}, std::int64_t{7}, std::int64_t{64},
                         std::int64_t{1000}, std::int64_t{1} << 20}) {
    for (std::int64_t grain : {std::int64_t{1}, std::int64_t{16},
                               std::int64_t{1} << 15}) {
      const int chunks = Engine::plan_chunks(n, grain);
      ASSERT_GE(chunks, 1);
      ASSERT_LE(chunks, Engine::kMaxChunks);
      EXPECT_EQ(Engine::chunk_bound(n, chunks, 0), 0);
      EXPECT_EQ(Engine::chunk_bound(n, chunks, chunks), n);
      for (int c = 0; c < chunks; ++c) {
        EXPECT_LE(Engine::chunk_bound(n, chunks, c),
                  Engine::chunk_bound(n, chunks, c + 1));
      }
    }
  }
  EXPECT_EQ(Engine::plan_chunks(0, 1), 0);
  EXPECT_EQ(Engine::plan_chunks(-5, 1), 0);
  // The clamp: a huge range never exceeds kMaxChunks chunks.
  EXPECT_EQ(Engine::plan_chunks(std::int64_t{1} << 40, 1), Engine::kMaxChunks);
}

TEST(PlanChunks, PlanIsIndependentOfWorkerCount) {
  // Nothing about the plan involves an engine at all — it is a pure
  // function of (n, grain). This is what makes chunked reductions
  // reproducible: document it as a regression test.
  const int chunks = Engine::plan_chunks(1 << 20, 1 << 15);
  EXPECT_EQ(chunks, 32);
  EXPECT_EQ(Engine::chunk_bound(1 << 20, chunks, 7), 7 * (1 << 15));
}

TEST(ParallelFor, EveryElementVisitedExactlyOnce) {
  for (int workers : {1, 2, 8}) {
    Engine eng(workers);
    const std::int64_t n = 100000;
    std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
    for (auto& h : hits) h.store(0);
    eng.parallel_for_chunks(
        "test.cover", n, 1000,
        [&](int, std::int64_t b, std::int64_t e) {
          for (std::int64_t i = b; i < e; ++i)
            hits[static_cast<size_t>(i)].fetch_add(1);
        });
    for (std::int64_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, EmptyAndSingleChunkRanges) {
  Engine eng(2);
  int calls = 0;
  eng.parallel_for_chunks("test.empty", 0, 16,
                          [&](int, std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // n < grain: one chunk, runs inline on the caller.
  std::thread::id ran_on;
  eng.parallel_for_chunks("test.single", 5, 16,
                          [&](int c, std::int64_t b, std::int64_t e) {
                            ++calls;
                            ran_on = std::this_thread::get_id();
                            EXPECT_EQ(c, 0);
                            EXPECT_EQ(b, 0);
                            EXPECT_EQ(e, 5);
                          });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ParallelFor, FirstExceptionPropagatesToCaller) {
  Engine eng(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      eng.parallel_for_chunks("test.throw", 1 << 16, 1,
                              [&](int c, std::int64_t, std::int64_t) {
                                ran.fetch_add(1);
                                if (c % 3 == 0) throw std::runtime_error("chunk failed");
                              }),
      std::runtime_error);
  // Every claimed chunk finished before the rethrow (no torn state).
  EXPECT_GT(ran.load(), 0);
  // The engine is still usable afterwards.
  std::atomic<int> ok{0};
  eng.parallel_for_chunks("test.after", 64, 1,
                          [&](int, std::int64_t b, std::int64_t e) {
                            ok.fetch_add(static_cast<int>(e - b));
                          });
  EXPECT_EQ(ok.load(), 64);
}

TEST(ParallelFor, ConcurrentSubmittersShareThePool) {
  Engine eng(4);
  std::atomic<std::int64_t> total{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (int rep = 0; rep < 20; ++rep) {
        eng.parallel_for_chunks("multi", 10000, 100,
                                [&](int, std::int64_t b, std::int64_t e) {
                                  total.fetch_add(e - b);
                                });
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(total.load(), std::int64_t{4} * 20 * 10000);
}

// --- the pool's job path --------------------------------------------

/// Spin (yielding) until `pred()` holds or 20 s pass; whether it held.
/// The bound keeps a broken pool from hanging the suite.
template <class Pred>
bool await(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

/// A two-chunk job whose chunks each wait for the other to start, so it
/// completes promptly only if a second thread claims a chunk while the
/// first sits in its own.
struct Rendezvous {
  std::array<std::thread::id, 2> ran_on;  // per chunk
  std::array<bool, 2> met{};              // chunk saw the other start
};

Rendezvous rendezvous_job(Engine& eng, const char* name) {
  Rendezvous out;
  std::atomic<int> started{0};
  eng.parallel_for_chunks(
      name, 2, 1, [&](int c, std::int64_t, std::int64_t) {
        const auto i = static_cast<std::size_t>(c);
        out.ran_on[i] = std::this_thread::get_id();
        started.fetch_add(1);
        out.met[i] = await([&] { return started.load() == 2; });
      });
  return out;
}

TEST(ExecEngine, ReportsWorkerCountAndRejectsZero) {
  for (int workers : {1, 3}) EXPECT_EQ(Engine(workers).workers(), workers);
  EXPECT_THROW(Engine(0), Error);
  EXPECT_THROW(Engine(-2), Error);
}

TEST(ExecEngine, IdleWorkersWakeToClaimChunks) {
  // The thread sitting in one chunk cannot claim the other: each job
  // completes only because an idle worker woke and claimed a chunk.
  Engine eng(2);
  for (int rep = 0; rep < 10; ++rep) {
    const Rendezvous r = rendezvous_job(eng, "test.wake");
    EXPECT_TRUE(r.met[0] && r.met[1]) << "rep " << rep;
    EXPECT_NE(r.ran_on[0], r.ran_on[1]) << "rep " << rep;
  }
}

TEST(ExecEngine, EachThreadClaimsOneContiguousBlock) {
  // Six chunks over the caller and two workers: three blocks of two.
  // A thread's r-th chunk waits until 3r chunks have started. The first
  // chunks thus wait for three threads, and each second chunk holds its
  // thread until every chunk is claimed, so no thread can finish its
  // block early and steal from another.
  Engine eng(2);
  std::array<std::thread::id, 6> ran_on;
  std::mutex mu;
  std::map<std::thread::id, int> rounds;  // chunks each thread started
  int started = 0;
  std::atomic<int> met{0};
  eng.parallel_for_chunks(
      "test.blocks", 6, 1, [&](int c, std::int64_t, std::int64_t) {
        const std::thread::id self = std::this_thread::get_id();
        ran_on[static_cast<std::size_t>(c)] = self;
        int round = 0;
        {
          std::lock_guard<std::mutex> lock(mu);
          round = ++rounds[self];
          ++started;
        }
        if (await([&] {
              std::lock_guard<std::mutex> lock(mu);
              return started >= 3 * round;
            }))
          met.fetch_add(1);
      });
  EXPECT_EQ(met.load(), 6);
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t block = 0; block < 3; ++block) {
    EXPECT_EQ(ran_on[2 * block], ran_on[2 * block + 1]) << "block " << block;
  }
}

TEST(ExecEngine, CallerFinishesItsJobWhileEveryWorkerIsBusy) {
  // Job A pins its submitter and both workers in chunks that wait for a
  // release. Job B, submitted meanwhile, must still complete — every
  // chunk on B's own caller — while A is pinned.
  Engine eng(2);
  std::atomic<int> a_started{0};
  std::atomic<bool> release{false};
  std::atomic<bool> a_done{false};
  std::array<std::thread::id, 3> a_ran_on;
  std::thread submitter([&] {
    eng.parallel_for_chunks(
        "test.pinned", 3, 1, [&](int c, std::int64_t, std::int64_t) {
          a_ran_on[static_cast<std::size_t>(c)] = std::this_thread::get_id();
          a_started.fetch_add(1);
          await([&] { return release.load(); });
        });
    a_done = true;
  });
  const bool pinned = await([&] { return a_started.load() == 3; });
  EXPECT_TRUE(pinned) << "the workers never joined job A";

  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> b_off_caller{0};
  std::atomic<std::int64_t> b_covered{0};
  eng.parallel_for_chunks("test.caller", 6400, 100,
                          [&](int, std::int64_t b, std::int64_t e) {
                            if (std::this_thread::get_id() != caller)
                              b_off_caller.fetch_add(1);
                            b_covered.fetch_add(e - b);
                          });
  EXPECT_EQ(b_covered.load(), 6400);
  EXPECT_EQ(b_off_caller.load(), 0);
  EXPECT_FALSE(a_done.load());

  release = true;
  submitter.join();
  EXPECT_TRUE(a_done.load());
  EXPECT_EQ(std::set<std::thread::id>(a_ran_on.begin(), a_ran_on.end()).size(),
            3u);
}

TEST(ExecEngine, RethrowWaitsForEveryClaimedChunk) {
  Engine eng(3);
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  try {
    eng.parallel_for_chunks(
        "test.rethrow", 64, 1, [&](int c, std::int64_t, std::int64_t) {
          started.fetch_add(1);
          if (c == 0) {
            finished.fetch_add(1);
            throw std::runtime_error("chunk 0 failed");
          }
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          finished.fetch_add(1);
        });
    ADD_FAILURE() << "the chunk's exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0 failed");
    // The call is blocking even when a chunk throws: by the rethrow,
    // every chunk of the plan has run to its end.
    EXPECT_EQ(started.load(), 64);
    EXPECT_EQ(finished.load(), 64);
  }
}

TEST(ExecEngine, WorkerChunkSpansCarryTheSubmittersRank) {
  trace::clear();
  trace::set_rank(5);
  {
    Engine eng(2);
    const Rendezvous r = rendezvous_job(eng, "test.ranked");
    EXPECT_TRUE(r.met[0] && r.met[1]);
  }  // joins the workers before the trace is read
  trace::set_rank(0);
  // Only workers record a span per job, and the rendezvous put at least
  // one chunk on a worker.
  int spans = 0;
  for (const trace::SpanRecord& s : trace::collect().spans) {
    if (s.name != "test.ranked") continue;
    ++spans;
    EXPECT_EQ(s.rank, 5);
    EXPECT_EQ(s.cat, trace::Category::kExec);
  }
  EXPECT_GE(spans, 1);
}

TEST(ExecEngine, NestedCallFromAChunkCompletes) {
  // A chunk that fans out again on its own engine runs the inner job's
  // chunks itself, so this finishes even when the one worker is the
  // thread running the outer chunk.
  for (int workers : {1, 2}) {
    Engine eng(workers);
    std::atomic<std::int64_t> sum{0};
    eng.parallel_for_chunks(
        "test.outer", 4, 1, [&](int, std::int64_t, std::int64_t) {
          eng.parallel_for_chunks("test.inner", 1000, 10,
                                  [&](int, std::int64_t b, std::int64_t e) {
                                    for (std::int64_t i = b; i < e; ++i)
                                      sum += i;
                                  });
        });
    EXPECT_EQ(sum.load(), 4 * (1000 * 999 / 2)) << "workers=" << workers;
  }
}

// --- runtime facade -------------------------------------------------

class RuntimeGuard {
 public:
  ~RuntimeGuard() { configure_default_engine(resolved_default_workers()); }
};

TEST(Runtime, ReduceSumBitwiseIdenticalAcrossWorkers) {
  RuntimeGuard guard;
  const std::int64_t n = 1 << 20;
  auto chunk_sum = [](std::int64_t b, std::int64_t e) {
    double s = 0;
    for (std::int64_t i = b; i < e; ++i)
      s += std::sin(static_cast<double>(i)) * 1e-3;
    return s;
  };
  configure_default_engine(1);
  const double ref = parallel_reduce_sum<double>("r", n, 1 << 12, chunk_sum);
  for (int workers : {2, 8}) {
    configure_default_engine(workers);
    const double got = parallel_reduce_sum<double>("r", n, 1 << 12, chunk_sum);
    EXPECT_EQ(ref, got) << "workers=" << workers;  // bitwise, not NEAR
  }
}

TEST(Runtime, ReduceMaxMatchesSerialScan) {
  RuntimeGuard guard;
  const std::int64_t n = 12345;
  auto chunk_max = [](std::int64_t b, std::int64_t e) {
    double m = 0;
    for (std::int64_t i = b; i < e; ++i)
      m = std::max(m, std::fabs(std::sin(static_cast<double>(i) * 0.7)));
    return m;
  };
  configure_default_engine(3);
  const double got = parallel_reduce_max<double>("m", n, 100, chunk_max);
  EXPECT_EQ(got, chunk_max(0, n));
}

TEST(Runtime, ConfigureDefaultEngineRebuildsThePool) {
  RuntimeGuard guard;
  for (int workers : {3, 1}) {
    configure_default_engine(workers);
    EXPECT_EQ(default_engine().workers(), workers);
    std::atomic<std::int64_t> covered{0};
    parallel_for("test.configured", 5000, 10,
                 [&](std::int64_t b, std::int64_t e) { covered.fetch_add(e - b); });
    EXPECT_EQ(covered.load(), 5000) << "workers=" << workers;
  }
  // Non-positive counts clamp to one worker.
  for (int workers : {0, -4}) {
    configure_default_engine(workers);
    EXPECT_EQ(default_engine().workers(), 1) << "workers=" << workers;
  }
}

/// Sets GMG_EXEC_WORKERS for one scope, then restores the old value.
class ScopedWorkersEnv {
 public:
  explicit ScopedWorkersEnv(const char* value) {
    if (const char* old = std::getenv(kName)) old_ = old;
    ::setenv(kName, value, 1);
  }
  ~ScopedWorkersEnv() {
    if (old_)
      ::setenv(kName, old_->c_str(), 1);
    else
      ::unsetenv(kName);
  }

 private:
  static constexpr const char* kName = "GMG_EXEC_WORKERS";
  std::optional<std::string> old_;
};

TEST(Runtime, ResolvedDefaultWorkersReadsOnlyValidCounts) {
  const unsigned hc = std::thread::hardware_concurrency();
  const int hardware = hc > 1 ? static_cast<int>(hc - 1) : 1;
  for (const char* v : {"1", "5", "1024"}) {
    ScopedWorkersEnv env(v);
    EXPECT_EQ(resolved_default_workers(), std::atoi(v)) << v;
  }
  // Out of range or not a number: the hardware default.
  for (const char* v : {"0", "-3", "1025", "abc", ""}) {
    ScopedWorkersEnv env(v);
    EXPECT_EQ(resolved_default_workers(), hardware) << '"' << v << '"';
  }
}

TEST(Runtime, ParallelForCoversTheRange) {
  RuntimeGuard guard;
  configure_default_engine(3);
  const std::int64_t n = 100000;
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  for (auto& h : hits) h.store(0);
  parallel_for("test.cover", n, 1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i)
      hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i)
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  std::atomic<int> calls{0};
  for (std::int64_t empty : {std::int64_t{0}, std::int64_t{-7}})
    parallel_for("test.empty", empty, 1,
                 [&](std::int64_t, std::int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

// --- solver determinism --------------------------------------------

GmgOptions determinism_options() {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 4;
  o.bottom_smooths = 16;
  o.tolerance = 1e-30;  // never met: run exactly max_vcycles cycles
  o.max_vcycles = 3;
  o.brick = BrickShape::cube(4);
  return o;
}

SolveResult run_solve(std::vector<real_t>* solution_out) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  SolveResult res;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(determinism_options(), decomp, 0);
    solver.set_rhs([](real_t x, real_t y, real_t z) {
      return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
             std::sin(2 * M_PI * z);
    });
    res = solver.solve(c);
    if (solution_out) {
      const BrickedArray& x = solver.solution();
      solution_out->clear();
      for_each(Box::from_extent({32, 32, 32}),
               [&](index_t i, index_t j, index_t k) {
                 solution_out->push_back(x(i, j, k));
               });
    }
  });
  return res;
}

TEST(Determinism, SolveBitwiseIdenticalAcrossWorkerCounts) {
  RuntimeGuard guard;
  configure_default_engine(1);
  std::vector<real_t> ref_x;
  const SolveResult ref = run_solve(&ref_x);
  ASSERT_EQ(ref.history.size(), 4u);  // initial + 3 cycles
  for (int workers : {2, 5}) {
    configure_default_engine(workers);
    std::vector<real_t> x;
    const SolveResult got = run_solve(&x);
    ASSERT_EQ(got.history.size(), ref.history.size()) << "workers=" << workers;
    for (size_t i = 0; i < ref.history.size(); ++i)
      EXPECT_EQ(ref.history[i], got.history[i])
          << "workers=" << workers << " cycle " << i;  // bitwise
    ASSERT_EQ(x.size(), ref_x.size());
    for (size_t i = 0; i < ref_x.size(); ++i)
      ASSERT_EQ(ref_x[i], x[i]) << "workers=" << workers << " elem " << i;
  }
}

}  // namespace
}  // namespace gmg::exec

// Front tier end-to-end: consistent-hash routing stability (same key
// -> same shard; removing 1 of N shards remaps ~1/N of keys and ONLY
// keys of the removed shard), bounded-load placement along each key's
// ring walk, admission-control shedding, graceful drain of the serve
// layer, live ServiceStats counters, and the headline guarantee — a
// solve submitted through the socket front is bitwise identical to the
// same request submitted directly to a SolveService, on whichever
// shard it lands. Runs under TSan in ci/tier1.sh (poll loop x executor
// callbacks x client threads).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "front/admission.hpp"
#include "front/client.hpp"
#include "front/front_server.hpp"
#include "front/shard_router.hpp"
#include "serve/service.hpp"

namespace gmg::front {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

GmgOptions small_options() {
  GmgOptions o;
  o.levels = 2;
  o.smooths = 4;
  o.bottom_smooths = 16;
  o.tolerance = 1e-8;
  o.max_vcycles = 20;
  o.brick = BrickShape::cube(4);
  return o;
}

std::vector<std::string> test_keys(int count) {
  std::vector<std::string> keys;
  keys.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    keys.push_back("16x16x" + std::to_string(i) + "/1x1x1/b4x4x4/l2/poisson");
  return keys;
}

TEST(ShardRouterTest, SameKeySameShardAndAllShardsUsed) {
  const ShardRouter router(4);
  std::vector<int> hits(4, 0);
  for (const std::string& key : test_keys(1000)) {
    const int s = router.route(key);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    EXPECT_EQ(s, router.route(key));  // deterministic
    ++hits[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < 4; ++s)
    EXPECT_GT(hits[static_cast<std::size_t>(s)], 0) << "shard " << s;
}

TEST(ShardRouterTest, RemovingOneShardMovesOnlyItsKeys) {
  const ShardRouter full(4);
  const ShardRouter reduced(std::vector<int>{0, 1, 2});  // shard 3 removed
  int moved = 0;
  const std::vector<std::string> keys = test_keys(2000);
  for (const std::string& key : keys) {
    const int before = full.route(key);
    const int after = reduced.route(key);
    if (before != 3) {
      // Surviving shards keep every key they had: their ring points
      // are untouched by the removal.
      EXPECT_EQ(after, before) << key;
    } else {
      ++moved;
    }
  }
  // ~1/4 of keys lived on the removed shard (vnode balance is not
  // perfect; accept a generous band around 500/2000).
  EXPECT_GT(moved, 2000 / 8);
  EXPECT_LT(moved, 2000 / 2);
}

/// `key`'s walk over `router`, every shard listed.
std::vector<int> walk_order(const ShardRouter& router,
                            const std::string& key) {
  std::vector<int> order;
  EXPECT_EQ(router.walk(key,
                        [&](int s) {
                          order.push_back(s);
                          return false;
                        }),
            -1);
  return order;
}

TEST(ShardRouterTest, WalkStartsAtRouteAndListsEveryShardOnce) {
  const std::vector<std::string> keys = test_keys(1000);
  for (int shards = 1; shards <= 8; ++shards) {
    const ShardRouter router(shards);
    for (const std::string& key : keys) {
      const std::vector<int> order = walk_order(router, key);
      ASSERT_EQ(order.size(), static_cast<std::size_t>(shards)) << key;
      EXPECT_EQ(order.front(), router.route(key)) << key;
      const std::set<int> distinct(order.begin(), order.end());
      EXPECT_EQ(distinct.size(), order.size()) << key;
      EXPECT_EQ(*distinct.begin(), 0);
      EXPECT_EQ(*distinct.rbegin(), shards - 1);
    }
  }
}

TEST(ShardRouterTest, VnodesSpreadTheKeySpace) {
  // A shard's vnode points scatter over the ring instead of forming one
  // arc, so every shard owns close to 1/N of the keys.
  constexpr int kKeys = 100000;
  const std::vector<std::string> keys = test_keys(kKeys);
  for (const int shards : {2, 3, 4, 8}) {
    const ShardRouter router(shards);
    std::vector<int> hits(static_cast<std::size_t>(shards), 0);
    for (const std::string& key : keys)
      ++hits[static_cast<std::size_t>(router.route(key))];
    for (int s = 0; s < shards; ++s) {
      const double share_times_n =
          static_cast<double>(hits[static_cast<std::size_t>(s)]) * shards /
          kKeys;
      EXPECT_GE(share_times_n, 0.5) << shards << " shards, shard " << s;
      EXPECT_LE(share_times_n, 1.5) << shards << " shards, shard " << s;
    }
  }
}

TEST(BoundedLoadTest, CapIsOnePlusEpsilonTimesTheMean) {
  EXPECT_EQ(ShardRouter::kLoadSlack, 0.25);
  EXPECT_EQ(ShardRouter::load_cap(0, 2), 1u);  // idle: ring shard
  EXPECT_EQ(ShardRouter::load_cap(1, 2), 2u);  // ceil(2.5 / 2)
  EXPECT_EQ(ShardRouter::load_cap(2, 2), 2u);  // ceil(3.75 / 2)
  EXPECT_EQ(ShardRouter::load_cap(3, 2), 3u);  // ceil(5 / 2)
  EXPECT_EQ(ShardRouter::load_cap(3, 3), 2u);  // ceil(5 / 3)
  EXPECT_EQ(ShardRouter::load_cap(7, 4), 3u);  // ceil(10 / 4)
  EXPECT_EQ(ShardRouter::load_cap(0, 1), 2u);
}

TEST(BoundedLoadTest, SkipsShardsAtTheCapForTheNextUnderIt) {
  const ShardRouter router(3);
  const std::string key = test_keys(1).front();
  const std::vector<int> w = walk_order(router, key);
  ASSERT_EQ(w.size(), 3u);
  std::vector<std::size_t> load(3, 0);
  const auto at = [&](int s) { return load[static_cast<std::size_t>(s)]; };
  const auto admit_all = [](int) { return true; };
  const auto set = [&](std::size_t a, std::size_t b, std::size_t c) {
    load[static_cast<std::size_t>(w[0])] = a;
    load[static_cast<std::size_t>(w[1])] = b;
    load[static_cast<std::size_t>(w[2])] = c;
  };

  set(0, 0, 0);  // idle: the ring shard
  EXPECT_EQ(router.place(key, at, admit_all), w[0]);
  set(1, 0, 0);  // cap ceil(2.5 / 3) = 1: the ring shard is at it
  EXPECT_EQ(router.place(key, at, admit_all), w[1]);
  set(2, 1, 1);  // cap ceil(6.25 / 3) = 3: under it
  EXPECT_EQ(router.place(key, at, admit_all), w[0]);
  set(3, 3, 0);  // cap ceil(8.75 / 3) = 3: both ahead are at it
  EXPECT_EQ(router.place(key, at, admit_all), w[2]);

  // A shard under the cap that refuses admission passes the request
  // on along the walk; when none admits, placement fails.
  set(0, 0, 0);
  EXPECT_EQ(router.place(key, at, [&](int s) { return s != w[0]; }), w[1]);
  EXPECT_EQ(router.place(key, at, [](int) { return false; }), -1);
}

TEST(BoundedLoadTest, OneShardNeverSkips) {
  const ShardRouter router(1);
  for (const std::size_t load : {0u, 1u, 7u, 1000u}) {
    int asked = 0;
    EXPECT_EQ(router.place(
                  "16x16x16/1x1x1/b4x4x4/l2/poisson",
                  [&](int) { return load; },
                  [&](int) {
                    ++asked;
                    return true;
                  }),
              0);
    EXPECT_EQ(asked, 1);
  }
}

TEST(BoundedLoadTest, RandomAdmitsAndCompletionsStayUnderTheBound) {
  const std::vector<std::string> keys = test_keys(64);
  std::mt19937_64 rng(20260419);
  for (int shards = 1; shards <= 8; ++shards) {
    const ShardRouter router(shards);
    std::vector<std::size_t> load(static_cast<std::size_t>(shards), 0);
    std::size_t total = 0;
    const auto at = [&](int s) { return load[static_cast<std::size_t>(s)]; };
    for (int step = 0; step < 4000; ++step) {
      if (total > 0 && rng() % 5 < 2) {  // a request completes
        std::size_t s = rng() % load.size();
        while (load[s] == 0) s = (s + 1) % load.size();
        --load[s];
        --total;
        continue;
      }
      const std::string& key = keys[rng() % keys.size()];
      const int placed = router.place(key, at, [](int) { return true; });
      ASSERT_GE(placed, 0);
      // The first shard on the walk under the cap took it ...
      const std::size_t cap = ShardRouter::load_cap(total, shards);
      for (const int s : walk_order(router, key)) {
        if (s == placed) break;
        EXPECT_GE(at(s), cap) << "skipped a shard under the cap";
      }
      // ... and is left at most ceil(1.25 m / N), m counting it.
      ++load[static_cast<std::size_t>(placed)];
      ++total;
      const double bound =
          std::ceil(1.25 * static_cast<double>(total) / shards);
      ASSERT_LE(static_cast<double>(at(placed)), bound)
          << shards << " shards, step " << step;
    }
  }
}

TEST(AdmissionTest, CountCapShedsAndReleases) {
  AdmissionConfig cfg;
  cfg.max_inflight = 2;
  cfg.deadline_headroom = 0;  // count/cost caps only
  AdmissionController adm(cfg);
  EXPECT_EQ(adm.try_admit(100, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(adm.try_admit(100, 0), AdmissionController::Decision::kAdmit);
  EXPECT_EQ(adm.try_admit(100, 0),
            AdmissionController::Decision::kShedOverload);
  adm.on_complete(100, 0.01);
  EXPECT_EQ(adm.try_admit(100, 0), AdmissionController::Decision::kAdmit);
  const AdmissionController::Stats s = adm.stats();
  EXPECT_EQ(s.admitted, 3u);
  EXPECT_EQ(s.shed_overload, 1u);
  EXPECT_EQ(s.inflight, 2u);
}

TEST(AdmissionTest, CostCapBoundsOutstandingWork) {
  AdmissionConfig cfg;
  cfg.max_inflight = 8;
  cfg.max_inflight_cost = 1000;
  cfg.deadline_headroom = 0;
  AdmissionController adm(cfg);
  EXPECT_EQ(adm.try_admit(600, 0), AdmissionController::Decision::kAdmit);
  // 600 + 600 > 1000: the cost cap sheds even though the count cap
  // has room.
  EXPECT_EQ(adm.try_admit(600, 0),
            AdmissionController::Decision::kShedOverload);
  EXPECT_EQ(adm.try_admit(300, 0), AdmissionController::Decision::kAdmit);
}

TEST(AdmissionTest, DeadlineAwareSheddingUsesObservedThroughput) {
  AdmissionConfig cfg;
  cfg.max_inflight = 100;
  cfg.max_inflight_cost = 1e18;
  cfg.parallelism = 1;
  cfg.deadline_headroom = 1.0;
  AdmissionController adm(cfg);
  // Teach the EWMA: 100 cost units take 1 s.
  EXPECT_EQ(adm.try_admit(100, 0), AdmissionController::Decision::kAdmit);
  adm.on_complete(100, 1.0);
  // Backlog of 300 cost units => ~3 s wait.
  EXPECT_EQ(adm.try_admit(300, 0), AdmissionController::Decision::kAdmit);
  EXPECT_DOUBLE_EQ(adm.estimated_wait_seconds(), 3.0);
  // A 1 s deadline cannot survive a 3 s backlog: shed immediately.
  EXPECT_EQ(adm.try_admit(50, 1.0),
            AdmissionController::Decision::kShedDeadline);
  // No deadline => backlog is acceptable.
  EXPECT_EQ(adm.try_admit(50, 0), AdmissionController::Decision::kAdmit);
}

/// Blocks the executor inside a request's RHS evaluation until
/// release()d, so tests control executor timing deterministically.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;
  std::atomic<bool> entered{false};
  void wait_open() {
    entered.store(true);
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
};

TEST(ServeDrainTest, DrainWakesBlockedSubmitAndFinishesAdmittedWork) {
  serve::ServeConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  serve::SolveService service(cfg);
  service.register_operator("poisson", small_options());

  serve::SolveRequest req;
  req.domain.global_extent = {16, 16, 16};
  req.rhs = sine_rhs;
  req.return_solution = false;

  // Request A: pinned inside its solve until the gate opens, keeping
  // the lone executor busy for the whole choreography below.
  Gate gate;
  serve::SolveRequest gated = req;
  gated.rhs = [&gate](real_t x, real_t y, real_t z) {
    gate.wait_open();
    return sine_rhs(x, y, z);
  };
  serve::SolveFuture running = service.submit(gated);
  while (!gate.entered.load()) std::this_thread::yield();

  serve::SolveFuture queued = service.submit(req);  // fills the queue
  std::atomic<bool> blocked_returned{false};
  serve::RequestResult blocked_result;
  std::thread submitter([&] {
    blocked_result = service.submit(req).get();  // blocks: queue is full
    blocked_returned.store(true);
  });
  // The blocked submitter cannot be admitted (the queue stays full
  // while A holds the executor), so once its submission is visible it
  // is parked in backpressure.
  while (service.stats().submitted < 3) std::this_thread::yield();

  std::thread drainer([&] { service.drain(); });
  submitter.join();  // drain() wakes it with kRejected
  EXPECT_TRUE(blocked_returned.load());
  EXPECT_EQ(blocked_result.status, serve::RequestStatus::kRejected);

  gate.release();  // let A (and then B) finish so drain() can return
  drainer.join();
  // Everything admitted before the drain ran to completion.
  EXPECT_EQ(running.get().status, serve::RequestStatus::kDone);
  EXPECT_EQ(queued.get().status, serve::RequestStatus::kDone);
  // Post-drain admission stays closed.
  EXPECT_EQ(service.submit(req).get().status,
            serve::RequestStatus::kRejected);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_GE(stats.rejected, 2u);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.inflight, 0u);
}

TEST(ServeStatsTest, CountersTrackOutcomes) {
  serve::ServeConfig cfg;
  cfg.executors = 2;
  serve::SolveService service(cfg);
  service.register_operator("poisson", small_options());

  serve::SolveRequest req;
  req.domain.global_extent = {16, 16, 16};
  req.rhs = sine_rhs;
  req.return_solution = false;
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(service.submit(req).get().status, serve::RequestStatus::kDone);

  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.inflight, 0u);
  // One cold setup, then cache hits.
  EXPECT_GT(stats.cache.hit_ratio(), 0.5);
}

TEST(FrontServerTest, OnCompleteCallbackFires) {
  serve::ServeConfig cfg;
  cfg.executors = 1;
  serve::SolveService service(cfg);
  service.register_operator("poisson", small_options());
  serve::SolveRequest req;
  req.domain.global_extent = {16, 16, 16};
  req.rhs = sine_rhs;
  req.return_solution = false;
  std::atomic<int> fired{0};
  serve::RequestStatus seen = serve::RequestStatus::kQueued;
  req.on_complete = [&](const serve::RequestResult& r) {
    seen = r.status;
    fired.fetch_add(1);
  };
  service.submit(req).wait();
  service.shutdown();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(seen, serve::RequestStatus::kDone);
}

TEST(FrontServerTest, SocketSolveBitwiseMatchesDirectSubmit) {
  const Vec3 extent{16, 16, 16};

  // Direct: plain SolveService, same operator and request.
  serve::ServeConfig serve_cfg;
  serve_cfg.executors = 2;
  serve::RequestResult direct;
  {
    serve::SolveService service(serve_cfg);
    service.register_operator("poisson", small_options());
    serve::SolveRequest req;
    req.domain.global_extent = extent;
    req.rhs = sine_rhs;
    req.return_solution = true;
    direct = service.submit(req).get();
  }
  ASSERT_EQ(direct.status, serve::RequestStatus::kDone);
  ASSERT_FALSE(direct.solution.empty());

  // Socket: same request through the sharded front over TCP.
  FrontConfig cfg;
  cfg.shards = 2;
  cfg.shard = serve_cfg;
  FrontServer server(cfg);
  server.register_operator("poisson", small_options());
  const std::uint16_t port = server.listen_tcp(0);

  FrontClient client;
  client.connect_tcp(port);
  wire::SubmitFrame sf;
  sf.request_id = 1;
  sf.global_extent = extent;
  sf.return_solution = true;
  sf.rhs_samples = wire::sample_rhs(extent, sine_rhs);
  const FrontClient::Response resp = client.submit_and_wait(sf, 60000);
  ASSERT_FALSE(resp.rejected) << resp.reject.detail;
  ASSERT_EQ(static_cast<serve::RequestStatus>(resp.result.status),
            serve::RequestStatus::kDone);

  // Bitwise identity: same vcycles, same residual bits, same solution
  // bits, cell for cell.
  EXPECT_EQ(resp.result.vcycles, direct.solve.vcycles);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(resp.result.final_residual),
            std::bit_cast<std::uint64_t>(direct.solve.final_residual));
  ASSERT_EQ(resp.result.solution.size(), direct.solution.size());
  for (std::size_t i = 0; i < direct.solution.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(resp.result.solution[i]),
              std::bit_cast<std::uint64_t>(direct.solution[i]))
        << "cell " << i;

  // A repeat submit hits the shard's hierarchy cache and still
  // matches bitwise.
  sf.request_id = 2;
  const FrontClient::Response again = client.submit_and_wait(sf, 60000);
  ASSERT_FALSE(again.rejected);
  EXPECT_TRUE(again.result.cache_hit);
  for (std::size_t i = 0; i < direct.solution.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(again.result.solution[i]),
              std::bit_cast<std::uint64_t>(direct.solution[i]));

  client.close();
  server.stop();
}

TEST(FrontServerTest, ConcurrentSubmitsOfOneKeyRunOnBothShards) {
  const Vec3 extent{16, 16, 16};
  // Every cold hierarchy build evaluates the coefficient, and waits
  // there until the front has placed all four requests, so they are
  // inflight together.
  std::atomic<bool> open{false};
  serve::OperatorSpec spec;
  spec.options = small_options();
  spec.coefficient = [&open](real_t x, real_t y, real_t z) {
    while (!open.load()) std::this_thread::yield();
    return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) *
                     std::sin(2 * M_PI * z);
  };

  FrontConfig cfg;
  cfg.shards = 2;
  cfg.shard.executors = 2;
  FrontServer server(cfg);
  server.register_operator("varcoef", spec);
  const std::uint16_t port = server.listen_tcp(0);

  FrontClient client;
  client.connect_tcp(port);
  wire::SubmitFrame sf;
  sf.global_extent = extent;
  sf.operator_id = "varcoef";
  sf.return_solution = true;
  sf.rhs_samples = wire::sample_rhs(extent, sine_rhs);
  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    sf.request_id = static_cast<std::uint64_t>(i) + 1;
    client.send_submit(sf);
  }
  // Two go to the ring shard; the third finds it at the cap
  // (ceil(1.25 * 3 / 2) = 2) and moves to the other shard.
  while (server.stats().submits < kRequests) std::this_thread::yield();
  open.store(true);

  std::vector<FrontClient::Response> responses(kRequests);
  for (FrontClient::Response& r : responses) {
    ASSERT_TRUE(client.read_response(&r, 60000)) << client.last_error();
    ASSERT_FALSE(r.rejected) << r.reject.detail;
    ASSERT_EQ(static_cast<serve::RequestStatus>(r.result.status),
              serve::RequestStatus::kDone);
  }
  client.close();
  server.stop();

  const FrontStats stats = server.stats();
  ASSERT_EQ(stats.shards.shards.size(), 2u);
  for (const wire::ShardStatsEntry& e : stats.shards.shards)
    EXPECT_GT(e.completed, 0u) << "shard " << e.shard_id;
  EXPECT_EQ(stats.spills, 1u);
  EXPECT_EQ(stats.sheds, 0u);

  // Direct: a plain SolveService, same operator and request.
  serve::RequestResult direct;
  {
    serve::SolveService service(cfg.shard);
    service.register_operator("varcoef", spec);
    serve::SolveRequest req;
    req.domain.global_extent = extent;
    req.operator_id = "varcoef";
    req.rhs = sine_rhs;
    req.return_solution = true;
    direct = service.submit(req).get();
  }
  ASSERT_EQ(direct.status, serve::RequestStatus::kDone);
  for (const FrontClient::Response& r : responses) {
    EXPECT_EQ(r.result.vcycles, direct.solve.vcycles);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.result.final_residual),
              std::bit_cast<std::uint64_t>(direct.solve.final_residual));
    ASSERT_EQ(r.result.solution.size(), direct.solution.size());
    for (std::size_t i = 0; i < direct.solution.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(r.result.solution[i]),
                std::bit_cast<std::uint64_t>(direct.solution[i]))
          << "request " << r.request_id << " cell " << i;
  }
}

TEST(FrontServerTest, OverloadShedsFastWithRejectFrames) {
  FrontConfig cfg;
  cfg.shards = 1;
  cfg.shard.executors = 1;
  cfg.admission.max_inflight = 1;
  FrontServer server(cfg);
  server.register_operator("poisson", small_options());
  const std::uint16_t port = server.listen_tcp(0);

  FrontClient client;
  client.connect_tcp(port);
  wire::SubmitFrame sf;
  sf.global_extent = {16, 16, 16};
  sf.return_solution = false;
  sf.rhs_samples = wire::sample_rhs(sf.global_extent, sine_rhs);

  // Burst far past the inflight cap without reading responses: the
  // admission controller must shed the excess immediately.
  const int burst = 8;
  for (int i = 0; i < burst; ++i) {
    sf.request_id = static_cast<std::uint64_t>(i) + 1;
    client.send_submit(sf);
  }
  int done = 0, rejected = 0;
  for (int i = 0; i < burst; ++i) {
    FrontClient::Response r;
    ASSERT_TRUE(client.read_response(&r, 60000)) << client.last_error();
    if (r.rejected) {
      EXPECT_EQ(r.reject.reason, wire::RejectReason::kOverload);
      ++rejected;
    } else {
      ++done;
    }
  }
  EXPECT_GE(done, 1);      // the first request was admitted and ran
  EXPECT_GE(rejected, 1);  // the burst overflowed the cap
  const FrontStats stats = server.stats();
  EXPECT_EQ(stats.sheds, static_cast<std::uint64_t>(rejected));
  EXPECT_EQ(stats.submits, static_cast<std::uint64_t>(done));

  client.close();
  server.stop();
}

TEST(FrontServerTest, BadRequestsAndUnknownOperatorsAreRejected) {
  FrontConfig cfg;
  cfg.shards = 1;
  FrontServer server(cfg);
  server.register_operator("poisson", small_options());
  const std::uint16_t port = server.listen_tcp(0);

  FrontClient client;
  client.connect_tcp(port);
  EXPECT_TRUE(client.ping(0xabc, 10000)) << client.last_error();

  wire::SubmitFrame sf;
  sf.request_id = 5;
  sf.global_extent = {8, 8, 8};
  sf.rhs_samples = wire::sample_rhs(sf.global_extent, sine_rhs);
  sf.operator_id = "no-such-operator";
  FrontClient::Response r = client.submit_and_wait(sf, 30000);
  ASSERT_TRUE(r.rejected);
  EXPECT_EQ(r.reject.reason, wire::RejectReason::kUnknownOperator);
  EXPECT_EQ(r.request_id, 5u);

  sf.request_id = 6;
  sf.operator_id = "poisson";
  sf.rhs_samples.resize(3);  // count != volume
  r = client.submit_and_wait(sf, 30000);
  ASSERT_TRUE(r.rejected);
  EXPECT_EQ(r.reject.reason, wire::RejectReason::kBadRequest);

  // Rank-grid extents are int32s off the wire; their 64-bit product
  // wraps to 0 or to a negative value.
  sf.rhs_samples = wire::sample_rhs(sf.global_extent, sine_rhs);
  for (const Vec3 grid : {Vec3{1 << 22, 1 << 21, 1 << 21},
                          Vec3{1 << 22, 1 << 21, (1 << 21) - 1}}) {
    ++sf.request_id;
    sf.rank_grid = grid;
    r = client.submit_and_wait(sf, 30000);
    ASSERT_TRUE(r.rejected) << grid;
    EXPECT_EQ(r.reject.reason, wire::RejectReason::kBadRequest) << grid;
    EXPECT_EQ(r.reject.detail, "rank grid too large") << grid;
  }

  wire::StatsFrame stats;
  ASSERT_TRUE(client.fetch_stats(&stats, 10000)) << client.last_error();
  EXPECT_EQ(stats.shards.size(), 1u);

  client.close();
  server.stop();
}

TEST(FrontServerTest, UnixSocketAndGracefulStop) {
  FrontConfig cfg;
  cfg.shards = 1;
  FrontServer server(cfg);
  server.register_operator("poisson", small_options());
  const std::string path =
      "/tmp/gmg_front_test_" + std::to_string(::getpid()) + ".sock";
  server.listen_unix(path);
  EXPECT_TRUE(server.running());

  FrontClient client;
  client.connect_unix(path);
  wire::SubmitFrame sf;
  sf.request_id = 1;
  sf.global_extent = {16, 16, 16};
  sf.return_solution = false;
  sf.rhs_samples = wire::sample_rhs(sf.global_extent, sine_rhs);
  const FrontClient::Response r = client.submit_and_wait(sf, 60000);
  ASSERT_FALSE(r.rejected);
  EXPECT_EQ(static_cast<serve::RequestStatus>(r.result.status),
            serve::RequestStatus::kDone);

  server.stop();
  EXPECT_FALSE(server.running());
  server.stop();  // idempotent
  client.close();
}

}  // namespace
}  // namespace gmg::front

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/simmpi.hpp"
#include "common/rng.hpp"

namespace gmg::comm {
namespace {

TEST(SimMpi, RankAndSize) {
  World world(4);
  std::vector<int> seen(4, -1);
  world.run([&](Communicator& c) {
    EXPECT_EQ(c.size(), 4);
    seen[static_cast<size_t>(c.rank())] = c.rank();
  });
  for (int r = 0; r < 4; ++r) EXPECT_EQ(seen[static_cast<size_t>(r)], r);
}

TEST(SimMpi, PingPong) {
  World world(2);
  world.run([&](Communicator& c) {
    double buf = 0;
    if (c.rank() == 0) {
      double v = 3.25;
      Request s = c.isend(&v, sizeof(v), 1, 7);
      Request r = c.irecv(&buf, sizeof(buf), 1, 8);
      std::vector<Request> reqs{s, r};
      c.wait_all(reqs);
      EXPECT_DOUBLE_EQ(buf, 6.5);
    } else {
      Request r = c.irecv(&buf, sizeof(buf), 0, 7);
      c.wait(r);
      EXPECT_DOUBLE_EQ(buf, 3.25);
      double v = buf * 2;
      Request s = c.isend(&v, sizeof(v), 0, 8);
      c.wait(s);
    }
  });
}

TEST(SimMpi, SendBeforeRecvAndRecvBeforeSend) {
  // Both orders must match: unexpected-message queue and posted-recv
  // list paths.
  World world(2);
  for (int round = 0; round < 2; ++round) {
    world.run([&](Communicator& c) {
      int v = 41 + round;
      int got = 0;
      if (c.rank() == 0) {
        if (round == 0) c.barrier();  // force send-after-recv posted
        Request s = c.isend(&v, sizeof(v), 1, 3);
        c.wait(s);
        c.barrier();
      } else {
        Request r = c.irecv(&got, sizeof(got), 0, 3);
        if (round == 0) c.barrier();
        c.wait(r);
        EXPECT_EQ(got, 41 + round);
        c.barrier();
      }
    });
  }
}

TEST(SimMpi, TagAndSourceMatching) {
  World world(3);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      int a = 100, b = 200;
      Request s1 = c.isend(&a, sizeof(a), 2, 1);
      Request s2 = c.isend(&b, sizeof(b), 2, 2);
      std::vector<Request> reqs{s1, s2};
      c.wait_all(reqs);
    } else if (c.rank() == 1) {
      int v = 300;
      Request s = c.isend(&v, sizeof(v), 2, 1);
      c.wait(s);
    } else {
      int t1a = 0, t2 = 0, t1b = 0;
      // Post in a scrambled order; matching is by (source, tag).
      Request r2 = c.irecv(&t2, sizeof(t2), 0, 2);
      Request r1b = c.irecv(&t1b, sizeof(t1b), 1, 1);
      Request r1a = c.irecv(&t1a, sizeof(t1a), 0, 1);
      std::vector<Request> reqs{r2, r1b, r1a};
      c.wait_all(reqs);
      EXPECT_EQ(t1a, 100);
      EXPECT_EQ(t2, 200);
      EXPECT_EQ(t1b, 300);
    }
  });
}

TEST(SimMpi, AnySource) {
  World world(3);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      int sum = 0;
      for (int n = 0; n < 2; ++n) {
        int got = 0;
        Request r = c.irecv(&got, sizeof(got), kAnySource, 9);
        c.wait(r);
        sum += got;
      }
      EXPECT_EQ(sum, 30);
    } else {
      int v = c.rank() * 10;
      Request s = c.isend(&v, sizeof(v), 0, 9);
      c.wait(s);
    }
  });
}

TEST(SimMpi, SegmentedSendIntoSegmentedRecv) {
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<double> a{1, 2, 3}, b{4, 5};
      Request s = c.isendv(
          {ConstSegment{a.data(), 3 * sizeof(double)},
           ConstSegment{b.data(), 2 * sizeof(double)}},
          1, 0);
      c.wait(s);
    } else {
      std::vector<double> x(2), y(3);
      Request r = c.irecvv({Segment{x.data(), 2 * sizeof(double)},
                            Segment{y.data(), 3 * sizeof(double)}},
                           0, 0);
      c.wait(r);
      EXPECT_EQ(x, (std::vector<double>{1, 2}));
      EXPECT_EQ(y, (std::vector<double>{3, 4, 5}));
    }
  });
}

TEST(SimMpi, Collectives) {
  World world(5);
  world.run([&](Communicator& c) {
    const double mine = c.rank() + 1;
    EXPECT_DOUBLE_EQ(c.allreduce_max(mine), 5.0);
    EXPECT_DOUBLE_EQ(c.allreduce_sum(mine), 15.0);
    const auto all = c.allgather(mine * 2);
    ASSERT_EQ(all.size(), 5u);
    for (int r = 0; r < 5; ++r)
      EXPECT_DOUBLE_EQ(all[static_cast<size_t>(r)], 2.0 * (r + 1));
  });
}

TEST(SimMpi, RepeatedCollectivesKeepGenerationsStraight) {
  World world(4);
  world.run([&](Communicator& c) {
    for (int round = 0; round < 50; ++round) {
      const double v = c.rank() * 100 + round;
      EXPECT_DOUBLE_EQ(c.allreduce_max(v), 300.0 + round);
      c.barrier();
      EXPECT_DOUBLE_EQ(c.allreduce_sum(round), 4.0 * round);
    }
  });
}

TEST(SimMpi, AllreduceSumCombinesInRankOrder) {
  // The values make the fold order visible: ((1e16 + 1) - 1e16) == 0,
  // while an arrival order starting (2, 0, ...) folds to 1. Each rank
  // enters the collective only after a message from its predecessor in
  // the arrival order (plus a pause so the predecessor gets there
  // first); every one of the six orders must return the rank-order
  // sum.
  const std::array<double, 3> values{1e16, 1.0, -1e16};
  std::array<int, 3> order{0, 1, 2};
  World world(3);
  do {
    world.run([&](Communicator& c) {
      const int pos = static_cast<int>(
          std::find(order.begin(), order.end(), c.rank()) - order.begin());
      char token = 0;
      if (pos > 0) {
        Request r = c.irecv(&token, 1, order[static_cast<size_t>(pos - 1)], 5);
        c.wait(r);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (pos < 2) {
        Request s = c.isend(&token, 1, order[static_cast<size_t>(pos + 1)], 5);
        c.wait(s);
      }
      const double sum =
          c.allreduce_sum(values[static_cast<size_t>(c.rank())]);
      EXPECT_EQ(sum, (values[0] + values[1]) + values[2])
          << "arrival order " << order[0] << order[1] << order[2];
      EXPECT_EQ(sum, 0.0);
    });
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(SimMpi, AllToAllStress) {
  // Every rank sends a random-sized message to every other rank for
  // several rounds; receives are posted in reverse order.
  const int nranks = 6;
  World world(nranks);
  world.run([&](Communicator& c) {
    Rng rng(static_cast<std::uint64_t>(c.rank()) + 1000);
    for (int round = 0; round < 5; ++round) {
      std::vector<std::vector<double>> outbox(nranks);
      std::vector<std::vector<double>> inbox(nranks);
      std::vector<Request> reqs;
      for (int peer = nranks - 1; peer >= 0; --peer) {
        if (peer == c.rank()) continue;
        // Size depends deterministically on (sender, receiver, round).
        const auto size_of = [&](int from, int to) {
          return 1 + (from * 31 + to * 17 + round * 7) % 9;
        };
        inbox[static_cast<size_t>(peer)].resize(
            static_cast<size_t>(size_of(peer, c.rank())));
        reqs.push_back(c.irecv(inbox[static_cast<size_t>(peer)].data(),
                               inbox[static_cast<size_t>(peer)].size() *
                                   sizeof(double),
                               peer, round));
        auto& out = outbox[static_cast<size_t>(peer)];
        out.resize(static_cast<size_t>(size_of(c.rank(), peer)));
        for (auto& v : out) v = c.rank() * 1000 + peer;
        reqs.push_back(c.isend(out.data(), out.size() * sizeof(double), peer,
                               round));
      }
      c.wait_all(reqs);
      for (int peer = 0; peer < nranks; ++peer) {
        if (peer == c.rank()) continue;
        for (double v : inbox[static_cast<size_t>(peer)]) {
          EXPECT_DOUBLE_EQ(v, peer * 1000 + c.rank());
        }
      }
    }
  });
}

TEST(SimMpi, TrafficAccounting) {
  World world(2);
  world.run([&](Communicator& c) {
    std::vector<double> buf(16);
    if (c.rank() == 0) {
      Request s = c.isend(buf.data(), buf.size() * sizeof(double), 1, 0);
      c.wait(s);
      EXPECT_EQ(c.bytes_sent(), 128u);
      EXPECT_EQ(c.messages_sent(), 1u);
    } else {
      Request r = c.irecv(buf.data(), buf.size() * sizeof(double), 0, 0);
      c.wait(r);
      EXPECT_EQ(c.bytes_sent(), 0u);
    }
  });
  EXPECT_EQ(world.total_bytes_sent(), 128u);
  EXPECT_EQ(world.total_messages_sent(), 1u);
}

TEST(SimMpi, SizeMismatchFailsFast) {
  World world(2);
  EXPECT_THROW(world.run([&](Communicator& c) {
    double small = 0;
    std::vector<double> big(4, 1.0);
    if (c.rank() == 0) {
      Request s = c.isend(big.data(), sizeof(double) * 4, 1, 0);
      c.wait(s);
    } else {
      Request r = c.irecv(&small, sizeof(double), 0, 0);
      c.wait(r);
    }
  }),
               Error);
}

TEST(SimMpi, IsendCompletesAtPostAndCopiesThePayload) {
  // Buffered sends: an isend is complete when it returns, whether it
  // met a posted receive or was queued for a later one, and the sender
  // may reuse its buffer at once. An exchange round therefore posts its
  // receives and sends, and only then waits, without stalling a peer.
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      double matched = 0, queued = 0;
      Request rm = c.irecv(&matched, sizeof(matched), 1, 8);
      c.barrier();  // the peer sends both messages after this
      c.barrier();
      Request rq = c.irecv(&queued, sizeof(queued), 1, 7);
      std::vector<Request> reqs{rm, rq};
      c.wait_all(reqs);
      EXPECT_DOUBLE_EQ(matched, 2.5);
      EXPECT_DOUBLE_EQ(queued, 1.5);
    } else {
      c.barrier();
      double v = 1.5;
      Request sq = c.isend(&v, sizeof(v), 0, 7);  // no receive posted
      c.wait(sq);  // the receiver is parked at the barrier: must not block
      v = 2.5;
      Request sm = c.isend(&v, sizeof(v), 0, 8);  // meets the posted one
      c.wait(sm);
      v = -1.0;
      c.barrier();
    }
  });
}

TEST(SimMpi, WaitAllCompletesReceivesOutOfPostOrder) {
  // A round's receives complete in whatever order the peers send;
  // wait_all returns once every one has, with each payload in place.
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      double a = 0, b = 0;
      std::vector<Request> reqs;
      reqs.push_back(c.irecv(&a, sizeof(a), 1, 1));  // posted first...
      reqs.push_back(c.irecv(&b, sizeof(b), 1, 2));  // ...but sent second
      c.barrier();
      c.wait_all(reqs);
      EXPECT_DOUBLE_EQ(a, 10.0);
      EXPECT_DOUBLE_EQ(b, 20.0);
    } else {
      c.barrier();
      double v2 = 20.0, v1 = 10.0;
      Request s2 = c.isend(&v2, sizeof(v2), 0, 2);
      Request s1 = c.isend(&v1, sizeof(v1), 0, 1);
      c.wait(s2);
      c.wait(s1);
    }
  });
}

TEST(SimMpi, WaitAllSkipsInvalidRequests) {
  // A default-constructed request is null, like MPI_REQUEST_NULL: wait
  // and wait_all return at once on it and skip it among live requests.
  // A round with no remote neighbor waits on an empty request list.
  World world(2);
  world.run([&](Communicator& c) {
    std::vector<Request> none(3);
    c.wait_all(none);
    c.wait_all(std::span<Request>{});
    Request null_req;
    c.wait(null_req);
    EXPECT_FALSE(null_req.valid());
    if (c.rank() == 0) {
      double buf = 0;
      std::vector<Request> mixed(3);
      mixed[1] = c.irecv(&buf, sizeof(buf), 1, 4);
      c.wait_all(mixed);
      EXPECT_DOUBLE_EQ(buf, 4.5);
    } else {
      double v = 4.5;
      Request s = c.isend(&v, sizeof(v), 0, 4);
      c.wait(s);
    }
  });
}

TEST(SimMpi, PeerFailurePropagates) {
  World world(2);
  EXPECT_THROW(world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      throw Error("rank 0 exploded");
    } else {
      c.barrier();  // would deadlock without abort propagation
    }
  }),
               Error);
}

// Sends are buffered, so a rank blocked in a wait can only be woken by
// a rank that is still running: once every live rank is blocked on a
// false condition, the run fails at once with a deadlock error instead
// of riding out the wait timeout.
void expect_deadlock(World& world,
                     const std::function<void(Communicator&)>& fn) {
  const auto start = std::chrono::steady_clock::now();
  try {
    world.run(fn);
    ADD_FAILURE() << "a deadlocked run returned";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("communication deadlock"),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

TEST(SimMpi, ReceivesNobodySendsFailAsDeadlock) {
  World world(2);
  expect_deadlock(world, [](Communicator& c) {
    double v = 0;
    Request r = c.irecv(&v, sizeof(v), 1 - c.rank(), 9);
    c.wait(r);
  });
}

TEST(SimMpi, BarrierAfterAPeerExitedFailsAsDeadlock) {
  World world(2);
  expect_deadlock(world, [](Communicator& c) {
    if (c.rank() == 1) c.barrier();
  });
  // The failed run leaves no state behind: the world runs again.
  world.run([](Communicator& c) {
    c.barrier();
    EXPECT_DOUBLE_EQ(c.allreduce_sum(1.0), 2.0);
  });
}

}  // namespace
}  // namespace gmg::comm

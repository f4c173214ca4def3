#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <numeric>
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

TEST(SimMpi, TestReportsCompletionAndStaysTrue) {
  World world(2);
  world.run([&](Communicator& c) {
    // An invalid request tests true, like MPI_REQUEST_NULL.
    Request null_req;
    EXPECT_TRUE(c.test(null_req));

    double buf = 0;
    if (c.rank() == 0) {
      Request r = c.irecv(&buf, sizeof(buf), 1, 5);
      // The sender is parked before the barrier, so the recv cannot
      // have completed yet.
      EXPECT_FALSE(c.test(r));
      c.barrier();   // release the sender
      c.barrier();   // sender passed this only after its send completed
      // Repeated test() keeps answering true; the request stays valid.
      for (int i = 0; i < 3; ++i) EXPECT_TRUE(c.test(r));
      EXPECT_TRUE(r.valid());
      c.wait(r);
      EXPECT_DOUBLE_EQ(buf, 2.75);
    } else {
      c.barrier();
      double v = 2.75;
      Request s = c.isend(&v, sizeof(v), 0, 5);
      c.wait(s);  // buffered send: completes synchronously
      c.barrier();
    }
  });
}

TEST(SimMpi, WaitAnyReturnsCompletionsOutOfPostOrder) {
  World world(2);
  world.run([&](Communicator& c) {
    if (c.rank() == 0) {
      double a = 0, b = 0;
      std::vector<Request> reqs;
      reqs.push_back(c.irecv(&a, sizeof(a), 1, 1));  // posted first...
      reqs.push_back(c.irecv(&b, sizeof(b), 1, 2));  // ...but sent second
      c.barrier();
      // The peer sends tag 2 first: wait_any must surface index 1
      // before index 0 regardless of post order.
      const int first = c.wait_any(reqs);
      EXPECT_EQ(first, 1);
      EXPECT_DOUBLE_EQ(b, 20.0);
      EXPECT_FALSE(reqs[1].valid());  // consumed, MPI_REQUEST_NULL-like
      c.barrier();
      const int second = c.wait_any(reqs);
      EXPECT_EQ(second, 0);
      EXPECT_DOUBLE_EQ(a, 10.0);
      // Every entry consumed: the drain loop's stop condition.
      EXPECT_EQ(c.wait_any(reqs), -1);
    } else {
      c.barrier();
      double v2 = 20.0;
      Request s2 = c.isend(&v2, sizeof(v2), 0, 2);
      c.wait(s2);
      c.barrier();
      double v1 = 10.0;
      Request s1 = c.isend(&v1, sizeof(v1), 0, 1);
      c.wait(s1);
    }
  });
}

TEST(SimMpi, WaitAnyOnAllInvalidReturnsMinusOne) {
  World world(1);
  world.run([&](Communicator& c) {
    std::vector<Request> reqs(3);  // all default-constructed
    EXPECT_EQ(c.wait_any(reqs), -1);
    EXPECT_EQ(c.wait_any(std::span<Request>{}), -1);
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

}  // namespace
}  // namespace gmg::comm

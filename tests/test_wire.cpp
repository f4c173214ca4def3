// Wire protocol: bitwise round trips (including property sweeps over
// randomized frames) and the malformed-input contract — truncated
// headers, oversized length prefixes, bad magic/version/flags,
// mid-frame disconnects, payload counts that exceed the bytes actually
// received, and NaN or infinite RHS samples must all be rejected
// without a crash and without allocating from an attacker-controlled
// length.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "front/wire.hpp"

namespace gmg::front::wire {
namespace {

/// Bitwise comparison: NaNs and signed zeros must survive the wire
/// exactly, so compare the stored bits, not the float values.
bool same_bits(real_t a, real_t b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i], b[i])) return false;
  return true;
}

/// Run one encoded frame through the stream reader, as the server
/// would see it.
Frame through_reader(const std::vector<std::uint8_t>& bytes) {
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size());
  Frame f;
  EXPECT_TRUE(reader.next(&f));
  EXPECT_FALSE(reader.corrupt());
  EXPECT_EQ(reader.buffered(), 0u);
  return f;
}

std::vector<std::uint8_t> header(std::uint32_t magic, std::uint8_t version,
                                 std::uint8_t type, std::uint16_t flags,
                                 std::uint32_t len) {
  std::vector<std::uint8_t> h;
  for (int i = 0; i < 4; ++i)
    h.push_back(static_cast<std::uint8_t>(magic >> (8 * i)));
  h.push_back(version);
  h.push_back(type);
  h.push_back(static_cast<std::uint8_t>(flags));
  h.push_back(static_cast<std::uint8_t>(flags >> 8));
  for (int i = 0; i < 4; ++i)
    h.push_back(static_cast<std::uint8_t>(len >> (8 * i)));
  return h;
}

TEST(Wire, SubmitRoundTripIsBitwise) {
  SubmitFrame in;
  in.request_id = 0xdeadbeefcafef00dULL;
  in.global_extent = {4, 2, 3};
  in.rank_grid = {2, 1, 1};
  in.operator_id = "poisson-variant";
  in.tolerance = 0.1;  // not exactly representable: bits must survive
  in.max_vcycles = 7;
  in.priority = -3;
  in.deadline_seconds = 2.5;
  in.return_solution = true;
  for (int i = 0; i < 24; ++i)
    in.rhs_samples.push_back(static_cast<real_t>(i) * 0.3 - 1e-300);

  const Frame f = through_reader(encode_submit(in));
  ASSERT_EQ(f.type, FrameType::kSubmit);
  SubmitFrame out;
  std::string err;
  ASSERT_TRUE(decode_submit(f.payload, &out, &err)) << err;
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.global_extent.x, in.global_extent.x);
  EXPECT_EQ(out.global_extent.y, in.global_extent.y);
  EXPECT_EQ(out.global_extent.z, in.global_extent.z);
  EXPECT_EQ(out.rank_grid.x, in.rank_grid.x);
  EXPECT_EQ(out.operator_id, in.operator_id);
  EXPECT_TRUE(same_bits(out.tolerance, in.tolerance));
  EXPECT_EQ(out.max_vcycles, in.max_vcycles);
  EXPECT_EQ(out.priority, in.priority);
  EXPECT_TRUE(same_bits(out.deadline_seconds, in.deadline_seconds));
  EXPECT_EQ(out.return_solution, in.return_solution);
  EXPECT_TRUE(same_bits(out.rhs_samples, in.rhs_samples));
}

TEST(Wire, SubmitRoundTripProperty) {
  Rng rng(0x71e5ULL);
  for (int trial = 0; trial < 50; ++trial) {
    SubmitFrame in;
    in.request_id = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
    in.global_extent = {rng.uniform_int(1, 6), rng.uniform_int(1, 6),
                        rng.uniform_int(1, 6)};
    in.rank_grid = {1, 1, 1};
    in.operator_id = "op-" + std::to_string(trial);
    in.tolerance = std::abs(rng.uniform());
    in.max_vcycles = static_cast<int>(rng.uniform_int(1, 100));
    in.priority = static_cast<int>(rng.uniform_int(-5, 5));
    in.deadline_seconds = std::abs(rng.uniform());
    in.return_solution = rng.uniform_int(0, 1) == 1;
    const auto cells = static_cast<std::size_t>(in.global_extent.volume());
    for (std::size_t i = 0; i < cells; ++i)
      in.rhs_samples.push_back(rng.uniform(-1e3, 1e3));

    const Frame f = through_reader(encode_submit(in));
    SubmitFrame out;
    std::string err;
    ASSERT_TRUE(decode_submit(f.payload, &out, &err)) << err;
    EXPECT_EQ(out.request_id, in.request_id);
    EXPECT_TRUE(same_bits(out.tolerance, in.tolerance));
    EXPECT_TRUE(same_bits(out.rhs_samples, in.rhs_samples));
  }
}

TEST(Wire, ResultRejectPingStatsRoundTrip) {
  ResultFrame r;
  r.request_id = 42;
  r.status = 3;
  r.cache_hit = true;
  r.converged = true;
  r.vcycles = 12;
  r.final_residual = 3.25e-11;
  r.queue_seconds = 0.001;
  r.setup_seconds = 0;
  r.solve_seconds = 0.125;
  r.total_seconds = 0.127;
  r.solution = {1.0, -0.0, 2.5e-300};
  r.error = "";
  Frame f = through_reader(encode_result(r));
  ASSERT_EQ(f.type, FrameType::kResult);
  ResultFrame r2;
  std::string err;
  ASSERT_TRUE(decode_result(f.payload, &r2, &err)) << err;
  EXPECT_EQ(r2.request_id, 42u);
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_TRUE(same_bits(r2.solution, r.solution));
  EXPECT_TRUE(same_bits(r2.final_residual, r.final_residual));

  RejectFrame rj;
  rj.request_id = 7;
  rj.reason = RejectReason::kOverload;
  rj.detail = "busy";
  f = through_reader(encode_reject(rj));
  ASSERT_EQ(f.type, FrameType::kReject);
  RejectFrame rj2;
  ASSERT_TRUE(decode_reject(f.payload, &rj2, &err)) << err;
  EXPECT_EQ(rj2.request_id, 7u);
  EXPECT_EQ(rj2.reason, RejectReason::kOverload);
  EXPECT_EQ(rj2.detail, "busy");

  f = through_reader(encode_ping(0x1234567890abcdefULL));
  ASSERT_EQ(f.type, FrameType::kPing);
  std::uint64_t nonce = 0;
  ASSERT_TRUE(decode_nonce(f.payload, &nonce, &err)) << err;
  EXPECT_EQ(nonce, 0x1234567890abcdefULL);

  StatsFrame st;
  ShardStatsEntry e;
  e.shard_id = 1;
  e.accepted = 10;
  e.shed_overload = 3;
  e.batch_solves = 4;
  e.batch_requests = 13;
  e.inflight_cost = 1.5e6;
  e.cache_hit_ratio = 0.75;
  st.shards = {e, e};
  f = through_reader(encode_stats(st));
  ASSERT_EQ(f.type, FrameType::kStats);
  StatsFrame st2;
  ASSERT_TRUE(decode_stats(f.payload, &st2, &err)) << err;
  ASSERT_EQ(st2.shards.size(), 2u);
  EXPECT_EQ(st2.shards[0].accepted, 10u);
  EXPECT_EQ(st2.shards[0].batch_solves, 4u);
  EXPECT_EQ(st2.shards[1].batch_requests, 13u);
  EXPECT_TRUE(same_bits(st2.shards[1].cache_hit_ratio, 0.75));
}

TEST(Wire, ReaderHandlesArbitrarySegmentation) {
  SubmitFrame in;
  in.global_extent = {2, 2, 2};
  in.rhs_samples.assign(8, 0.5);
  const std::vector<std::uint8_t> bytes = encode_submit(in);

  // One byte at a time: exactly one frame, no corruption.
  FrameReader reader;
  Frame f;
  int frames = 0;
  for (const std::uint8_t b : bytes) {
    reader.feed(&b, 1);
    while (reader.next(&f)) ++frames;
  }
  EXPECT_EQ(frames, 1);
  EXPECT_FALSE(reader.corrupt());
  EXPECT_EQ(reader.buffered(), 0u);

  // Three frames in one feed: extracted in order.
  std::vector<std::uint8_t> stream = encode_ping(1);
  const std::vector<std::uint8_t> second = encode_pong(2);
  stream.insert(stream.end(), second.begin(), second.end());
  stream.insert(stream.end(), bytes.begin(), bytes.end());
  FrameReader reader2;
  reader2.feed(stream.data(), stream.size());
  ASSERT_TRUE(reader2.next(&f));
  EXPECT_EQ(f.type, FrameType::kPing);
  ASSERT_TRUE(reader2.next(&f));
  EXPECT_EQ(f.type, FrameType::kPong);
  ASSERT_TRUE(reader2.next(&f));
  EXPECT_EQ(f.type, FrameType::kSubmit);
  EXPECT_FALSE(reader2.next(&f));
}

TEST(Wire, TruncatedHeaderIsNotAFrame) {
  const std::vector<std::uint8_t> bytes = encode_ping(9);
  FrameReader reader;
  reader.feed(bytes.data(), 5);  // disconnect mid-header
  Frame f;
  EXPECT_FALSE(reader.next(&f));
  EXPECT_FALSE(reader.corrupt());  // not corrupt, just incomplete
}

TEST(Wire, MidFramePayloadDisconnectNeverCompletes) {
  SubmitFrame in;
  in.global_extent = {2, 2, 2};
  in.rhs_samples.assign(8, 1.0);
  const std::vector<std::uint8_t> bytes = encode_submit(in);
  FrameReader reader;
  reader.feed(bytes.data(), bytes.size() - 7);  // disconnect mid-payload
  Frame f;
  EXPECT_FALSE(reader.next(&f));
  EXPECT_FALSE(reader.corrupt());
  EXPECT_EQ(reader.buffered(), bytes.size() - 7);
}

TEST(Wire, BadMagicVersionFlagsTypePoisonTheStream) {
  struct Case {
    const char* name;
    std::vector<std::uint8_t> h;
  };
  const std::vector<Case> cases = {
      {"magic", header(0x12345678u, kVersion, 4, 0, 0)},
      {"version", header(kMagic, 9, 4, 0, 0)},
      {"flags", header(kMagic, kVersion, 4, 0xffff, 0)},
      {"type_zero", header(kMagic, kVersion, 0, 0, 0)},
      {"type_high", header(kMagic, kVersion, 200, 0, 0)},
  };
  for (const Case& c : cases) {
    FrameReader reader;
    reader.feed(c.h.data(), c.h.size());
    EXPECT_TRUE(reader.corrupt()) << c.name;
    Frame f;
    EXPECT_FALSE(reader.next(&f)) << c.name;
    // A poisoned stream drops everything that follows.
    const std::vector<std::uint8_t> good = encode_ping(1);
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next(&f)) << c.name;
    EXPECT_EQ(reader.buffered(), 0u) << c.name;
  }
}

TEST(Wire, OversizedLengthRejectedBeforeAllocation) {
  // Length prefix far beyond the cap: the reader must poison the
  // stream at header validation and buffer nothing — the claimed
  // 4 GiB is never allocated.
  const std::vector<std::uint8_t> h =
      header(kMagic, kVersion, 4, 0, 0xffffff00u);
  FrameReader reader;
  reader.feed(h.data(), h.size());
  EXPECT_TRUE(reader.corrupt());
  EXPECT_EQ(reader.buffered(), 0u);

  // One past the configured cap fails the same way.
  FrameReader tight(/*max_payload=*/1024);
  const std::vector<std::uint8_t> h2 = header(kMagic, kVersion, 4, 0, 1025);
  tight.feed(h2.data(), h2.size());
  EXPECT_TRUE(tight.corrupt());

  // Exactly at the cap is legal (the frame just never completes here).
  FrameReader ok(/*max_payload=*/1024);
  const std::vector<std::uint8_t> h3 = header(kMagic, kVersion, 4, 0, 1024);
  ok.feed(h3.data(), h3.size());
  EXPECT_FALSE(ok.corrupt());
}

TEST(Wire, ArrayCountMustBeBackedByReceivedBytes) {
  // A syntactically valid frame whose rhs count claims more reals
  // than the payload holds: decode must fail without resizing to the
  // claimed count.
  SubmitFrame in;
  in.global_extent = {2, 2, 2};
  in.rhs_samples.assign(8, 1.0);
  std::vector<std::uint8_t> bytes = encode_submit(in);
  // The rhs count field sits 8 * 8 bytes before the end (8 samples);
  // bump it to a count the remaining bytes cannot possibly back.
  const std::size_t count_off = bytes.size() - 8 * sizeof(real_t) - 4;
  bytes[count_off] = 0xff;
  bytes[count_off + 1] = 0xff;
  bytes[count_off + 2] = 0xff;
  bytes[count_off + 3] = 0x0f;
  Frame f;
  f.payload.assign(bytes.begin() + 12, bytes.end());
  SubmitFrame out;
  std::string err;
  EXPECT_FALSE(decode_submit(f.payload, &out, &err));
  EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(Wire, DecodeValidatesSemanticFields) {
  SubmitFrame good;
  good.global_extent = {2, 2, 2};
  good.rhs_samples.assign(8, 0.0);
  std::string err;
  SubmitFrame out;

  const auto payload_of = [](const SubmitFrame& sf) {
    const std::vector<std::uint8_t> bytes = encode_submit(sf);
    return std::vector<std::uint8_t>(bytes.begin() + 12, bytes.end());
  };

  SubmitFrame bad = good;
  bad.rhs_samples.resize(5);  // count != volume
  EXPECT_FALSE(decode_submit(payload_of(bad), &out, &err));

  bad = good;
  bad.global_extent = {0, 2, 2};
  bad.rhs_samples.clear();
  EXPECT_FALSE(decode_submit(payload_of(bad), &out, &err));

  bad = good;
  bad.operator_id = "";
  EXPECT_FALSE(decode_submit(payload_of(bad), &out, &err));

  // A NaN or infinite sample can only produce a NaN solve, wherever it
  // sits.
  for (const real_t v : {std::numeric_limits<real_t>::quiet_NaN(),
                         std::numeric_limits<real_t>::infinity(),
                         -std::numeric_limits<real_t>::infinity()}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{7}}) {
      bad = good;
      bad.rhs_samples[at] = v;
      EXPECT_FALSE(decode_submit(payload_of(bad), &out, &err)) << v;
      EXPECT_NE(err.find("non-finite rhs sample"), std::string::npos) << err;
    }
  }

  // Extents are int32s off the wire; their 64-bit product can wrap to
  // the sample count the frame carries (2^64 -> 0, 2^65 + 8 -> 8).
  struct Wrap {
    Vec3 extent;
    std::size_t samples;
  };
  for (const Wrap& w : {Wrap{{1 << 22, 1 << 21, 1 << 21}, 0},
                        Wrap{{1 << 21, 1 << 22, 1 << 21}, 0},
                        Wrap{{1 << 21, 1 << 21, 1 << 22}, 0},
                        Wrap{{1979080, 384773, 48448661}, 8}}) {
    bad = good;
    bad.global_extent = w.extent;
    bad.rhs_samples.assign(w.samples, 1.0);
    EXPECT_FALSE(decode_submit(payload_of(bad), &out, &err)) << w.extent;
    EXPECT_NE(err.find("sample count"), std::string::npos) << err;
  }

  // Trailing bytes are a protocol violation.
  const std::vector<std::uint8_t> ping = encode_ping(1);
  std::vector<std::uint8_t> payload(ping.begin() + 12, ping.end());
  payload.push_back(0);
  std::uint64_t nonce = 0;
  EXPECT_FALSE(decode_nonce(payload, &nonce, &err));
}

TEST(Wire, RhsSamplingInvertsExactly) {
  const Vec3 extent{8, 4, 2};  // non-cubic: all axes share h = 1/x
  const auto f = [](real_t x, real_t y, real_t z) {
    return std::sin(13.0 * x) + 7.0 * y * y - z / 3.0;
  };
  const std::vector<real_t> samples = sample_rhs(extent, f);
  ASSERT_EQ(samples.size(), static_cast<std::size_t>(extent.volume()));

  const auto g = rhs_from_samples(
      extent, std::make_shared<const std::vector<real_t>>(samples));
  const real_t h = 1.0 / static_cast<real_t>(extent.x);
  std::size_t idx = 0;
  for (index_t k = 0; k < extent.z; ++k) {
    for (index_t j = 0; j < extent.y; ++j) {
      for (index_t i = 0; i < extent.x; ++i, ++idx) {
        const real_t px = (static_cast<real_t>(i) + 0.5) * h;
        const real_t py = (static_cast<real_t>(j) + 0.5) * h;
        const real_t pz = (static_cast<real_t>(k) + 0.5) * h;
        EXPECT_TRUE(same_bits(g(px, py, pz), samples[idx]))
            << i << "," << j << "," << k;
        EXPECT_TRUE(same_bits(g(px, py, pz), f(px, py, pz)));
      }
    }
  }
}

}  // namespace
}  // namespace gmg::front::wire

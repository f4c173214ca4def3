// Wire protocol for the socket-fronted serve tier (DESIGN.md §14).
//
// Length-prefixed binary frames over a byte stream (TCP or Unix
// domain socket). Every frame is a fixed 12-byte header followed by a
// typed payload:
//
//   offset  size  field
//        0     4  magic 0x31474D46 ("FMG1" on the wire)
//        4     1  version (kVersion)
//        5     1  frame type (FrameType)
//        6     2  flags, reserved, must be 0
//        8     4  payload length in bytes, <= kMaxPayloadBytes
//
// All multi-byte integers are little-endian, encoded/decoded byte by
// byte (the host's endianness never touches the wire); floating-point
// values travel as the IEEE-754 bit pattern of a real_t (f64) so a
// round trip is bitwise exact — the foundation of the front tier's
// "socket solve == direct submit" identity guarantee.
//
// Robustness contract (test_wire): malformed input — bad magic, bad
// version, nonzero reserved flags, an oversized length prefix, a
// truncated header or payload, a mid-frame disconnect — must never
// crash the decoder and must never cause an allocation proportional
// to an attacker-controlled length. FrameReader validates the header
// before buffering a payload, caps payload length *before* any
// allocation, and every payload decoder bounds-checks against bytes
// actually received (counts are cross-checked against the remaining
// payload, never trusted on their own).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gmg::front::wire {

inline constexpr std::uint32_t kMagic = 0x31474D46u;  // "FMG1" little-endian
// v2: ShardStatsEntry grew batch_solves/batch_requests (coalescer
// occupancy). Version mismatches poison the stream, so v1 peers must
// upgrade in lockstep — the protocol has no mixed-version mode.
inline constexpr std::uint8_t kVersion = 2;
inline constexpr std::size_t kHeaderBytes = 12;
/// Hard cap on a frame payload (64 MiB covers a 192^3 solution copy;
/// anything larger is rejected before allocation).
inline constexpr std::size_t kMaxPayloadBytes = std::size_t{1} << 26;
/// Cap on embedded strings (operator ids, error text).
inline constexpr std::size_t kMaxStringBytes = 4096;

enum class FrameType : std::uint8_t {
  kSubmit = 1,        // client -> server: solve request
  kResult = 2,        // server -> client: completed request
  kReject = 3,        // server -> client: refused request (fast path)
  kPing = 4,          // client -> server: liveness probe
  kPong = 5,          // server -> client: ping echo
  kStatsRequest = 6,  // client -> server: per-shard counters
  kStats = 7,         // server -> client: stats response
};
const char* frame_type_name(FrameType t);

/// Why a submit was refused without running. kOverload is the
/// load-shedder's fast rejection (REJECTED_OVERLOAD): the client
/// should back off, not retry immediately.
enum class RejectReason : std::uint16_t {
  kOverload = 1,         // admission control shed the request
  kShuttingDown = 2,     // server is draining
  kBadRequest = 3,       // malformed/inconsistent submit payload
  kUnknownOperator = 4,  // operator_id not registered
};
const char* reject_reason_name(RejectReason r);

/// A complete decoded frame: type plus raw payload bytes (decode with
/// the matching decode_* function).
struct Frame {
  FrameType type = FrameType::kPing;
  std::vector<std::uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Typed payloads.
// ---------------------------------------------------------------------------

/// Solve request. The RHS travels as samples at the finest-level cell
/// centers (x-fastest over global_extent) rather than as code: the
/// client evaluates its RHS function locally with sample_rhs(), and
/// the server reconstructs an equivalent coordinate function with
/// rhs_from_samples() — both sides see byte-identical inputs, so the
/// solve is bitwise identical to a direct in-process submit.
struct SubmitFrame {
  std::uint64_t request_id = 0;
  Vec3 global_extent{0, 0, 0};
  Vec3 rank_grid{1, 1, 1};
  std::string operator_id = "poisson";
  real_t tolerance = 1e-10;
  std::int32_t max_vcycles = 100;
  std::int32_t priority = 0;
  real_t deadline_seconds = 0;
  bool return_solution = false;
  /// One sample per global cell, x-fastest; size must equal
  /// global_extent.volume(), and every sample must be finite.
  std::vector<real_t> rhs_samples;
};

struct ResultFrame {
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  // serve::RequestStatus
  bool cache_hit = false;
  bool converged = false;
  std::int32_t vcycles = 0;
  real_t final_residual = 0;
  double queue_seconds = 0;
  double setup_seconds = 0;
  double solve_seconds = 0;
  double total_seconds = 0;
  std::vector<real_t> solution;  // empty unless requested and done
  std::string error;
};

struct RejectFrame {
  std::uint64_t request_id = 0;
  RejectReason reason = RejectReason::kOverload;
  std::string detail;
};

/// Per-shard counters for the kStats response (admission + service,
/// flattened for the wire).
struct ShardStatsEntry {
  std::uint32_t shard_id = 0;
  std::uint64_t accepted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t expired = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed_overload = 0;  // admission fast rejections
  std::uint64_t spilled_in = 0;     // placed here off the ring shard
  std::uint64_t queue_depth = 0;
  std::uint64_t inflight = 0;
  /// Coalescer occupancy (v2): batched solve invocations and the
  /// requests they carried; requests/solves = mean batch size.
  std::uint64_t batch_solves = 0;
  std::uint64_t batch_requests = 0;
  double inflight_cost = 0;
  double cache_hit_ratio = 0;
};

struct StatsFrame {
  std::vector<ShardStatsEntry> shards;
};

// ---------------------------------------------------------------------------
// Encoding: each returns one complete frame (header + payload).
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_submit(const SubmitFrame& f);
std::vector<std::uint8_t> encode_result(const ResultFrame& f);
std::vector<std::uint8_t> encode_reject(const RejectFrame& f);
std::vector<std::uint8_t> encode_ping(std::uint64_t nonce);
std::vector<std::uint8_t> encode_pong(std::uint64_t nonce);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats(const StatsFrame& f);

// ---------------------------------------------------------------------------
// Decoding: false = malformed payload (error filled in, output
// partially written but not to be used). Never throws, never
// allocates from an unvalidated length.
// ---------------------------------------------------------------------------

bool decode_submit(const std::vector<std::uint8_t>& payload, SubmitFrame* out,
                   std::string* error);
bool decode_result(const std::vector<std::uint8_t>& payload, ResultFrame* out,
                   std::string* error);
bool decode_reject(const std::vector<std::uint8_t>& payload, RejectFrame* out,
                   std::string* error);
bool decode_nonce(const std::vector<std::uint8_t>& payload,
                  std::uint64_t* nonce, std::string* error);
bool decode_stats(const std::vector<std::uint8_t>& payload, StatsFrame* out,
                  std::string* error);

// ---------------------------------------------------------------------------
// Incremental frame extraction from a byte stream.
// ---------------------------------------------------------------------------

/// Per-connection framing state machine: feed() raw received bytes,
/// pop complete frames with next(). A header that fails validation
/// (bad magic/version/flags, oversized length) poisons the stream —
/// corrupt() turns true, further bytes are dropped, and the caller
/// should close the connection. Buffered memory is bounded by one
/// valid header plus its validated payload length.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  void feed(const std::uint8_t* data, std::size_t n);

  /// Extract the next complete frame; false when none is buffered yet
  /// or the stream is corrupt.
  bool next(Frame* out);

  bool corrupt() const { return corrupt_; }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed (mid-frame on a clean
  /// stream: a disconnect now is a truncated frame, which simply
  /// never completes).
  std::size_t buffered() const { return buf_.size(); }

 private:
  void poison(const std::string& why);

  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  bool corrupt_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// Sampled-RHS helpers (the bitwise-identity bridge to GmgSolver).
// ---------------------------------------------------------------------------

/// Evaluate `f` at every finest-level cell center of `extent` in
/// canonical x-fastest order — coordinate-for-coordinate exactly how
/// GmgSolver::set_rhs evaluates its RHS (px = (gi + 0.5) * h with
/// h = 1 / extent.x, all three axes sharing h).
std::vector<real_t> sample_rhs(
    Vec3 extent, const std::function<real_t(real_t, real_t, real_t)>& f);

/// Wrap samples (x-fastest over `extent`) back into the coordinate
/// function set_rhs expects, inverting the cell-center mapping. The
/// samples vector is shared so the returned function stays valid
/// after the frame is gone.
std::function<real_t(real_t, real_t, real_t)> rhs_from_samples(
    Vec3 extent, std::shared_ptr<const std::vector<real_t>> samples);

}  // namespace gmg::front::wire

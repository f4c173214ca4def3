#include "front/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace gmg::front::wire {

const char* frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::kSubmit:
      return "submit";
    case FrameType::kResult:
      return "result";
    case FrameType::kReject:
      return "reject";
    case FrameType::kPing:
      return "ping";
    case FrameType::kPong:
      return "pong";
    case FrameType::kStatsRequest:
      return "stats_request";
    case FrameType::kStats:
      return "stats";
  }
  return "unknown";
}

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kOverload:
      return "overload";
    case RejectReason::kShuttingDown:
      return "shutting_down";
    case RejectReason::kBadRequest:
      return "bad_request";
    case RejectReason::kUnknownOperator:
      return "unknown_operator";
  }
  return "unknown";
}

namespace {

bool valid_frame_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kSubmit) &&
         t <= static_cast<std::uint8_t>(FrameType::kStats);
}

/// Little-endian payload builder. Appends to a byte vector that
/// starts with a placeholder header; seal() patches the length in.
class Writer {
 public:
  explicit Writer(FrameType type) {
    buf_.reserve(64);
    put_u32(kMagic);
    put_u8(kVersion);
    put_u8(static_cast<std::uint8_t>(type));
    put_u16(0);  // reserved flags
    put_u32(0);  // payload length, patched by seal()
  }

  void put_u8(std::uint8_t v) { buf_.push_back(v); }
  void put_u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  void put_string(const std::string& s) {
    GMG_REQUIRE(s.size() <= kMaxStringBytes, "wire string too long");
    put_u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void put_reals(const std::vector<real_t>& v) {
    GMG_REQUIRE(v.size() <= kMaxPayloadBytes / sizeof(real_t),
                "wire real array too long");
    put_u32(static_cast<std::uint32_t>(v.size()));
    for (real_t x : v) put_f64(x);
  }

  std::vector<std::uint8_t> seal() {
    const std::size_t payload = buf_.size() - kHeaderBytes;
    GMG_REQUIRE(payload <= kMaxPayloadBytes, "wire frame over payload cap");
    const std::uint32_t len = static_cast<std::uint32_t>(payload);
    for (int i = 0; i < 4; ++i)
      buf_[8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(len >> (8 * i));
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian payload reader. Every get_* returns
/// false on underflow; nothing is allocated from a length that has
/// not been proven to fit in the bytes actually present.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}

  std::size_t remaining() const { return n_ - off_; }

  bool get_u8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = p_[off_++];
    return true;
  }
  bool get_u16(std::uint16_t* v) {
    if (remaining() < 2) return false;
    *v = static_cast<std::uint16_t>(p_[off_] |
                                    (static_cast<std::uint16_t>(p_[off_ + 1])
                                     << 8));
    off_ += 2;
    return true;
  }
  bool get_u32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    std::uint32_t r = 0;
    for (int i = 0; i < 4; ++i)
      r |= static_cast<std::uint32_t>(p_[off_ + static_cast<std::size_t>(i)])
           << (8 * i);
    off_ += 4;
    *v = r;
    return true;
  }
  bool get_u64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    std::uint64_t r = 0;
    for (int i = 0; i < 8; ++i)
      r |= static_cast<std::uint64_t>(p_[off_ + static_cast<std::size_t>(i)])
           << (8 * i);
    off_ += 8;
    *v = r;
    return true;
  }
  bool get_i32(std::int32_t* v) {
    std::uint32_t u = 0;
    if (!get_u32(&u)) return false;
    *v = static_cast<std::int32_t>(u);
    return true;
  }
  bool get_f64(double* v) {
    std::uint64_t u = 0;
    if (!get_u64(&u)) return false;
    *v = std::bit_cast<double>(u);
    return true;
  }
  bool get_string(std::string* s) {
    std::uint16_t len = 0;
    if (!get_u16(&len)) return false;
    if (len > kMaxStringBytes || remaining() < len) return false;
    s->assign(reinterpret_cast<const char*>(p_ + off_), len);
    off_ += len;
    return true;
  }
  bool get_reals(std::vector<real_t>* v) {
    std::uint32_t count = 0;
    if (!get_u32(&count)) return false;
    // The count must be backed by bytes already received — the
    // allocation below is bounded by the frame's validated payload
    // length, never by the count alone.
    if (remaining() / sizeof(real_t) < count) return false;
    v->resize(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      double x = 0;
      get_f64(&x);  // cannot fail: remaining() was checked above
      (*v)[i] = x;
    }
    return true;
  }

 private:
  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t off_ = 0;
};

bool fail(std::string* error, const char* why) {
  if (error) *error = why;
  return false;
}

}  // namespace

std::vector<std::uint8_t> encode_submit(const SubmitFrame& f) {
  Writer w(FrameType::kSubmit);
  w.put_u64(f.request_id);
  w.put_i32(static_cast<std::int32_t>(f.global_extent.x));
  w.put_i32(static_cast<std::int32_t>(f.global_extent.y));
  w.put_i32(static_cast<std::int32_t>(f.global_extent.z));
  w.put_i32(static_cast<std::int32_t>(f.rank_grid.x));
  w.put_i32(static_cast<std::int32_t>(f.rank_grid.y));
  w.put_i32(static_cast<std::int32_t>(f.rank_grid.z));
  w.put_f64(f.tolerance);
  w.put_i32(f.max_vcycles);
  w.put_i32(f.priority);
  w.put_f64(f.deadline_seconds);
  w.put_u8(f.return_solution ? 1 : 0);
  w.put_string(f.operator_id);
  w.put_reals(f.rhs_samples);
  return w.seal();
}

std::vector<std::uint8_t> encode_result(const ResultFrame& f) {
  Writer w(FrameType::kResult);
  w.put_u64(f.request_id);
  w.put_u8(f.status);
  w.put_u8(f.cache_hit ? 1 : 0);
  w.put_u8(f.converged ? 1 : 0);
  w.put_i32(f.vcycles);
  w.put_f64(f.final_residual);
  w.put_f64(f.queue_seconds);
  w.put_f64(f.setup_seconds);
  w.put_f64(f.solve_seconds);
  w.put_f64(f.total_seconds);
  w.put_string(f.error);
  w.put_reals(f.solution);
  return w.seal();
}

std::vector<std::uint8_t> encode_reject(const RejectFrame& f) {
  Writer w(FrameType::kReject);
  w.put_u64(f.request_id);
  w.put_u16(static_cast<std::uint16_t>(f.reason));
  w.put_string(f.detail);
  return w.seal();
}

std::vector<std::uint8_t> encode_ping(std::uint64_t nonce) {
  Writer w(FrameType::kPing);
  w.put_u64(nonce);
  return w.seal();
}

std::vector<std::uint8_t> encode_pong(std::uint64_t nonce) {
  Writer w(FrameType::kPong);
  w.put_u64(nonce);
  return w.seal();
}

std::vector<std::uint8_t> encode_stats_request() {
  Writer w(FrameType::kStatsRequest);
  return w.seal();
}

std::vector<std::uint8_t> encode_stats(const StatsFrame& f) {
  Writer w(FrameType::kStats);
  w.put_u32(static_cast<std::uint32_t>(f.shards.size()));
  for (const ShardStatsEntry& s : f.shards) {
    w.put_u32(s.shard_id);
    w.put_u64(s.accepted);
    w.put_u64(s.completed);
    w.put_u64(s.cancelled);
    w.put_u64(s.expired);
    w.put_u64(s.rejected);
    w.put_u64(s.failed);
    w.put_u64(s.shed_overload);
    w.put_u64(s.spilled_in);
    w.put_u64(s.queue_depth);
    w.put_u64(s.inflight);
    w.put_u64(s.batch_solves);
    w.put_u64(s.batch_requests);
    w.put_f64(s.inflight_cost);
    w.put_f64(s.cache_hit_ratio);
  }
  return w.seal();
}

bool decode_submit(const std::vector<std::uint8_t>& payload, SubmitFrame* out,
                   std::string* error) {
  Cursor c(payload.data(), payload.size());
  std::int32_t gx = 0, gy = 0, gz = 0, rx = 0, ry = 0, rz = 0;
  std::uint8_t flags = 0;
  if (!c.get_u64(&out->request_id) || !c.get_i32(&gx) || !c.get_i32(&gy) ||
      !c.get_i32(&gz) || !c.get_i32(&rx) || !c.get_i32(&ry) ||
      !c.get_i32(&rz) || !c.get_f64(&out->tolerance) ||
      !c.get_i32(&out->max_vcycles) || !c.get_i32(&out->priority) ||
      !c.get_f64(&out->deadline_seconds) || !c.get_u8(&flags) ||
      !c.get_string(&out->operator_id) || !c.get_reals(&out->rhs_samples)) {
    return fail(error, "truncated submit payload");
  }
  if (c.remaining() != 0) return fail(error, "trailing bytes after submit");
  out->global_extent = {gx, gy, gz};
  out->rank_grid = {rx, ry, rz};
  out->return_solution = (flags & 1) != 0;
  if (gx <= 0 || gy <= 0 || gz <= 0 || rx <= 0 || ry <= 0 || rz <= 0)
    return fail(error, "non-positive extent or rank grid");
  if (out->operator_id.empty()) return fail(error, "empty operator id");
  const index_t samples = static_cast<index_t>(out->rhs_samples.size());
  if (!out->global_extent.volume_at_most(samples) ||
      out->global_extent.volume() != samples)
    return fail(error, "rhs sample count does not match global extent");
  // A NaN or Inf sample can only yield a NaN solve: refuse it here.
  for (const real_t v : out->rhs_samples) {
    if (!std::isfinite(v)) return fail(error, "non-finite rhs sample");
  }
  if (!(out->tolerance >= 0) || !std::isfinite(out->tolerance))
    return fail(error, "bad tolerance");
  if (out->max_vcycles <= 0) return fail(error, "non-positive max_vcycles");
  if (!std::isfinite(out->deadline_seconds) || out->deadline_seconds < 0)
    return fail(error, "bad deadline");
  return true;
}

bool decode_result(const std::vector<std::uint8_t>& payload, ResultFrame* out,
                   std::string* error) {
  Cursor c(payload.data(), payload.size());
  std::uint8_t cache_hit = 0, converged = 0;
  if (!c.get_u64(&out->request_id) || !c.get_u8(&out->status) ||
      !c.get_u8(&cache_hit) || !c.get_u8(&converged) ||
      !c.get_i32(&out->vcycles) || !c.get_f64(&out->final_residual) ||
      !c.get_f64(&out->queue_seconds) || !c.get_f64(&out->setup_seconds) ||
      !c.get_f64(&out->solve_seconds) || !c.get_f64(&out->total_seconds) ||
      !c.get_string(&out->error) || !c.get_reals(&out->solution)) {
    return fail(error, "truncated result payload");
  }
  if (c.remaining() != 0) return fail(error, "trailing bytes after result");
  out->cache_hit = cache_hit != 0;
  out->converged = converged != 0;
  return true;
}

bool decode_reject(const std::vector<std::uint8_t>& payload, RejectFrame* out,
                   std::string* error) {
  Cursor c(payload.data(), payload.size());
  std::uint16_t reason = 0;
  if (!c.get_u64(&out->request_id) || !c.get_u16(&reason) ||
      !c.get_string(&out->detail)) {
    return fail(error, "truncated reject payload");
  }
  if (c.remaining() != 0) return fail(error, "trailing bytes after reject");
  if (reason < static_cast<std::uint16_t>(RejectReason::kOverload) ||
      reason > static_cast<std::uint16_t>(RejectReason::kUnknownOperator))
    return fail(error, "unknown reject reason");
  out->reason = static_cast<RejectReason>(reason);
  return true;
}

bool decode_nonce(const std::vector<std::uint8_t>& payload,
                  std::uint64_t* nonce, std::string* error) {
  Cursor c(payload.data(), payload.size());
  if (!c.get_u64(nonce)) return fail(error, "truncated ping payload");
  if (c.remaining() != 0) return fail(error, "trailing bytes after ping");
  return true;
}

bool decode_stats(const std::vector<std::uint8_t>& payload, StatsFrame* out,
                  std::string* error) {
  Cursor c(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!c.get_u32(&count)) return fail(error, "truncated stats payload");
  // 116 bytes per entry; reject counts the payload cannot back before
  // reserving anything.
  if (c.remaining() / 116 < count)
    return fail(error, "stats shard count exceeds payload");
  out->shards.clear();
  out->shards.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ShardStatsEntry s;
    if (!c.get_u32(&s.shard_id) || !c.get_u64(&s.accepted) ||
        !c.get_u64(&s.completed) || !c.get_u64(&s.cancelled) ||
        !c.get_u64(&s.expired) || !c.get_u64(&s.rejected) ||
        !c.get_u64(&s.failed) || !c.get_u64(&s.shed_overload) ||
        !c.get_u64(&s.spilled_in) || !c.get_u64(&s.queue_depth) ||
        !c.get_u64(&s.inflight) || !c.get_u64(&s.batch_solves) ||
        !c.get_u64(&s.batch_requests) || !c.get_f64(&s.inflight_cost) ||
        !c.get_f64(&s.cache_hit_ratio)) {
      return fail(error, "truncated stats entry");
    }
    out->shards.push_back(s);
  }
  if (c.remaining() != 0) return fail(error, "trailing bytes after stats");
  return true;
}

void FrameReader::poison(const std::string& why) {
  corrupt_ = true;
  error_ = why;
  buf_.clear();
  buf_.shrink_to_fit();
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (corrupt_) return;  // stream is dead; drop everything
  buf_.insert(buf_.end(), data, data + n);
  // Validate the header as soon as it is complete so a garbage or
  // oversized length prefix can never grow the buffer: after this
  // check the buffer is bounded by kHeaderBytes + validated length.
  if (buf_.size() >= kHeaderBytes) {
    std::uint32_t magic = 0, len = 0;
    std::uint16_t flags = 0;
    Cursor c(buf_.data(), kHeaderBytes);
    c.get_u32(&magic);
    std::uint8_t version = 0, type = 0;
    c.get_u8(&version);
    c.get_u8(&type);
    c.get_u16(&flags);
    c.get_u32(&len);
    if (magic != kMagic) return poison("bad magic");
    if (version != kVersion) return poison("bad version");
    if (flags != 0) return poison("nonzero reserved flags");
    if (!valid_frame_type(type)) return poison("unknown frame type");
    if (len > max_payload_) return poison("oversized frame length");
  }
}

bool FrameReader::next(Frame* out) {
  if (corrupt_ || buf_.size() < kHeaderBytes) return false;
  std::uint32_t len = 0;
  {
    Cursor c(buf_.data() + 8, 4);
    c.get_u32(&len);
  }
  const std::size_t total = kHeaderBytes + len;
  if (buf_.size() < total) return false;  // mid-frame; wait for more
  out->type = static_cast<FrameType>(buf_[5]);
  out->payload.assign(buf_.begin() + kHeaderBytes, buf_.begin() + total);
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
  // Re-validate the header now at the front of the buffer (feed()
  // only checks the first header after each append).
  if (buf_.size() >= kHeaderBytes) {
    std::vector<std::uint8_t> rest;
    rest.swap(buf_);
    feed(rest.data(), rest.size());
  }
  return true;
}

std::vector<real_t> sample_rhs(
    Vec3 extent, const std::function<real_t(real_t, real_t, real_t)>& f) {
  GMG_REQUIRE(extent.x > 0 && extent.y > 0 && extent.z > 0,
              "sample_rhs: non-positive extent");
  // Exactly GmgSolver::set_rhs's coordinate expressions: one h for
  // all axes, cell centers at (index + 0.5) * h.
  const real_t h = 1.0 / static_cast<real_t>(extent.x);
  std::vector<real_t> samples;
  samples.reserve(static_cast<std::size_t>(extent.volume()));
  for (index_t k = 0; k < extent.z; ++k) {
    for (index_t j = 0; j < extent.y; ++j) {
      for (index_t i = 0; i < extent.x; ++i) {
        const real_t px = (static_cast<real_t>(i) + 0.5) * h;
        const real_t py = (static_cast<real_t>(j) + 0.5) * h;
        const real_t pz = (static_cast<real_t>(k) + 0.5) * h;
        samples.push_back(f(px, py, pz));
      }
    }
  }
  return samples;
}

std::function<real_t(real_t, real_t, real_t)> rhs_from_samples(
    Vec3 extent, std::shared_ptr<const std::vector<real_t>> samples) {
  GMG_REQUIRE(samples != nullptr &&
                  samples->size() ==
                      static_cast<std::size_t>(extent.volume()),
              "rhs_from_samples: sample count != extent volume");
  // Invert px = (gi + 0.5) * h, h = 1/extent.x (shared by all axes):
  // px * extent.x lands within an ulp of gi + 0.5, so rounding
  // px * extent.x - 0.5 to the nearest integer recovers gi exactly.
  const real_t nx = static_cast<real_t>(extent.x);
  return [extent, nx, samples = std::move(samples)](real_t px, real_t py,
                                                    real_t pz) -> real_t {
    const index_t i = static_cast<index_t>(std::llround(px * nx - 0.5));
    const index_t j = static_cast<index_t>(std::llround(py * nx - 0.5));
    const index_t k = static_cast<index_t>(std::llround(pz * nx - 0.5));
    GMG_REQUIRE(i >= 0 && i < extent.x && j >= 0 && j < extent.y && k >= 0 &&
                    k < extent.z,
                "rhs_from_samples: coordinate outside the sampled domain");
    return (*samples)[static_cast<std::size_t>(
        i + extent.x * (j + extent.y * k))];
  };
}

}  // namespace gmg::front::wire

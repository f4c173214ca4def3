#include "comm/exchange.hpp"

#include <cstring>

#include "check/shadow.hpp"
#include "trace/trace.hpp"

namespace gmg::comm {

namespace {
/// Tags: the sender tags a message with its own outgoing direction, so
/// the receiver posts opposite(dir). kPerBrick appends a per-brick
/// sequence number.
constexpr int kPerBrickTagStride = 64;
int per_brick_tag(int dir, int seq) { return dir + kPerBrickTagStride * (seq + 1); }

/// PatchExchange tags live in their own band, disjoint from both the
/// plain direction tags (0..26) and every per-brick tag
/// (dir + 64*(seq+1)): an AMR patch message can never match a
/// BrickExchange message of the parent level.
constexpr int kPatchTagBase = 1 << 20;
}  // namespace

BrickExchange::BrickExchange(std::shared_ptr<const BrickGrid> grid,
                             BrickShape shape, const CartDecomp& decomp,
                             int rank, BrickExchangeMode mode)
    : grid_(std::move(grid)), shape_(shape), rank_(rank), mode_(mode) {
  GMG_REQUIRE(grid_ != nullptr, "null brick grid");
  for (int d = 0; d < 3; ++d) {
    GMG_REQUIRE(!grid_->wraps(d) || decomp.rank_grid()[d] == 1,
                "a brick grid may wrap only axes with one rank");
  }
  // Only the stored ghost groups move: on a wrapped axis the ghost
  // coordinates alias owned bricks, so there is nothing to fill.
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection || !grid_->stores_group(dir)) continue;
    DirectionPlan plan;
    plan.dir = dir;
    plan.neighbor = decomp.neighbor(rank, dir);
    plan.self = (plan.neighbor == rank);
    plan.recv_range = grid_->ghost_range(dir);
    // Self-copies source from the surface facing the *opposite* side
    // (periodic wrap); remote sends carry the surface facing `dir`.
    const Box src_box =
        plan.self ? grid_->surface_box(opposite_direction(dir))
                  : grid_->surface_box(dir);
    plan.send_runs = grid_->segments_of(src_box);

    const std::uint64_t bytes =
        static_cast<std::uint64_t>(plan.recv_range.count) *
        static_cast<std::uint64_t>(shape_.volume()) * kRealBytes;
    bytes_per_exchange_ += bytes;
    if (!plan.self) {
      remote_bytes_ += bytes;
      ++remote_neighbors_;
    }
    plans_.push_back(std::move(plan));
  }
  send_staging_.resize(plans_.size());
  recv_staging_.resize(plans_.size());
}

void BrickExchange::exchange(Communicator& comm, BrickedArray& field) {
  std::vector<BrickedArray*> one{&field};
  exchange(comm, one);
}

void BrickExchange::exchange(Communicator& comm,
                             std::vector<BrickedArray*> fields) {
  GMG_REQUIRE(!fields.empty(), "no fields to exchange");
  for (BrickedArray* f : fields) {
    GMG_REQUIRE(f->grid_ptr().get() == grid_.get(),
                "field does not share this engine's brick grid");
  }
  const std::size_t vol = static_cast<std::size_t>(shape_.volume());
  const std::size_t brick_bytes = vol * kRealBytes;

  trace::counter_add("exchange.bytes",
                     bytes_per_exchange_ * fields.size());
  trace::counter_add("exchange.remote_bytes", remote_bytes_ * fields.size());
  trace::counter_add("exchange.calls", 1);

  std::vector<Request>& requests = requests_;
  requests.clear();
  requests.reserve(plans_.size() * 2 * fields.size());

  // Post all receives first (the usual MPI_IRecv-before-ISend pattern).
  {
    trace::TraceSpan span("exchange.recv_post", trace::Category::kComm);
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) continue;
      const int tag = opposite_direction(plan.dir);
      switch (mode_) {
        case BrickExchangeMode::kPackFree: {
          std::vector<Segment> segs;
          segs.reserve(fields.size());
          for (BrickedArray* f : fields) {
            segs.push_back(Segment{
                f->brick(plan.recv_range.first),
                static_cast<std::size_t>(plan.recv_range.count) *
                    brick_bytes});
          }
          requests.push_back(comm.irecvv(std::move(segs), plan.neighbor, tag));
          break;
        }
        case BrickExchangeMode::kPacked: {
          const std::size_t n =
              static_cast<std::size_t>(plan.recv_range.count) * vol *
              fields.size();
          if (recv_staging_[p].size() < n) recv_staging_[p].reset(n, false);
          requests.push_back(comm.irecv(recv_staging_[p].data(),
                                        n * kRealBytes, plan.neighbor, tag));
          break;
        }
        case BrickExchangeMode::kPerBrick: {
          int seq = 0;
          for (BrickedArray* f : fields) {
            for (std::int32_t b = 0; b < plan.recv_range.count; ++b) {
              requests.push_back(
                  comm.irecv(f->brick(plan.recv_range.first + b), brick_bytes,
                             plan.neighbor, per_brick_tag(tag, seq++)));
            }
          }
          break;
        }
      }
    }
  }

  // Pack: local periodic copies (all modes), staging-buffer gathers
  // (kPacked), and the scatter/gather segment lists (kPackFree — no
  // data motion, just descriptors: the packing-free claim).
  std::vector<std::vector<ConstSegment>> send_segs(plans_.size());
  {
    trace::TraceSpan span("exchange.pack", trace::Category::kComm);
    std::uint64_t packed_bytes = 0;
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) {
        // Periodic wrap onto ourselves: copy surface bricks into our
        // own ghost range, in matching lexicographic order.
        for (BrickedArray* f : fields) {
          std::int32_t dst = plan.recv_range.first;
          for (const BrickRange& run : plan.send_runs) {
            std::memcpy(f->brick(dst), f->brick(run.first),
                        static_cast<std::size_t>(run.count) * brick_bytes);
            dst += run.count;
          }
        }
        continue;
      }
      switch (mode_) {
        case BrickExchangeMode::kPackFree: {
          std::vector<ConstSegment>& segs = send_segs[p];
          for (BrickedArray* f : fields) {
            for (const BrickRange& run : plan.send_runs) {
              segs.emplace_back(
                  f->brick(run.first),
                  static_cast<std::size_t>(run.count) * brick_bytes);
            }
          }
          break;
        }
        case BrickExchangeMode::kPacked: {
          std::size_t total = 0;
          for (const BrickRange& run : plan.send_runs)
            total += static_cast<std::size_t>(run.count) * vol;
          total *= fields.size();
          if (send_staging_[p].size() < total)
            send_staging_[p].reset(total, false);
          real_t* dst = send_staging_[p].data();
          for (BrickedArray* f : fields) {
            for (const BrickRange& run : plan.send_runs) {
              std::memcpy(dst, f->brick(run.first),
                          static_cast<std::size_t>(run.count) * brick_bytes);
              dst += static_cast<std::size_t>(run.count) * vol;
            }
          }
          packed_bytes += total * kRealBytes;
          break;
        }
        case BrickExchangeMode::kPerBrick:
          break;  // sends straight from brick storage
      }
    }
    if (packed_bytes) trace::counter_add("exchange.bytes_packed", packed_bytes);
  }

  // Send.
  {
    trace::TraceSpan span("exchange.send", trace::Category::kComm);
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) continue;
      const int tag = plan.dir;
      switch (mode_) {
        case BrickExchangeMode::kPackFree:
          requests.push_back(
              comm.isendv(std::move(send_segs[p]), plan.neighbor, tag));
          break;
        case BrickExchangeMode::kPacked: {
          std::size_t total = 0;
          for (const BrickRange& run : plan.send_runs)
            total += static_cast<std::size_t>(run.count) * vol;
          total *= fields.size();
          requests.push_back(comm.isend(send_staging_[p].data(),
                                        total * kRealBytes, plan.neighbor,
                                        tag));
          break;
        }
        case BrickExchangeMode::kPerBrick: {
          int seq = 0;
          for (BrickedArray* f : fields) {
            for (const BrickRange& run : plan.send_runs) {
              for (std::int32_t b = 0; b < run.count; ++b) {
                requests.push_back(comm.isend(f->brick(run.first + b),
                                              brick_bytes, plan.neighbor,
                                              per_brick_tag(tag, seq++)));
              }
            }
          }
          break;
        }
      }
    }
  }

  // Hazard tracking: the receive ghost ranges of every field are in
  // flight until the wait below returns. Sends need no marking —
  // kPackFree buffers them inside isendv at post time, kPacked stages
  // them above, and self-copies completed synchronously in the pack
  // phase.
  if (check::enabled()) {
    std::vector<BrickRange> ghost;
    for (const DirectionPlan& plan : plans_) {
      if (!plan.self) ghost.push_back(plan.recv_range);
    }
    for (BrickedArray* f : fields) {
      check::on_receives_posted(f->data(), grid_.get(), ghost);
    }
  }

  {
    trace::TraceSpan span("exchange.wait", trace::Category::kWait);
    comm.wait_all(requests);
  }
  requests.clear();

  // kPacked: unpack staged receives into the ghost ranges.
  if (mode_ == BrickExchangeMode::kPacked) {
    trace::TraceSpan span("exchange.unpack", trace::Category::kComm);
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) continue;
      const real_t* src = recv_staging_[p].data();
      for (BrickedArray* f : fields) {
        std::memcpy(f->brick(plan.recv_range.first), src,
                    static_cast<std::size_t>(plan.recv_range.count) *
                        brick_bytes);
        src += static_cast<std::size_t>(plan.recv_range.count) * vol;
      }
    }
  }
  if (check::enabled()) {
    for (BrickedArray* f : fields) check::on_receives_done(f->data());
  }
}

// ---------------------------------------------------------------------------
// PatchExchange
// ---------------------------------------------------------------------------

PatchExchange::PatchExchange(std::shared_ptr<const BrickGrid> grid,
                             BrickShape shape, const Box& patch,
                             const Box& part, const CartDecomp& decomp,
                             int rank)
    : grid_(std::move(grid)), shape_(shape), rank_(rank) {
  if (part.empty()) {
    GMG_REQUIRE(grid_ == nullptr, "empty part must carry no brick grid");
    return;  // this rank owns no patch bricks; nothing to exchange
  }
  GMG_REQUIRE(grid_ != nullptr, "null patch brick grid");
  GMG_REQUIRE(patch.covers(part), "part must lie within the global patch");

  // Only the 6 face directions: the radius-1 patch smoother never
  // reads edge/corner ghost bricks, so those groups stay untouched.
  for (int axis = 0; axis < 3; ++axis) {
    for (int side = -1; side <= 1; side += 2) {
      int off[3] = {0, 0, 0};
      off[axis] = side;
      const int dir = direction_index(off[0], off[1], off[2]);
      const Box ghost = ghost_region(part, dir, 1);
      const Box inside = intersect(ghost, patch);
      if (inside.empty()) continue;  // patch boundary: prolonged ghosts
      GMG_REQUIRE(inside == ghost,
                  "patch part face must be entirely interior to the patch or "
                  "entirely on its boundary");
      DirectionPlan plan;
      plan.dir = dir;
      plan.neighbor = decomp.neighbor(rank, dir);
      GMG_REQUIRE(plan.neighbor != rank,
                  "a fine-filled patch face cannot wrap onto its own rank");
      plan.send_runs = grid_->segments_of(grid_->surface_box(dir));
      plan.recv_range = grid_->ghost_range(dir);
      bytes_per_exchange_ += static_cast<std::uint64_t>(plan.recv_range.count) *
                             static_cast<std::uint64_t>(shape_.volume()) *
                             kRealBytes;
      plans_.push_back(std::move(plan));
    }
  }
}

bool PatchExchange::is_fine_filled(int dir) const {
  for (const DirectionPlan& plan : plans_) {
    if (plan.dir == dir) return true;
  }
  return false;
}

void PatchExchange::exchange(Communicator& comm, BrickedArray& field) {
  std::vector<BrickedArray*> one{&field};
  exchange(comm, one);
}

void PatchExchange::exchange(Communicator& comm,
                             std::vector<BrickedArray*> fields) {
  if (plans_.empty()) return;  // bilateral: nobody is sending to us either
  GMG_REQUIRE(!fields.empty(), "no fields to exchange");
  for (BrickedArray* f : fields) {
    GMG_REQUIRE(f->grid_ptr().get() == grid_.get(),
                "field does not share this engine's patch brick grid");
  }
  const std::size_t brick_bytes =
      static_cast<std::size_t>(shape_.volume()) * kRealBytes;

  trace::counter_add("exchange.bytes", bytes_per_exchange_ * fields.size());
  trace::counter_add("exchange.remote_bytes",
                     bytes_per_exchange_ * fields.size());
  trace::counter_add("exchange.calls", 1);

  std::vector<Request> requests;
  requests.reserve(plans_.size() * 2);
  {
    trace::TraceSpan span("exchange.recv_post", trace::Category::kComm);
    for (const DirectionPlan& plan : plans_) {
      const int tag = kPatchTagBase + opposite_direction(plan.dir);
      std::vector<Segment> segs;
      segs.reserve(fields.size());
      for (BrickedArray* f : fields) {
        segs.push_back(Segment{
            f->brick(plan.recv_range.first),
            static_cast<std::size_t>(plan.recv_range.count) * brick_bytes});
      }
      requests.push_back(comm.irecvv(std::move(segs), plan.neighbor, tag));
    }
  }
  {
    trace::TraceSpan span("exchange.send", trace::Category::kComm);
    for (const DirectionPlan& plan : plans_) {
      std::vector<ConstSegment> segs;
      for (BrickedArray* f : fields) {
        for (const BrickRange& run : plan.send_runs) {
          segs.emplace_back(f->brick(run.first),
                            static_cast<std::size_t>(run.count) * brick_bytes);
        }
      }
      requests.push_back(
          comm.isendv(std::move(segs), plan.neighbor, kPatchTagBase + plan.dir));
    }
  }
  if (check::enabled()) {
    std::vector<BrickRange> ghost;
    for (const DirectionPlan& plan : plans_) ghost.push_back(plan.recv_range);
    for (BrickedArray* f : fields) {
      check::on_receives_posted(f->data(), grid_.get(), ghost);
    }
  }
  {
    trace::TraceSpan span("exchange.wait", trace::Category::kWait);
    comm.wait_all(requests);
  }
  if (check::enabled()) {
    for (BrickedArray* f : fields) check::on_receives_done(f->data());
  }
}

// ---------------------------------------------------------------------------
// ArrayExchange
// ---------------------------------------------------------------------------

ArrayExchange::ArrayExchange(Vec3 subdomain_extent, index_t ghost_depth,
                             const CartDecomp& decomp, int rank)
    : extent_(subdomain_extent), ghost_(ghost_depth), rank_(rank) {
  GMG_REQUIRE(ghost_ >= 1, "ghost depth must be at least 1");
  const Box interior = Box::from_extent(extent_);
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    DirectionPlan plan;
    plan.dir = dir;
    plan.neighbor = decomp.neighbor(rank, dir);
    plan.self = (plan.neighbor == rank);
    plan.recv_region = ghost_region(interior, dir, ghost_);
    plan.send_region =
        plan.self ? surface_region(interior, opposite_direction(dir), ghost_)
                  : surface_region(interior, dir, ghost_);
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(plan.recv_region.volume()) * kRealBytes;
    bytes_per_exchange_ += bytes;
    if (!plan.self) remote_bytes_ += bytes;
    plans_.push_back(plan);
  }
  // Size the per-direction staging buffers once, here: the region
  // volumes are fixed by the plan, so exchange() never allocates.
  send_staging_.resize(plans_.size());
  recv_staging_.resize(plans_.size());
  for (std::size_t p = 0; p < plans_.size(); ++p) {
    if (plans_[p].self) continue;
    send_staging_[p].reset(
        static_cast<std::size_t>(plans_[p].send_region.volume()), false);
    recv_staging_[p].reset(
        static_cast<std::size_t>(plans_[p].recv_region.volume()), false);
  }
}

void ArrayExchange::exchange(Communicator& comm, Array3D& field) {
  GMG_REQUIRE(field.extent() == extent_ && field.ghost() >= ghost_,
              "field does not match this exchange plan");
  trace::counter_add("exchange.bytes", bytes_per_exchange_);
  trace::counter_add("exchange.remote_bytes", remote_bytes_);
  trace::counter_add("exchange.calls", 1);

  std::vector<Request> requests;
  requests.reserve(plans_.size() * 2);

  {
    trace::TraceSpan span("exchange.recv_post", trace::Category::kComm);
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) continue;
      const std::size_t n =
          static_cast<std::size_t>(plan.recv_region.volume());
      GMG_ASSERT(recv_staging_[p].size() >= n);  // sized in the ctor
      requests.push_back(comm.irecv(recv_staging_[p].data(), n * kRealBytes,
                                    plan.neighbor,
                                    opposite_direction(plan.dir)));
    }
  }

  // Element-wise pack (the conventional approach the brick layout
  // eliminates) plus periodic self-copies.
  {
    trace::TraceSpan span("exchange.pack", trace::Category::kComm);
    std::uint64_t packed_bytes = 0;
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) {
        // Periodic wrap onto ourselves: ghost cell <- interior cell
        // shifted by one subdomain extent along the wrapped axes.
        const Vec3 off = direction_offset(plan.dir);
        const Vec3 shiftv{-off.x * extent_.x, -off.y * extent_.y,
                          -off.z * extent_.z};
        for_each(plan.recv_region, [&](index_t i, index_t j, index_t k) {
          field(i, j, k) = field(i + shiftv.x, j + shiftv.y, k + shiftv.z);
        });
        continue;
      }
      const std::size_t n =
          static_cast<std::size_t>(plan.send_region.volume());
      GMG_ASSERT(send_staging_[p].size() >= n);  // sized in the ctor
      real_t* dst = send_staging_[p].data();
      for_each(plan.send_region, [&](index_t i, index_t j, index_t k) {
        *dst++ = field(i, j, k);
      });
      packed_bytes += n * kRealBytes;
    }
    if (packed_bytes) trace::counter_add("exchange.bytes_packed", packed_bytes);
  }

  {
    trace::TraceSpan span("exchange.send", trace::Category::kComm);
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) continue;
      const std::size_t n =
          static_cast<std::size_t>(plan.send_region.volume());
      requests.push_back(comm.isend(send_staging_[p].data(), n * kRealBytes,
                                    plan.neighbor, plan.dir));
    }
  }

  {
    trace::TraceSpan span("exchange.wait", trace::Category::kWait);
    comm.wait_all(requests);
  }

  {
    trace::TraceSpan span("exchange.unpack", trace::Category::kComm);
    for (std::size_t p = 0; p < plans_.size(); ++p) {
      const DirectionPlan& plan = plans_[p];
      if (plan.self) continue;
      const real_t* src = recv_staging_[p].data();
      for_each(plan.recv_region, [&](index_t i, index_t j, index_t k) {
        field(i, j, k) = *src++;
      });
    }
  }
}

}  // namespace gmg::comm

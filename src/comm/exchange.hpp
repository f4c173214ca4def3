// Ghost-zone exchange engines for the 26-neighbor periodic
// decomposition (paper §IV-C / §V).
//
// BrickExchange exploits the communication-optimized brick ordering:
// the ghost bricks received from each neighbor occupy one contiguous
// storage range, so receives are *packing-free* — the message lands
// directly in brick storage. Sends gather whole bricks (few large
// memcpy runs instead of per-element packing). Modes:
//   kPackFree  — scatter/gather segments straight from brick storage
//   kPacked    — stage through contiguous buffers (the conventional
//                approach; kept as the ablation baseline)
//   kPerBrick  — one message per brick (no aggregation; quantifies the
//                paper's "consolidate to minimize messages")
//
// ArrayExchange is the conventional ghost-cell exchange used by the
// HPGMG-like baseline: element-wise pack, send, element-wise unpack,
// with a configurable ghost depth.
#pragma once

#include <array>
#include <vector>

#include "brick/bricked_array.hpp"
#include "comm/simmpi.hpp"
#include "common/aligned.hpp"
#include "mesh/array3d.hpp"
#include "mesh/decomposition.hpp"

namespace gmg::comm {

enum class BrickExchangeMode { kPackFree, kPacked, kPerBrick };

class BrickExchange {
 public:
  /// `grid` must be the brick grid shared by every field this engine
  /// will exchange; `decomp` is in units of ranks; `rank` is ours. The
  /// grid may wrap only axes on which `decomp` has one rank.
  BrickExchange(std::shared_ptr<const BrickGrid> grid, BrickShape shape,
                const CartDecomp& decomp, int rank,
                BrickExchangeMode mode = BrickExchangeMode::kPackFree);

  /// Fill the ghost-brick groups the grid stores (all 26 on a
  /// full-shell grid, none on a fully wrapped one) from the neighbors.
  /// Blocking (DESIGN.md §10): posts the receives, performs the
  /// periodic self-copies (only full-shell grids have any: solver
  /// levels wrap their self-periodic axes instead, DESIGN.md §11),
  /// packs (mode-dependent), sends, waits for every message and
  /// unpacks in kPacked mode.
  void exchange(Communicator& comm, BrickedArray& field);

  /// Exchange several fields in one round with message aggregation
  /// across fields (one message per neighbor carrying all fields).
  void exchange(Communicator& comm, std::vector<BrickedArray*> fields);

  /// Total payload bytes moved per exchange() of one field (both into
  /// messages and self-copies) — feeds the network model.
  std::uint64_t bytes_per_exchange() const { return bytes_per_exchange_; }
  /// Bytes sent to remote neighbors only (excludes periodic
  /// self-copies), per field per exchange.
  std::uint64_t remote_bytes_per_exchange() const { return remote_bytes_; }
  int remote_neighbor_count() const { return remote_neighbors_; }

 private:
  struct DirectionPlan {
    int dir = 0;
    int neighbor = -1;        // rank
    bool self = false;        // periodic wrap onto this same rank
    std::vector<BrickRange> send_runs;  // storage runs of surface bricks
    BrickRange recv_range;    // contiguous ghost range
    // For self-copies: send_runs (from surface of opposite dir) map
    // 1:1 onto the bricks of recv_range in order.
  };

  std::shared_ptr<const BrickGrid> grid_;
  BrickShape shape_;
  int rank_;
  BrickExchangeMode mode_;
  std::vector<DirectionPlan> plans_;
  std::uint64_t bytes_per_exchange_ = 0;
  std::uint64_t remote_bytes_ = 0;
  int remote_neighbors_ = 0;

  // Staging buffers for kPacked mode, one pair per direction plan, and
  // the round's requests: members, so a repeated exchange reuses their
  // capacity instead of allocating.
  std::vector<AlignedBuffer<real_t>> send_staging_;
  std::vector<AlignedBuffer<real_t>> recv_staging_;
  std::vector<Request> requests_;
};

/// Masked ghost exchange for an AMR patch part (DESIGN.md §17).
///
/// A refined patch is decomposed by the same rank grid as its parent
/// level; each rank owns the intersection of the global fine patch box
/// with its (refined) subdomain. Only *fine-filled* faces exchange: a
/// face of the part whose one-cell ghost layer is still inside the
/// global patch (i.e. a rank-internal cut through the patch). Faces on
/// the patch boundary receive prolonged coarse data instead and post
/// no messages; edge/corner ghost groups are never read by the
/// radius-1 patch smoother and are skipped entirely — the "masked"
/// part of the exchange. Sends move whole surface bricks pack-free,
/// receives land in the contiguous ghost ranges, exactly like
/// BrickExchange::kPackFree; the round is blocking, like every ghost
/// round (DESIGN.md §10). Messages use a disjoint tag base, so a patch
/// round can never match a BrickExchange message of the parent level.
class PatchExchange {
 public:
  /// `grid`/`shape`: the patch part's brick grid on this rank (null
  /// iff `part` is empty — the rank owns no patch bricks). `patch`:
  /// the global fine patch box; `part`: this rank's fine-cell part of
  /// it in global fine coordinates. `decomp` is the parent level's
  /// rank decomposition. Every part face must be entirely fine-filled
  /// or entirely patch boundary (guaranteed when the patch is
  /// brick-aligned and its faces lie strictly inside ranks).
  PatchExchange(std::shared_ptr<const BrickGrid> grid, BrickShape shape,
                const Box& patch, const Box& part, const CartDecomp& decomp,
                int rank);

  /// Fill the fine-filled ghost groups of the fields from the
  /// neighboring parts. Blocking; collective over the ranks whose
  /// parts share faces (bilateral plans, so no global participation
  /// requirement — ranks without messages return immediately).
  void exchange(Communicator& comm, BrickedArray& field);
  void exchange(Communicator& comm, std::vector<BrickedArray*> fields);

  bool is_fine_filled(int dir) const;
  int fine_filled_count() const { return static_cast<int>(plans_.size()); }
  std::uint64_t bytes_per_exchange() const { return bytes_per_exchange_; }

 private:
  struct DirectionPlan {
    int dir = 0;
    int neighbor = -1;
    std::vector<BrickRange> send_runs;  // surface bricks facing dir
    BrickRange recv_range;              // contiguous ghost range
  };

  std::shared_ptr<const BrickGrid> grid_;
  BrickShape shape_;
  int rank_ = 0;
  std::vector<DirectionPlan> plans_;
  std::uint64_t bytes_per_exchange_ = 0;
};

/// Conventional ghosted-array exchange with depth `g` ghost cells.
class ArrayExchange {
 public:
  ArrayExchange(Vec3 subdomain_extent, index_t ghost_depth,
                const CartDecomp& decomp, int rank);

  void exchange(Communicator& comm, Array3D& field);

  std::uint64_t bytes_per_exchange() const { return bytes_per_exchange_; }
  std::uint64_t remote_bytes_per_exchange() const { return remote_bytes_; }

 private:
  struct DirectionPlan {
    int dir = 0;
    int neighbor = -1;
    bool self = false;
    Box send_region;  // interior cells the neighbor needs
    Box recv_region;  // our ghost cells
  };

  Vec3 extent_;
  index_t ghost_;
  int rank_;
  std::vector<DirectionPlan> plans_;
  std::uint64_t bytes_per_exchange_ = 0;
  std::uint64_t remote_bytes_ = 0;
  std::vector<AlignedBuffer<real_t>> send_staging_;
  std::vector<AlignedBuffer<real_t>> recv_staging_;
};

}  // namespace gmg::comm

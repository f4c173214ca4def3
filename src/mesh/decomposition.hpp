// Domain decomposition: split a global periodic box across P ranks in
// a 3-D cartesian grid, with 26-neighbor topology (paper §IV-C uses
// MPI_ISend/IRecv/WaitAll to 26 neighbors).
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "mesh/box.hpp"

namespace gmg {

/// A near-cubic factorization of `nranks` into px*py*pz, preferring
/// balanced factors (the paper's experiments double ranks per axis).
Vec3 factor_ranks(int nranks);

/// Cartesian decomposition of a global domain. All subdomains must be
/// the same size (extent divisible by the rank grid), matching the
/// paper's weak/strong scaling setup.
class CartDecomp {
 public:
  CartDecomp(Vec3 global_extent, Vec3 rank_grid);

  Vec3 global_extent() const { return global_; }
  Vec3 rank_grid() const { return grid_; }
  int num_ranks() const { return static_cast<int>(grid_.volume()); }
  Vec3 subdomain_extent() const { return sub_; }

  /// Rank id <-> 3-D rank coordinate (periodic).
  Vec3 coord_of(int rank) const;
  int rank_of(Vec3 coord) const;  // coordinates taken mod grid (periodic)

  /// The neighbor rank in one of the 26 directions (periodic wrap).
  int neighbor(int rank, int dir) const;

  /// The axes along which the rank grid has one rank, so every rank is
  /// its own periodic neighbor there — the axes a level's BrickGrid
  /// wraps instead of storing ghost copies (DESIGN.md §11).
  std::array<bool, 3> self_periodic_axes() const {
    return {grid_.x == 1, grid_.y == 1, grid_.z == 1};
  }

  /// This rank's interior box in global cell coordinates.
  Box subdomain_box(int rank) const;

 private:
  Vec3 global_;
  Vec3 grid_;
  Vec3 sub_;
};

}  // namespace gmg

// One level of the multigrid hierarchy: geometry, fields, stencil
// coefficients, and the exchange engine for this rank's subdomain.
#pragma once

#include <memory>

#include "brick/bricked_array.hpp"
#include "comm/exchange.hpp"
#include "common/types.hpp"
#include "gmg/kernel_plan.hpp"
#include "mesh/decomposition.hpp"

namespace gmg {

struct MgLevel {
  int level = 0;     // 0 = finest
  real_t h = 0;      // grid spacing
  Vec3 cells;        // subdomain interior extent at this level
  Vec3 global;       // global extent at this level
  Box rank_box;      // this rank's box in global cell coordinates
  BrickShape shape;

  // Stencil coefficients (paper §IV-C): A = alpha*center + beta*faces,
  // Jacobi weight gamma. For the 4th-order operator (radius 2) the
  // face taps split into distance-1 (beta) and distance-2 (beta2)
  // coefficients.
  real_t alpha = 0, beta = 0, beta2 = 0, gamma = 0;
  int radius = 1;

  std::shared_ptr<const BrickGrid> grid;
  BrickedArray x;   // solution / correction
  BrickedArray b;   // right-hand side
  BrickedArray Ax;  // operator application scratch
  BrickedArray r;   // residual
  BrickedArray p;   // Chebyshev/CG direction (allocated when needed)

  // Variable-coefficient mode (set_coefficient): cell-centered
  // coefficient field and the per-cell operator diagonal.
  bool varcoef = false;
  BrickedArray coef;
  BrickedArray diag;

  std::unique_ptr<comm::BrickExchange> exchange;

  // Resolved kernel bindings for this level's (brick dims, coefficient
  // kind, smoother, fused-vs-split) configuration — see
  // kernel_plan.hpp. Rebuilt by set_coefficient when varcoef flips.
  KernelPlan plan;

  // Compute–comm overlap (DESIGN.md §10): which ghost groups are
  // filled by another rank, the interior/surface split of the owned
  // bricks, and the interior set as a cell-space box. Levels with no
  // remote neighbor (single-rank runs) take the blocking path.
  std::array<bool, kNumDirections> remote{};
  bool has_remote = false;
  BrickPartition part;
  Box part_cells;

  Box interior() const { return Box::from_extent(cells); }
};

}  // namespace gmg

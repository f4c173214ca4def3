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

  Box interior() const { return Box::from_extent(cells); }

  /// Visit every interior cell in for_each order with its physical
  /// cell-centre coordinates in [0,1)^3: fn(i, j, k, px, py, pz).
  template <class Fn>
  void for_each_cell_centre(Fn&& fn) const {
    for_each(interior(), [&](index_t i, index_t j, index_t k) {
      fn(i, j, k, (static_cast<real_t>(rank_box.lo.x + i) + 0.5) * h,
         (static_cast<real_t>(rank_box.lo.y + j) + 0.5) * h,
         (static_cast<real_t>(rank_box.lo.z + k) + 0.5) * h);
    });
  }
};

}  // namespace gmg

// Conventional geometric multigrid on ghosted ijk arrays — the
// HPGMG-style comparator of paper Fig. 4. Identical algorithm
// (Algorithms 1 & 2, same smoother, same model problem), but:
//   * lexicographic array storage with a one-cell ghost shell,
//   * element-wise pack/unpack ghost exchange before every applyOp,
//   * no communication avoidance, no fine-grain blocking.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "baseline/operators_array.hpp"
#include "comm/exchange.hpp"
#include "comm/simmpi.hpp"
#include "mesh/decomposition.hpp"

namespace gmg::baseline {

struct ArrayGmgOptions {
  int levels = 6;
  int smooths = 12;
  int bottom_smooths = 100;
  real_t tolerance = 1e-10;
  int max_vcycles = 100;
};

struct ArrayLevel {
  int level = 0;
  real_t h = 0;
  Vec3 cells;
  Vec3 global;
  Box rank_box;
  real_t alpha = 0, beta = 0, gamma = 0;
  Array3D x, b, Ax, r;
  std::unique_ptr<comm::ArrayExchange> exchange;

  Box interior() const { return Box::from_extent(cells); }
};

struct ArraySolveResult {
  int vcycles = 0;
  real_t final_residual = 0;
  bool converged = false;
  double seconds = 0;
};

class ArrayGmgSolver {
 public:
  ArrayGmgSolver(const ArrayGmgOptions& opts, const CartDecomp& decomp,
                 int rank);

  int num_levels() const { return static_cast<int>(levels_.size()); }
  ArrayLevel& level(int l) { return levels_[static_cast<std::size_t>(l)]; }

  void set_rhs(const std::function<real_t(real_t, real_t, real_t)>& f);
  ArraySolveResult solve(comm::Communicator& comm);
  void vcycle(comm::Communicator& comm);
  real_t residual_norm(comm::Communicator& comm);

  const Array3D& solution() const { return levels_.front().x; }

 private:
  void smooth_level(comm::Communicator& comm, ArrayLevel& lev, int iterations,
                    bool with_residual);

  ArrayGmgOptions opts_;
  int rank_;
  std::vector<ArrayLevel> levels_;
};

}  // namespace gmg::baseline

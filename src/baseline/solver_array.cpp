#include "baseline/solver_array.hpp"

#include "common/timer.hpp"
#include "gmg/phase.hpp"

namespace gmg::baseline {

ArrayGmgSolver::ArrayGmgSolver(const ArrayGmgOptions& opts,
                               const CartDecomp& decomp, int rank)
    : opts_(opts), rank_(rank) {
  GMG_REQUIRE(opts_.levels >= 1, "need at least one level");
  const Vec3 sub0 = decomp.subdomain_extent();
  const Vec3 global0 = decomp.global_extent();

  int levels = opts_.levels;
  for (int l = 0; l < levels; ++l) {
    const index_t scale = index_t{1} << l;
    const bool ok = sub0.x % (2 * scale) == 0 && sub0.y % (2 * scale) == 0 &&
                    sub0.z % (2 * scale) == 0;
    if (!ok) {
      levels = l + 1;
      break;
    }
  }
  opts_.levels = levels;

  const Box rank_box0 = decomp.subdomain_box(rank);
  levels_.reserve(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    const index_t scale = index_t{1} << l;
    ArrayLevel lev;
    lev.level = l;
    lev.cells = {sub0.x / scale, sub0.y / scale, sub0.z / scale};
    lev.global = {global0.x / scale, global0.y / scale, global0.z / scale};
    lev.rank_box = Box{{rank_box0.lo.x / scale, rank_box0.lo.y / scale,
                        rank_box0.lo.z / scale},
                       {rank_box0.hi.x / scale, rank_box0.hi.y / scale,
                        rank_box0.hi.z / scale}};
    lev.h = 1.0 / static_cast<real_t>(lev.global.x);
    lev.alpha = -6.0 / (lev.h * lev.h);
    lev.beta = 1.0 / (lev.h * lev.h);
    lev.gamma = lev.h * lev.h / 12.0;
    lev.x = Array3D(lev.cells, 1);
    lev.b = Array3D(lev.cells, 1);
    lev.Ax = Array3D(lev.cells, 1);
    lev.r = Array3D(lev.cells, 1);
    lev.exchange =
        std::make_unique<comm::ArrayExchange>(lev.cells, 1, decomp, rank);
    levels_.push_back(std::move(lev));
  }
}

void ArrayGmgSolver::set_rhs(
    const std::function<real_t(real_t, real_t, real_t)>& f) {
  ArrayLevel& fine = levels_.front();
  const real_t h = fine.h;
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t px = (static_cast<real_t>(fine.rank_box.lo.x + i) + 0.5) * h;
    const real_t py = (static_cast<real_t>(fine.rank_box.lo.y + j) + 0.5) * h;
    const real_t pz = (static_cast<real_t>(fine.rank_box.lo.z + k) + 0.5) * h;
    fine.b(i, j, k) = f(px, py, pz);
  });
  for (auto& lev : levels_) {
    init_zero(lev.x);
    if (lev.level > 0) init_zero(lev.b);
  }
}

void ArrayGmgSolver::smooth_level(comm::Communicator& comm, ArrayLevel& lev,
                                  int iterations, bool with_residual) {
  const Box interior = lev.interior();
  for (int it = 0; it < iterations; ++it) {
    timed_phase(lev.level, Phase::kExchange,
                [&] { lev.exchange->exchange(comm, lev.x); });
    timed_phase(lev.level, Phase::kApplyOp, [&] {
      apply_op(lev.Ax, lev.x, lev.alpha, lev.beta, interior);
    });
    if (with_residual) {
      timed_phase(lev.level, Phase::kSmoothResidual, [&] {
        smooth_residual(lev.x, lev.r, lev.Ax, lev.b, lev.gamma, interior);
      });
    } else {
      timed_phase(lev.level, Phase::kSmooth, [&] {
        smooth(lev.x, lev.Ax, lev.b, lev.gamma, interior);
      });
    }
  }
}

void ArrayGmgSolver::vcycle(comm::Communicator& comm) {
  const int bottom = num_levels() - 1;
  for (int l = 0; l < bottom; ++l) {
    ArrayLevel& lev = levels_[static_cast<std::size_t>(l)];
    ArrayLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];
    smooth_level(comm, lev, opts_.smooths, /*with_residual=*/true);
    timed_phase(l, Phase::kRestriction,
                [&] { restriction(coarse.b, lev.r); });
    timed_phase(l + 1, Phase::kInitZero, [&] { init_zero(coarse.x); });
  }
  smooth_level(comm, levels_[static_cast<std::size_t>(bottom)],
               opts_.bottom_smooths, /*with_residual=*/false);
  for (int l = bottom - 1; l >= 0; --l) {
    ArrayLevel& lev = levels_[static_cast<std::size_t>(l)];
    ArrayLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];
    timed_phase(l, Phase::kInterpIncrement,
                [&] { interpolation_increment(lev.x, coarse.x); });
    smooth_level(comm, lev, opts_.smooths, /*with_residual=*/true);
  }
}

real_t ArrayGmgSolver::residual_norm(comm::Communicator& comm) {
  ArrayLevel& fine = levels_.front();
  timed_phase(0, Phase::kExchange,
              [&] { fine.exchange->exchange(comm, fine.x); });
  timed_phase(0, Phase::kApplyOp, [&] {
    apply_op(fine.Ax, fine.x, fine.alpha, fine.beta, fine.interior());
  });
  timed_phase(0, Phase::kResidual,
              [&] { residual(fine.r, fine.b, fine.Ax, fine.interior()); });
  real_t local = 0;
  timed_phase(0, Phase::kMaxNorm, [&] { local = max_norm(fine.r); });
  return comm.allreduce_max(local);
}

ArraySolveResult ArrayGmgSolver::solve(comm::Communicator& comm) {
  Timer timer;
  ArraySolveResult result;
  real_t res = residual_norm(comm);
  while (res > opts_.tolerance && result.vcycles < opts_.max_vcycles) {
    vcycle(comm);
    res = residual_norm(comm);
    ++result.vcycles;
  }
  result.final_residual = res;
  result.converged = res <= opts_.tolerance;
  result.seconds = timer.elapsed();
  return result;
}

}  // namespace gmg::baseline

#include "batch/batched_solver.hpp"

#include "gmg/cycle.hpp"
#include "gmg/level_run.hpp"
#include "gmg/schedule_audit.hpp"
#include "trace/trace.hpp"

namespace gmg::batch {

BatchedSolver::BatchedSolver(GmgSolver& base, int k) : base_(base), k_(k) {
  GMG_REQUIRE(k >= 1, "batch size must be >= 1");
  const GmgOptions& opts = base.options();
  const CartDecomp& decomp = base.decomp();
  levels_.reserve(static_cast<std::size_t>(base.num_levels()));
  for (int l = 0; l < base.num_levels(); ++l) {
    const MgLevel& lev = base.level(l);
    BatchLevel bl;
    for_each_solve_field(opts, bl, [&](BatchedBrickedArray& a) {
      a = BatchedBrickedArray(lev.grid, lev.shape, k);
    });
    // One stretched-shape exchange engine per level: a single round
    // moves all K components of every aggregated field per neighbor.
    bl.exchange = std::make_unique<comm::BrickExchange>(
        lev.grid, stretched_shape(lev.shape, k), decomp, base.rank(),
        opts.exchange_mode);
    levels_.push_back(std::move(bl));
  }
  solutions_.assign(static_cast<std::size_t>(k_), {});
  cycle_ = CycleState(num_levels(), k_);
  if (check::verify_schedule_enabled()) {
    check::ScheduleVerifier().verify(record_solver_schedule(base_, 2, k_));
  }
}

void BatchedSolver::set_rhs(
    const std::vector<std::function<real_t(real_t, real_t, real_t)>>& fs) {
  GMG_REQUIRE(static_cast<int>(fs.size()) == k_,
              "need one RHS function per batch component");
  set_rhs_fields(base_, levels_, cycle_, fs.data());
}

Vec3 BatchedSolver::solution_extent() const {
  return base_.level(0).cells;
}

void BatchedSolver::snapshot_solution(int c) {
  const MgLevel& fine = base_.level(0);
  BatchedBrickedArray& x = levels_.front().x;
  std::vector<real_t>& out = solutions_[static_cast<std::size_t>(c)];
  out.clear();
  out.reserve(static_cast<std::size_t>(fine.cells.volume()));
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    out.push_back(x.at(i, j, k, c));
  });
}

std::vector<SolveResult> BatchedSolver::solve(
    comm::Communicator& comm, const std::vector<BatchSolveSpec>& specs) {
  GMG_REQUIRE(static_cast<int>(specs.size()) == k_,
              "need one BatchSolveSpec per component");
  trace::counter_add("batch.solves", 1);
  trace::counter_add("batch.components", static_cast<std::uint64_t>(k_));
  // The solo cycle and solve loop over the K-lane fields, timed by the
  // solo phase spans. A retiring component's solution is snapshotted
  // the moment its solo twin's loop would have exited.
  LevelRun<BatchLevel> ex(base_, levels_, comm);
  Cycle<LevelRun<BatchLevel>> cycle(base_, ex, cycle_);
  return solve_loop(cycle, specs, "batch.vcycle",
                    [&](int c) { snapshot_solution(c); });
}

}  // namespace gmg::batch

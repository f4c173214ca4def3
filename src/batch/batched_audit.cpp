#include "batch/batched_audit.hpp"

#include <numeric>
#include <vector>

#include "batch/batched_solver.hpp"
#include "gmg/schedule_audit.hpp"

namespace gmg::batch {

check::Schedule record_batched_schedule(const BatchedSolver& bs) {
  check::ScheduleRecorder rec("batch.solve");
  rec.set_num_components(bs.k_);
  ScheduleWalker w(rec, bs.base_);
  w.add_levels();
  w.set_canonical_initial();
  w.set_num_components(bs.k_);
  w.mirror_in_place_jacobi();

  std::vector<int> active(static_cast<std::size_t>(bs.k_));
  std::iota(active.begin(), active.end(), 0);
  w.set_active_components(active);

  w.residual_norm();
  w.vcycle();
  w.residual_norm();

  // Representative retirement: component 0 leaves the batch between
  // cycles; subsequent masked norm groups must cover only survivors,
  // in ascending order, while the bottom solve's unconditional
  // collectives keep the full width.
  if (bs.k_ > 1) {
    rec.retire(0);
    active.erase(active.begin());
    w.set_active_components(active);
  }

  w.vcycle();
  w.residual_norm();
  return rec.take();
}

void verify_batched_schedule(const BatchedSolver& bs) {
  check::ScheduleVerifier().verify(record_batched_schedule(bs));
}

}  // namespace gmg::batch

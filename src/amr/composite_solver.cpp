#include "amr/composite_solver.hpp"

#include <algorithm>
#include <utility>

#include "common/timer.hpp"
#include "gmg/operators.hpp"
#include "trace/trace.hpp"

namespace gmg::amr {

void CompositeSolver::exchange_coarse_solution(comm::Communicator& comm) {
  h_.solver().level(0).exchange->exchange(comm, h_.xH());
}

void CompositeSolver::exchange_patch_solution(comm::Communicator& comm) {
  h_.patch_exchange().exchange(comm, h_.patch().x);
}

real_t CompositeSolver::composite_residual(comm::Communicator& comm) {
  trace::TraceSpan span("amr.compositeResidual");
  MgLevel& L0 = h_.solver().level(0);
  MgLevel& P = h_.patch();
  const InterfaceGeometry& g = h_.geometry();

  // Ghost protocol: coarse ghosts of xH first (the interface
  // prolongation taps reach one coarse ghost cell where a patch face
  // runs along a rank boundary), then the prolonged interface layer,
  // then the fine–fine round.
  exchange_coarse_solution(comm);
  if (h_.has_part()) {
    prolong_interface_ghosts(P.x, h_.xH(), g);
    exchange_patch_solution(comm);
    P.plan.apply(P.Ax, P.x, P.interior());
    residual(P.r, P.b, P.Ax, P.interior());
  }

  // Masked coarse residual: uncovered bricks only, through the same
  // memoized iteration-plan machinery as the uniform kernels.
  apply_op(h_.AxH(), h_.xH(), L0.alpha, L0.beta, L0.interior(),
           h_.uncovered());
  residual(h_.rH(), h_.bH(), h_.AxH(), L0.interior(), h_.uncovered());

  real_t local = 0;
  if (h_.has_part()) {
    // Replace the coarse flux across the interface by the averaged
    // fine flux, then inject the patch residual into the covered
    // bricks — rH now holds the composite residual everywhere.
    reflux_residual(h_.rH(), h_.xH(), P.x, g, L0.beta);
    restrict_patch(h_.rH(), P.r, g);
    local = max_norm(P.r);
  }
  local = std::max(local, max_norm(h_.rH()));
  return static_cast<real_t>(comm.allreduce_max(local));
}

void CompositeSolver::correction_solve(comm::Communicator& comm) {
  trace::TraceSpan span("amr.correctionSolve");
  GmgSolver& S = h_.solver();
  MgLevel& L0 = S.level(0);
  // The composite residual is the correction equation's RHS; start
  // from a zero guess so the fixed V-cycle count is a pure linear
  // operation on rH (zero ghosts are valid for a zero x).
  copy_interior(L0.b, h_.rH());
  init_zero(L0.x);
  L0.margin = L0.shape.bx;
  L0.b_ghosts_valid = false;
  for (int i = 0; i < h_.options().correction_vcycles; ++i) S.vcycle(comm);
}

void CompositeSolver::patch_smooth(comm::Communicator& comm) {
  trace::TraceSpan span("amr.patchSmooth");
  MgLevel& P = h_.patch();
  // Dirichlet closure: prolong the interface ghosts from the current
  // coarse solution once and freeze them for the whole sweep block;
  // only fine–fine ghosts are re-exchanged per sweep. The Jacobi sweep
  // ping-pongs x through Ax's storage and writes only interior cells,
  // so both buffers carry the frozen ghosts.
  exchange_coarse_solution(comm);
  if (h_.has_part()) {
    prolong_interface_ghosts(P.x, h_.xH(), h_.geometry());
    prolong_interface_ghosts(P.Ax, h_.xH(), h_.geometry());
  }
  for (int s = 0; s < h_.options().patch_smooths; ++s) {
    exchange_patch_solution(comm);
    if (h_.has_part()) {
      P.plan.jacobi(P.interior(), /*residual=*/false, nullptr);
      std::swap(P.x, P.Ax);
    }
  }
}

CompositeResult CompositeSolver::solve(comm::Communicator& comm) {
  trace::TraceSpan span("amr.solve");
  Timer timer;
  CompositeResult result;
  MgLevel& L0 = h_.solver().level(0);

  real_t res = composite_residual(comm);
  result.initial_residual = res;
  result.history.push_back(res);
  const real_t target = h_.options().tolerance * res;

  while (res > target && result.cycles < h_.options().max_cycles) {
    correction_solve(comm);
    // Apply the coarse correction to the composite solution and,
    // piecewise-constant prolonged, to the patch (R∘P_pc = identity,
    // so the covered coarse cells stay consistent until the patch
    // smooth refines them).
    axpy_interior(h_.xH(), real_t{1}, L0.x);
    if (h_.has_part()) {
      correct_patch(h_.patch().x, L0.x, h_.geometry());
    }
    patch_smooth(comm);
    if (h_.has_part()) {
      restrict_patch(h_.xH(), h_.patch().x, h_.geometry());
    }
    res = composite_residual(comm);
    ++result.cycles;
    result.history.push_back(res);
  }
  result.final_residual = res;
  result.converged = res <= target;
  result.seconds = timer.elapsed();
  return result;
}

}  // namespace gmg::amr

#include "gmg/solver.hpp"

#include <array>
#include <cmath>
#include <utility>

#include "check/footprint.hpp"
#include "check/schedule.hpp"
#include "dsl/stencils.hpp"
#include "gmg/cycle.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/level_run.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/schedule_audit.hpp"
#include "trace/trace.hpp"

namespace gmg {

// Compile-time footprint verification (src/check): the stencil
// expressions the solver instantiates must have exactly the shapes the
// ghost sizing below assumes. A stencil edit that widens a footprint
// fails here, not as a silent out-of-ghost read.
static_assert(check::same_footprint(
                  dsl::laplacian_7pt<0>(1.0, 1.0).offsets(),
                  check::star_shape(1)),
              "7-point Laplacian footprint is not the radius-1 star");
static_assert(dsl::star_stencil<2, 0>(std::array<real_t, 3>{1.0, 1.0, 1.0})
                      .offsets()
                      .radius() == 2,
              "13-point operator footprint is not radius 2");
static_assert(check::restriction_shape().num_taps() == 8 &&
                  check::restriction_shape().radius() == 1,
              "restriction must read exactly the 2x2x2 fine block");
static_assert(check::interpolation_trilinear_shape().num_taps() == 27,
              "trilinear interpolation reads the 27-point coarse box");

namespace {

/// The solo solve's executor: the hierarchy's own fields.
using Run = LevelRun<MgLevel>;

}  // namespace

GmgSolver::GmgSolver(const GmgOptions& opts, const CartDecomp& decomp,
                     int rank)
    : opts_(opts), decomp_(decomp), rank_(rank) {
  GMG_REQUIRE(opts_.levels >= 1, "need at least one level");
  GMG_REQUIRE(opts_.smooths >= 1, "need at least one smoothing iteration");
  GMG_REQUIRE(opts_.operator_radius == 1 || opts_.operator_radius == 2,
              "operator radius must be 1 (7-point) or 2 (13-point)");

  // Footprint-vs-ghost-depth checks (src/check): the ghost region is
  // one brick deep, so every stencil the cycle applies — operator,
  // smoother consumption rate, inter-level transfers — must fit the
  // brick shape. Undersized ghosts fail here at setup, on every level
  // at once (the brick shape is level-invariant).
  check::require_footprint_fits(
      opts_.operator_radius == 1 ? "operator (7-point star)"
                                 : "operator (13-point star)",
      check::star_shape(opts_.operator_radius).extents(), opts_.brick);
  check::require_footprint_fits("restriction (8->1 full weighting)",
                                check::restriction_shape().extents(),
                                opts_.brick);
  check::require_footprint_fits(
      "interpolation (trilinear)",
      check::interpolation_trilinear_shape().extents(), opts_.brick);
  // The fused descent kernel's union footprint (DESIGN.md §16) must
  // fit the ghost capacity too — with today's stages it equals the
  // restriction octant, but deriving it through the same constexpr
  // union keeps a future wider final-smooth stage from silently
  // outgrowing the ghosts.
  fused::require_fused_fits(opts_.brick);
  // CA smoothing refills the ghost margin to one brick depth per
  // exchange and consumes layers per sweep: the operator radius for
  // Jacobi/Chebyshev, two for a red-black iteration (each colored
  // half-sweep reads the other color at radius 1).
  check::require_ghost_capacity(
      opts_.smoother == Smoother::kRedBlackGS
          ? "red-black Gauss-Seidel (2 ghost layers per iteration)"
          : "smoother sweep",
      opts_.brick,
      opts_.smoother == Smoother::kRedBlackGS
          ? index_t{2}
          : static_cast<index_t>(opts_.operator_radius));

  const Vec3 sub0 = decomp.subdomain_extent();
  const Vec3 global0 = decomp.global_extent();
  const BrickShape shape = opts_.brick;

  // Clamp depth: every level's subdomain must be brick-divisible and
  // hold at least one brick per axis.
  int levels = opts_.levels;
  for (int l = 0; l < levels; ++l) {
    const index_t scale = index_t{1} << l;
    const bool ok =
        sub0.x % (shape.bx * scale) == 0 && sub0.y % (shape.by * scale) == 0 &&
        sub0.z % (shape.bz * scale) == 0 && sub0.x / scale >= shape.bx &&
        sub0.y / scale >= shape.by && sub0.z / scale >= shape.bz;
    if (!ok) {
      levels = l;
      break;
    }
  }
  GMG_REQUIRE(levels >= 1,
              "subdomain is too small for even one level with this brick "
              "shape");
  opts_.levels = levels;

  const Box rank_box0 = decomp.subdomain_box(rank);
  // Axes with one rank wrap through the brick adjacency instead of
  // storing ghost copies of owned bricks (DESIGN.md §11).
  const std::array<bool, 3> wrap = decomp.self_periodic_axes();

  levels_.reserve(static_cast<std::size_t>(levels));
  for (int l = 0; l < levels; ++l) {
    const index_t scale = index_t{1} << l;
    MgLevel lev;
    lev.level = l;
    lev.cells = {sub0.x / scale, sub0.y / scale, sub0.z / scale};
    lev.global = {global0.x / scale, global0.y / scale, global0.z / scale};
    lev.rank_box = Box{{rank_box0.lo.x / scale, rank_box0.lo.y / scale,
                        rank_box0.lo.z / scale},
                       {rank_box0.hi.x / scale, rank_box0.hi.y / scale,
                        rank_box0.hi.z / scale}};
    lev.shape = shape;
    lev.h = 1.0 / static_cast<real_t>(lev.global.x);
    lev.radius = opts_.operator_radius;

    // A = s*I + c*Laplacian_h. Radius 1: the paper's 7-point star.
    // Radius 2: the 4th-order 13-point star with per-axis second-
    // derivative weights (-1/12, 4/3, -5/2, 4/3, -1/12)/h^2.
    const real_t c_over_h2 = opts_.laplacian_coef / (lev.h * lev.h);
    if (lev.radius == 1) {
      lev.alpha = opts_.identity_coef - 6.0 * c_over_h2;
      lev.beta = c_over_h2;
      lev.beta2 = 0.0;
    } else {
      lev.alpha = opts_.identity_coef - 3.0 * (5.0 / 2.0) * c_over_h2;
      lev.beta = (4.0 / 3.0) * c_over_h2;
      lev.beta2 = -(1.0 / 12.0) * c_over_h2;
    }
    GMG_REQUIRE(lev.alpha != 0.0, "operator diagonal vanishes");
    // Point-Jacobi weight: omega/|diag| with omega = 1/2 generalizes
    // the paper's gamma = h^2/12.
    lev.gamma = -0.5 / lev.alpha;

    lev.grid = std::make_shared<BrickGrid>(
        Vec3{lev.cells.x / shape.bx, lev.cells.y / shape.by,
             lev.cells.z / shape.bz},
        wrap);
    for_each_solve_field(opts_, lev, [&](BrickedArray& a) {
      a = BrickedArray(lev.grid, shape);
    });
    lev.exchange = std::make_unique<comm::BrickExchange>(
        lev.grid, shape, decomp, rank, opts_.exchange_mode);
    levels_.push_back(std::move(lev));
  }
  cycle_ = CycleState(levels, 1);
  resolve_kernel_plans();
  // Setup-time schedule proof (DESIGN.md §18): dry-run the planned
  // V-cycle and FMG schedules and statically verify the margin
  // algebra, exchange placement and fused chunk disjointness before
  // the first sweep can execute. Rejects a hazardous configuration
  // here, with a diagnostic naming the offending kernel pair.
  if (check::verify_schedule_enabled()) verify_solver_schedule(*this);
}

void GmgSolver::resolve_kernel_plans() {
  for (MgLevel& lev : levels_) resolve_level_kernels(opts_, lev);
}

void GmgSolver::set_rhs(
    const std::function<real_t(real_t, real_t, real_t)>& f) {
  set_rhs_fields(*this, levels_, cycle_, &f);
}

void GmgSolver::set_coefficient(
    comm::Communicator& comm,
    const std::function<real_t(real_t, real_t, real_t)>& f) {
  GMG_REQUIRE(opts_.operator_radius == 1,
              "variable coefficients support the 7-point operator only");
  MgLevel& fine = levels_.front();
  fine.coef = BrickedArray(fine.grid, fine.shape);
  fine.for_each_cell_centre(
      [&](index_t i, index_t j, index_t k, real_t px, real_t py, real_t pz) {
        const real_t v = f(px, py, pz);
        GMG_REQUIRE(v > 0, "coefficient must be positive");
        fine.coef(i, j, k) = v;
      });
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    levels_[l].coef = BrickedArray(levels_[l].grid, levels_[l].shape);
    restriction(levels_[l].coef, levels_[l - 1].coef);
  }
  Run ex(*this, levels_, comm);
  for (MgLevel& lev : levels_) {
    lev.varcoef = true;
    ex.exchange(lev.level, lev.coef);
    lev.diag = BrickedArray(lev.grid, lev.shape);
    // The CA redundant sweeps read the diagonal in the ghost shell;
    // compute it everywhere the taps stay within the ghost bricks.
    varcoef_diagonal(lev.diag, lev.coef, opts_.identity_coef, lev.h,
                     lev.grid->grow_unwrapped(lev.interior(),
                                              lev.shape.bx - 1));
  }
  // Ghosts of x are unrelated to the new operator.
  for (GhostState& g : cycle_.ghosts) g.margin = 0;
  // The varcoef flip changes every level's operator; re-resolve the
  // plans against it — and re-prove the schedule against the new plans
  // (the varcoef kernels have their own effect summaries).
  resolve_kernel_plans();
  if (check::verify_schedule_enabled()) verify_solver_schedule(*this);
}

void GmgSolver::vcycle(comm::Communicator& comm) {
  // Umbrella span so the timeline shows cycle boundaries around the
  // per-phase spans LevelRun::timed emits.
  trace::TraceSpan span("gmg.vcycle");
  Run ex(*this, levels_, comm);
  Cycle<Run>(*this, ex, cycle_).vcycle();
}

void GmgSolver::fmg(comm::Communicator& comm) {
  trace::TraceSpan span("gmg.fmg");
  Run ex(*this, levels_, comm);
  Cycle<Run>(*this, ex, cycle_).fmg();
}

real_t GmgSolver::residual_norm(comm::Communicator& comm) {
  Run ex(*this, levels_, comm);
  const std::uint8_t active = 1;
  real_t res = 0;
  Cycle<Run>(*this, ex, cycle_).residual_norms(&active, &res);
  return res;
}

real_t GmgSolver::residual_norm_l2(comm::Communicator& comm) {
  Run ex(*this, levels_, comm);
  return std::sqrt(Cycle<Run>(*this, ex, cycle_).residual_norm_l2());
}

SolveResult GmgSolver::solve(comm::Communicator& comm,
                             const SolveControl* control) {
  Run ex(*this, levels_, comm);
  Cycle<Run> cycle(*this, ex, cycle_);
  std::vector<SolveResult> results =
      solve_loop(cycle, {{opts_.tolerance, opts_.max_vcycles, control}},
                 "gmg.vcycle", [](int) {});
  return std::move(results.front());
}

}  // namespace gmg

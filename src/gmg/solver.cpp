#include "gmg/solver.hpp"

#include <array>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>

#include "check/footprint.hpp"
#include "check/schedule.hpp"
#include "common/timer.hpp"
#include "dsl/stencils.hpp"
#include "gmg/cycle.hpp"
#include "gmg/fused_kernels.hpp"
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

/// The solo run executor of the cycle (gmg/cycle.hpp): GmgSolver's
/// fields through each level's KernelPlan bindings, every phase timed
/// by the solver's profiler.
class SoloRun {
 public:
  SoloRun(std::vector<MgLevel>& levels, perf::Profiler& prof,
          OverlapStream& os, comm::Communicator& comm)
      : levels_(levels), prof_(prof), os_(os), comm_(comm) {}

  int k() const { return 1; }
  bool fuses_norm() const { return true; }
  template <class Fn>
  void timed(int l, perf::Phase phase, Fn&& fn) {
    prof_.timed(l, phase, std::forward<Fn>(fn));
  }

  // Exchange primitives: the only direct exchange-engine calls of the
  // solo path.
  void exchange(int l, const FieldSet& fs) {
    lev(l).exchange->exchange(comm_, fields(l, fs));
  }
  void exchange(int l, BrickedArray& field) {
    lev(l).exchange->exchange(comm_, field);
  }
  void begin(int l, const FieldSet& fs) {
    lev(l).exchange->begin(comm_, fields(l, fs));
  }
  template <class Kernel>
  void finish(int l, const Box& active, const Box& safe, perf::Phase phase,
              Kernel& kernel) {
    finish_exchange_overlapped(
        comm_, *lev(l).exchange, os_, &prof_, l, active, safe, phase,
        [&](const Box& region) { kernel(region, false); });
  }

  void apply(int l, Fld out, Fld in, const Box& box, bool) {
    MgLevel& L = lev(l);
    L.plan.apply(field(L, out), field(L, in), box);
  }
  void jacobi(int l, const Box& box, bool residual, bool restrict, bool) {
    lev(l).plan.jacobi(box, residual, restrict ? &lev(l + 1).b : nullptr);
  }
  void swap(int l) { std::swap(lev(l).x, lev(l).Ax); }
  void gs_color(int l, int color, const Box& box, bool) {
    MgLevel& L = lev(l);
    gs_color_sweep(L.x, L.b, L.alpha, L.beta, color, L.rank_box.lo, box);
  }
  void residual(int l, const Box& box) {
    MgLevel& L = lev(l);
    gmg::residual(L.r, L.b, L.Ax, box);
  }
  void residual_restrict(int l) {
    lev(l).plan.residual_restrict(lev(l + 1).b);
  }
  void restriction(int l, Fld fine) {
    gmg::restriction(lev(l + 1).b, field(lev(l), fine));
  }
  void init_zero_x(int l, const Box&) { init_zero(lev(l).x); }
  void interp_increment(int l) {
    interpolation_increment(lev(l).x, lev(l + 1).x);
  }
  void interp_trilinear(int l) {
    interpolation_trilinear_assign(lev(l).x, lev(l + 1).x);
  }
  void cheby_p(int l, const Box& box, real_t beta) {
    MgLevel& L = lev(l);
    if (L.varcoef) {
      cheby_p_update_varcoef(L.p, L.r, L.diag, beta, box);
    } else {
      cheby_p_update(L.p, L.r, 1.0 / L.alpha, beta, box);
    }
  }
  void axpy_p(int l, real_t alpha, const Box& box) {
    axpy(lev(l).x, alpha, lev(l).p, box);
  }
  void copy(int l, Fld dst, Fld src) {
    copy_interior(field(lev(l), dst), field(lev(l), src));
  }
  real_t dot(int l, Fld a, Fld b, int) {
    return dot_interior(field(lev(l), a), field(lev(l), b));
  }
  void axpy_interior(int l, Fld y, real_t a, Fld x, int) {
    gmg::axpy_interior(field(lev(l), y), a, field(lev(l), x));
  }
  void xpay_interior(int l, Fld y, Fld x, real_t beta, int) {
    gmg::xpay_interior(field(lev(l), y), field(lev(l), x), beta);
  }
  real_t residual_max_norm() { return lev(0).plan.residual_max_norm(); }
  real_t max_norm(int) { return gmg::max_norm(lev(0).r); }
  real_t norm2_sq() { return gmg::norm2_sq(lev(0).r); }
  int next_group() { return 0; }
  real_t allreduce_sum(real_t v, const char*, int, int, int, bool) {
    return comm_.allreduce_sum(v);
  }
  real_t allreduce_max(real_t v, const char*, int, int, int, bool) {
    return comm_.allreduce_max(v);
  }
  int cg_iterations(int budget) const { return budget; }

 private:
  MgLevel& lev(int l) { return levels_[static_cast<std::size_t>(l)]; }
  std::vector<BrickedArray*> fields(int l, const FieldSet& fs) {
    std::vector<BrickedArray*> out(static_cast<std::size_t>(fs.n));
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = &field(lev(l), fs.f[i]);
    return out;
  }

  std::vector<MgLevel>& levels_;
  perf::Profiler& prof_;
  OverlapStream& os_;
  comm::Communicator& comm_;
};

}  // namespace

GmgSolver::GmgSolver(const GmgOptions& opts, const CartDecomp& decomp,
                     int rank)
    : opts_(opts), decomp_(decomp), rank_(rank) {
  GMG_REQUIRE(opts_.levels >= 1, "need at least one level");
  GMG_REQUIRE(opts_.smooths >= 1, "need at least one smoothing iteration");
  GMG_REQUIRE(opts_.operator_radius == 1 || opts_.operator_radius == 2,
              "operator radius must be 1 (7-point) or 2 (13-point)");

  // Environment override for the fusion gate (mirrors
  // GMG_EXEC_WORKERS): lets CI and benches flip configurations without
  // a rebuild. "0" disables, anything else enables.
  if (const char* env = std::getenv("GMG_FUSE_STAGES")) {
    opts_.fuse_stages = std::string(env) != "0";
  }

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
  if (opts_.fuse_stages) fused::require_fused_fits(opts_.brick);
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
  // Which ghost groups come from other ranks — a property of the rank
  // grid alone, so identical on every level.
  const std::array<bool, kNumDirections> remote =
      decomp.remote_neighbors(rank);
  bool has_remote = false;
  for (bool r : remote) has_remote = has_remote || r;
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
    lev.remote = remote;
    lev.has_remote = has_remote;
    lev.part = lev.grid->partition(remote);
    lev.part_cells =
        Box{{lev.part.interior_box.lo.x * shape.bx,
             lev.part.interior_box.lo.y * shape.by,
             lev.part.interior_box.lo.z * shape.bz},
            {lev.part.interior_box.hi.x * shape.bx,
             lev.part.interior_box.hi.y * shape.by,
             lev.part.interior_box.hi.z * shape.bz}};
    lev.x = BrickedArray(lev.grid, shape);
    lev.b = BrickedArray(lev.grid, shape);
    lev.Ax = BrickedArray(lev.grid, shape);
    lev.r = BrickedArray(lev.grid, shape);
    if (needs_p()) lev.p = BrickedArray(lev.grid, shape);
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
  GMG_REQUIRE(!storage_detached_,
              "attach_field_storage() before set_rhs on a parked hierarchy");
  MgLevel& fine = levels_.front();
  const real_t h = fine.h;
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t px = (static_cast<real_t>(fine.rank_box.lo.x + i) + 0.5) * h;
    const real_t py = (static_cast<real_t>(fine.rank_box.lo.y + j) + 0.5) * h;
    const real_t pz = (static_cast<real_t>(fine.rank_box.lo.z + k) + 0.5) * h;
    fine.b(i, j, k) = f(px, py, pz);
  });
  init_zero(fine.x);
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    init_zero(levels_[l].x);
    init_zero(levels_[l].b);
  }
  cycle_.after_set_rhs(fine.shape.bx);
  // Back-to-back-solve state audit: p is the one field the first sweep
  // reads before writing (cheby_p_update computes p = r/D + beta*p even
  // when beta == 0), so a value left by the previous solve — or an Inf
  // that 0*p turns into NaN — would leak in. Zero it so a reused
  // hierarchy starts from exactly the constructor's state; Ax and r
  // are always fully written before their first read.
  for (MgLevel& lev : levels_) {
    if (lev.p.size() != 0) init_zero(lev.p);
  }
}

void GmgSolver::detach_field_storage(BrickArena& arena) {
  if (storage_detached_) return;
  for (MgLevel& lev : levels_) {
    arena.release(std::move(lev.x));
    arena.release(std::move(lev.b));
    arena.release(std::move(lev.Ax));
    arena.release(std::move(lev.r));
    if (lev.p.size() != 0) arena.release(std::move(lev.p));
    // coef/diag describe the operator, not one solve — they stay, like
    // the grids, exchange engines and iteration plans.
  }
  storage_detached_ = true;
}

void GmgSolver::attach_field_storage(BrickArena& arena) {
  if (!storage_detached_) return;
  for (MgLevel& lev : levels_) {
    lev.x = arena.acquire(lev.grid, lev.shape);
    lev.b = arena.acquire(lev.grid, lev.shape);
    lev.Ax = arena.acquire(lev.grid, lev.shape);
    lev.r = arena.acquire(lev.grid, lev.shape);
    if (needs_p()) lev.p = arena.acquire(lev.grid, lev.shape);
  }
  // Everything is zero again; mirror the constructor's conservative
  // ghost state so the CA exchange schedule matches a fresh solver's.
  for (GhostState& g : cycle_.ghosts) g = GhostState{};
  storage_detached_ = false;
}

void GmgSolver::set_coefficient(
    comm::Communicator& comm,
    const std::function<real_t(real_t, real_t, real_t)>& f) {
  GMG_REQUIRE(opts_.operator_radius == 1,
              "variable coefficients support the 7-point operator only");
  MgLevel& fine = levels_.front();
  fine.coef = BrickedArray(fine.grid, fine.shape);
  const real_t h = fine.h;
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t px = (static_cast<real_t>(fine.rank_box.lo.x + i) + 0.5) * h;
    const real_t py = (static_cast<real_t>(fine.rank_box.lo.y + j) + 0.5) * h;
    const real_t pz = (static_cast<real_t>(fine.rank_box.lo.z + k) + 0.5) * h;
    const real_t v = f(px, py, pz);
    GMG_REQUIRE(v > 0, "coefficient must be positive");
    fine.coef(i, j, k) = v;
  });
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    levels_[l].coef = BrickedArray(levels_[l].grid, levels_[l].shape);
    restriction(levels_[l].coef, levels_[l - 1].coef);
  }
  SoloRun ex(levels_, profiler_, overlap_, comm);
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
  // The varcoef flip invalidates every const-coefficient kernel
  // binding; re-resolve the plans against the new operator — and
  // re-prove the schedule against the rebound plans (the varcoef
  // kernels have their own effect summaries).
  resolve_kernel_plans();
  if (check::verify_schedule_enabled()) verify_solver_schedule(*this);
}

void GmgSolver::vcycle(comm::Communicator& comm) {
  // Umbrella span so the timeline shows cycle boundaries around the
  // per-phase spans Profiler::timed emits.
  trace::TraceSpan span("gmg.vcycle");
  SoloRun ex(levels_, profiler_, overlap_, comm);
  Cycle<SoloRun>(*this, ex, cycle_).vcycle();
}

void GmgSolver::fmg(comm::Communicator& comm) {
  trace::TraceSpan span("gmg.fmg");
  SoloRun ex(levels_, profiler_, overlap_, comm);
  Cycle<SoloRun>(*this, ex, cycle_).fmg();
}

real_t GmgSolver::residual_norm(comm::Communicator& comm) {
  SoloRun ex(levels_, profiler_, overlap_, comm);
  const std::uint8_t active = 1;
  real_t res = 0;
  Cycle<SoloRun>(*this, ex, cycle_).residual_norms(&active, &res);
  return res;
}

real_t GmgSolver::residual_norm_l2(comm::Communicator& comm) {
  SoloRun ex(levels_, profiler_, overlap_, comm);
  return std::sqrt(Cycle<SoloRun>(*this, ex, cycle_).residual_norm_l2());
}

SolveResult GmgSolver::solve(comm::Communicator& comm,
                             const SolveControl* control) {
  GMG_REQUIRE(!storage_detached_,
              "attach_field_storage() before solving a parked hierarchy");
  Timer timer;
  SolveResult result;
  real_t res = residual_norm(comm);
  result.history.push_back(res);
  while (res > opts_.tolerance && result.vcycles < opts_.max_vcycles) {
    if (control != nullptr) {
      // The abort decision must be unanimous: a rank that left the
      // loop while a peer entered vcycle() would deadlock the peer's
      // collectives. Reduce the local view once per cycle — all ranks
      // see the same max and exit together.
      const bool local =
          control->cancel.load(std::memory_order_relaxed) ||
          (control->deadline_ns != 0 &&
           trace::now_ns() >= control->deadline_ns);
      if (comm.allreduce_max(local ? 1.0 : 0.0) > 0.0) {
        result.cancelled = true;
        break;
      }
    }
    vcycle(comm);
    res = residual_norm(comm);
    result.history.push_back(res);
    ++result.vcycles;
  }
  result.final_residual = res;
  result.converged = !result.cancelled && res <= opts_.tolerance;
  result.seconds = timer.elapsed();
  return result;
}

}  // namespace gmg

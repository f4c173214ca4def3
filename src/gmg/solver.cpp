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
  resolve_kernel_plans();
  // Setup-time schedule proof (DESIGN.md §18): dry-run the planned
  // V-cycle and FMG schedules and statically verify the margin
  // algebra, exchange placement and fused chunk disjointness before
  // the first sweep can execute. Rejects a hazardous configuration
  // here, with a diagnostic naming the offending kernel pair.
  if (check::verify_schedule_enabled()) verify_solver_schedule(*this);
}

void GmgSolver::resolve_kernel_plans() {
  for (MgLevel& lev : levels_) {
    resolve_level_kernels(opts_, lev);
    switch (opts_.smoother) {
      case Smoother::kPointJacobi:
      case Smoother::kWeightedJacobi:
        lev.plan.sweep = &GmgSolver::jacobi_sweeps;
        break;
      case Smoother::kChebyshev:
        lev.plan.sweep = &GmgSolver::chebyshev_sweeps;
        break;
      case Smoother::kRedBlackGS:
        lev.plan.sweep = &GmgSolver::gs_sweeps;
        break;
    }
  }
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
  fine.margin = fine.shape.bx;  // zero ghosts are valid for a zero x
  fine.b_ghosts_valid = false;
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    init_zero(levels_[l].x);
    init_zero(levels_[l].b);
    levels_[l].margin = 0;
    levels_[l].b_ghosts_valid = false;
  }
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
    // Everything is zero again; mirror the constructor's conservative
    // margin so the CA exchange schedule matches a fresh solver's.
    lev.margin = 0;
    lev.b_ghosts_valid = false;
  }
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
  for (MgLevel& lev : levels_) {
    lev.varcoef = true;
    exchange_now(comm, lev, lev.coef);
    lev.diag = BrickedArray(lev.grid, lev.shape);
    // The CA redundant sweeps read the diagonal in the ghost shell;
    // compute it everywhere the taps stay within the ghost bricks.
    varcoef_diagonal(lev.diag, lev.coef, opts_.identity_coef, lev.h,
                     lev.grid->grow_unwrapped(lev.interior(),
                                              lev.shape.bx - 1));
    lev.margin = 0;  // ghosts of x are unrelated to the new operator
  }
  // The varcoef flip invalidates every const-coefficient kernel
  // binding; re-resolve the plans against the new operator — and
  // re-prove the schedule against the rebound plans (the varcoef
  // kernels have their own effect summaries).
  resolve_kernel_plans();
  if (check::verify_schedule_enabled()) verify_solver_schedule(*this);
}

void GmgSolver::exchange_now(comm::Communicator& comm, MgLevel& lev,
                             BrickedArray& field) {
  lev.exchange->exchange(comm, field);
}

void GmgSolver::apply_operator(MgLevel& lev, BrickedArray& out,
                               const BrickedArray& in, const Box& active) {
  // The variant branch chain (varcoef / generated / radius) lives in
  // resolve_level_kernels now; per sweep this is one indirect call.
  lev.plan.apply(out, in, active);
}

void GmgSolver::exchange_for_smooth(comm::Communicator& comm, MgLevel& lev) {
  const bool with_p = opts_.smoother == Smoother::kChebyshev &&
                      lev.p.size() != 0;
  profiler_.timed(lev.level, perf::Phase::kExchange, [&] {
    std::vector<BrickedArray*> fields{&lev.x};
    // Aggregate everything the redundant ghost sweeps will read into
    // one message round (the paper's message aggregation across
    // fields).
    if (opts_.communication_avoiding && !lev.b_ghosts_valid) {
      fields.push_back(&lev.b);
      lev.b_ghosts_valid = true;
    }
    if (with_p && opts_.communication_avoiding) fields.push_back(&lev.p);
    lev.exchange->exchange(comm, fields);
  });
  lev.margin = lev.shape.bx;
}

bool GmgSolver::use_overlap(const MgLevel& lev) const {
  if (!(opts_.overlap && lev.has_remote &&
        static_cast<int>(lev.part.interior.size()) >=
            opts_.overlap_min_interior_bricks)) {
    return false;
  }
  // Work-vs-traffic cutoff: split-phase only pays off when the interior
  // compute hidden behind the messages outweighs the per-exchange
  // split/submit/wait overhead, which scales with the remote payload.
  // Value-neutral either way (DESIGN.md §10).
  if (opts_.overlap_min_compute_bytes_ratio > 0.0) {
    const double interior_bytes =
        static_cast<double>(lev.part.interior.size()) *
        static_cast<double>(lev.shape.volume()) * sizeof(real_t);
    const double remote_bytes =
        static_cast<double>(lev.exchange->remote_bytes_per_exchange());
    if (interior_bytes <
        opts_.overlap_min_compute_bytes_ratio * remote_bytes) {
      return false;
    }
  }
  return true;
}

exec::Engine& GmgSolver::engine() {
  exec::Engine& eng = exec::default_engine();
  const std::uint64_t gen = exec::default_engine_generation();
  if (gen != engine_generation_) {
    compute_stream_ = eng.create_stream("gmg.compute");
    engine_generation_ = gen;
  }
  return eng;
}

void GmgSolver::begin_exchange_for_smooth(comm::Communicator& comm,
                                          MgLevel& lev) {
  const bool with_p = opts_.smoother == Smoother::kChebyshev &&
                      lev.p.size() != 0;
  profiler_.timed(lev.level, perf::Phase::kExchange, [&] {
    std::vector<BrickedArray*> fields{&lev.x};
    if (opts_.communication_avoiding && !lev.b_ghosts_valid) {
      fields.push_back(&lev.b);
      lev.b_ghosts_valid = true;
    }
    if (with_p && opts_.communication_avoiding) fields.push_back(&lev.p);
    lev.exchange->begin(comm, std::move(fields));
  });
  // The margin is claimed at begin time: every consumer of the ghost
  // layers runs after finish_exchange_overlapped() completes them.
  lev.margin = lev.shape.bx;
}

Box GmgSolver::overlap_safe_box(const MgLevel& lev, const Box& active) const {
  if (lev.part.interior_box.empty()) return Box{};
  // Clamp to the interior-partition cells on sides with a remote
  // neighbor (their ghost bricks are in-flight receive targets; one
  // brick of owned surface keeps the stencil taps clear of them).
  // Self-periodic axes wrap onto owned bricks and never grow the
  // active region, so nothing there is in flight.
  Box safe = active;
  for (int d = 0; d < 3; ++d) {
    int off[3] = {0, 0, 0};
    off[d] = -1;
    if (lev.remote[static_cast<std::size_t>(
            direction_index(off[0], off[1], off[2]))])
      safe.lo[d] = std::max(safe.lo[d], lev.part_cells.lo[d]);
    off[d] = 1;
    if (lev.remote[static_cast<std::size_t>(
            direction_index(off[0], off[1], off[2]))])
      safe.hi[d] = std::min(safe.hi[d], lev.part_cells.hi[d]);
  }
  return safe.empty() ? Box{} : safe;
}

void GmgSolver::finish_exchange_overlapped(
    comm::Communicator& comm, MgLevel& lev, const Box& active,
    perf::Phase phase, const std::function<void(const Box&)>& kernel) {
  const Box safe = overlap_safe_box(lev, active);
  exec::Event done;
  double interior_seconds = 0.0;
  if (!safe.empty()) {
    // The worker records the phase span itself (it owns the timing);
    // the aggregate is updated from this thread after done.wait(),
    // because Profiler::stats_ is not thread-safe.
    exec::Engine& eng = engine();
    eng.submit(compute_stream_, "overlap.interior", [&, safe] {
      trace::TraceSpan span(perf::phase_name(phase),
                            perf::phase_category(phase), lev.level);
      kernel(safe);
      interior_seconds = span.close();
    });
    done = eng.record(compute_stream_);
  }
  profiler_.timed(lev.level, perf::Phase::kExchange,
                  [&] { lev.exchange->finish(comm); });
  // Shell sweeps run on this thread while the interior task drains on
  // the stream worker: the shell boxes and the safe box are disjoint
  // cell regions writing disjoint storage (DESIGN.md §10), so the only
  // ordering needed is done.wait() before anyone reads the result.
  const std::vector<Box> shell = shell_boxes(active, safe);
  if (!shell.empty()) {
    profiler_.timed(lev.level, phase, [&] {
      for (const Box& s : shell) kernel(s);
    });
  }
  {
    trace::TraceSpan wait_span("exec.wait_overlap", trace::Category::kWait);
    done.wait();
  }
  if (!safe.empty()) profiler_.record(lev.level, phase, interior_seconds);
}

void GmgSolver::smooth_level(comm::Communicator& comm, MgLevel& lev,
                             int iterations, bool with_residual,
                             BrickedArray* restrict_to) {
  // The former per-call smoother switch, resolved once at setup into
  // the level's plan (kernel_plan.hpp).
  (this->*lev.plan.sweep)(comm, lev, iterations, with_residual, restrict_to);
}

void GmgSolver::gs_sweeps(comm::Communicator& comm, MgLevel& lev,
                          int iterations, bool with_residual,
                          BrickedArray* restrict_to) {
  GMG_REQUIRE(lev.radius == 1 && !lev.varcoef,
              "red-black Gauss-Seidel supports the constant-coefficient "
              "7-point operator only");
  const Box interior = lev.interior();
  const Vec3 origin = lev.rank_box.lo;
  for (int it = 0; it < iterations; ++it) {
    if (opts_.communication_avoiding) {
      // A full red+black iteration consumes two ghost layers.
      bool split = false;
      if (lev.margin < 2 || !lev.b_ghosts_valid) {
        split = use_overlap(lev);
        if (split)
          begin_exchange_for_smooth(comm, lev);
        else
          exchange_for_smooth(comm, lev);
      }
      const Box red_box = lev.grid->grow_unwrapped(interior, lev.margin - 1);
      const Box black_box =
          lev.grid->grow_unwrapped(interior, lev.margin - 2);
      if (split) {
        // A red cell reads only black-parity neighbors, which the red
        // half-sweep never writes — so splitting red by region changes
        // no value. Black needs the red updates everywhere and runs
        // whole, after finish.
        finish_exchange_overlapped(
            comm, lev, red_box, perf::Phase::kSmooth,
            [&](const Box& region) {
              gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, 0, origin,
                             region);
            });
        profiler_.timed(lev.level, perf::Phase::kSmooth, [&] {
          gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, 1, origin,
                         black_box);
        });
      } else {
        profiler_.timed(lev.level, perf::Phase::kSmooth, [&] {
          gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, 0, origin,
                         red_box);
          gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, 1, origin,
                         black_box);
        });
      }
      lev.margin -= 2;
    } else {
      // Without deep ghosts, the black half-sweep needs the red-updated
      // neighbor values: exchange before each half-sweep. Either half
      // splits cleanly by region (a cell never reads its own parity).
      for (int color = 0; color < 2; ++color) {
        if (use_overlap(lev)) {
          begin_exchange_for_smooth(comm, lev);
          finish_exchange_overlapped(
              comm, lev, interior, perf::Phase::kSmooth,
              [&](const Box& region) {
                gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, color,
                               origin, region);
              });
        } else {
          exchange_for_smooth(comm, lev);
          profiler_.timed(lev.level, perf::Phase::kSmooth, [&] {
            gs_color_sweep(lev.x, lev.b, lev.alpha, lev.beta, color, origin,
                           interior);
          });
        }
      }
      lev.margin = 0;
    }
  }
  if (with_residual) {
    // GS updates in place and leaves no fused residual; compute it for
    // the restriction that follows.
    if (lev.margin < 1) {
      if (use_overlap(lev)) {
        begin_exchange_for_smooth(comm, lev);
        finish_exchange_overlapped(
            comm, lev, interior, perf::Phase::kApplyOp,
            [&](const Box& region) {
              apply_operator(lev, lev.Ax, lev.x, region);
            });
      } else {
        exchange_for_smooth(comm, lev);
        profiler_.timed(lev.level, perf::Phase::kApplyOp, [&] {
          apply_operator(lev, lev.Ax, lev.x, interior);
        });
      }
    } else {
      profiler_.timed(lev.level, perf::Phase::kApplyOp, [&] {
        apply_operator(lev, lev.Ax, lev.x, interior);
      });
    }
    if (restrict_to != nullptr && lev.plan.fuse_gs_tail) {
      // Fused tail (the former separate-full-pass small fix): r and
      // its restriction into the coarse RHS in one pass per brick.
      profiler_.timed(lev.level, perf::Phase::kFusedDescent, [&] {
        lev.plan.residual_restrict(*restrict_to);
      });
    } else {
      profiler_.timed(lev.level, perf::Phase::kResidual, [&] {
        residual(lev.r, lev.b, lev.Ax, interior);
      });
    }
  }
}

void GmgSolver::jacobi_sweeps(comm::Communicator& comm, MgLevel& lev,
                              int iterations, bool with_residual,
                              BrickedArray* restrict_to) {
  const Box interior = lev.interior();
  const index_t radius = lev.radius;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    bool split = false;  // exchange begun, to finish around the sweep
    if (opts_.communication_avoiding) {
      // Exchange when the ghost margin is spent — or when b's ghosts
      // are stale, since the redundant sweep reads b there too.
      if (lev.margin < radius || !lev.b_ghosts_valid) {
        split = use_overlap(lev);
        if (split)
          begin_exchange_for_smooth(comm, lev);
        else
          exchange_for_smooth(comm, lev);
      }
      active = lev.grid->grow_unwrapped(interior, lev.margin - radius);
    } else {
      split = use_overlap(lev);
      if (split)
        begin_exchange_for_smooth(comm, lev);
      else
        exchange_for_smooth(comm, lev);
      lev.margin = 0;
    }
    // One pass per brick (DESIGN.md §16): x' lands in the spare buffer
    // (Ax's storage), so the sweep never writes what it reads and splits
    // by region as a whole — interior-then-surface order cannot change
    // a value (DESIGN.md §10). Only the block's last sweep writes r, and
    // on the descent it also folds the restriction of r into the coarse
    // RHS: nothing reads an earlier sweep's residual.
    const bool residual = with_residual && it == iterations - 1;
    BrickedArray* coarse_b = residual ? restrict_to : nullptr;
    const perf::Phase phase = coarse_b != nullptr ? perf::Phase::kFusedDescent
                                                  : perf::Phase::kJacobiSweep;
    const auto sweep = [&](const Box& region) {
      lev.plan.jacobi(region, residual, coarse_b);
    };
    if (split) {
      finish_exchange_overlapped(comm, lev, active, phase, sweep);
    } else {
      profiler_.timed(lev.level, phase, [&] { sweep(active); });
    }
    std::swap(lev.x, lev.Ax);
    if (opts_.communication_avoiding) lev.margin -= radius;
  }
}

void GmgSolver::chebyshev_sweeps(comm::Communicator& comm, MgLevel& lev,
                                 int iterations, bool with_residual,
                                 BrickedArray* restrict_to) {
  (void)with_residual;  // r = b - Ax is produced every sweep anyway
  // Chebyshev cannot fuse the descent: the recurrence consumes r on
  // EVERY sweep and updates x after it, so there is no final pointwise
  // pass to glue the restriction onto. The plan's capability predicate
  // (fuse_descent = false) makes cycle_at keep the split restriction.
  (void)restrict_to;
  const Box interior = lev.interior();
  const index_t radius = lev.radius;
  const real_t lambda_max = opts_.cheby_lambda_max;
  const real_t lambda_min = lambda_max * opts_.cheby_min_frac;
  const real_t theta = 0.5 * (lambda_max + lambda_min);
  const real_t delta = 0.5 * (lambda_max - lambda_min);
  const real_t inv_diag = 1.0 / lev.alpha;

  real_t alpha_ch = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    bool split = false;
    if (opts_.communication_avoiding) {
      if (lev.margin < radius || !lev.b_ghosts_valid) {
        split = use_overlap(lev);
        if (split)
          begin_exchange_for_smooth(comm, lev);
        else
          exchange_for_smooth(comm, lev);
      }
      active = lev.grid->grow_unwrapped(interior, lev.margin - radius);
    } else {
      split = use_overlap(lev);
      if (split)
        begin_exchange_for_smooth(comm, lev);
      else
        exchange_for_smooth(comm, lev);
      lev.margin = 0;
    }
    // Split only the applyOp (DESIGN.md §10); the Chebyshev recurrence
    // below reads Ax and runs once over the full region.
    if (split) {
      finish_exchange_overlapped(
          comm, lev, active, perf::Phase::kApplyOp,
          [&](const Box& region) {
            apply_operator(lev, lev.Ax, lev.x, region);
          });
    } else {
      profiler_.timed(lev.level, perf::Phase::kApplyOp,
                      [&] { apply_operator(lev, lev.Ax, lev.x, active); });
    }
    profiler_.timed(lev.level, perf::Phase::kSmoothResidual, [&] {
      residual(lev.r, lev.b, lev.Ax, active);
      // Chebyshev recurrence on the diagonally preconditioned
      // residual (D^-1 A has spectrum in [lambda_min, lambda_max]).
      real_t beta_ch;
      if (it == 0) {
        beta_ch = 0.0;
        alpha_ch = 1.0 / theta;
      } else {
        beta_ch = 0.25 * (delta * alpha_ch) * (delta * alpha_ch);
        alpha_ch = 1.0 / (theta - beta_ch / alpha_ch);
      }
      if (lev.varcoef) {
        cheby_p_update_varcoef(lev.p, lev.r, lev.diag, beta_ch, active);
      } else {
        cheby_p_update(lev.p, lev.r, inv_diag, beta_ch, active);
      }
      axpy(lev.x, alpha_ch, lev.p, active);
    });
    if (opts_.communication_avoiding) lev.margin -= radius;
  }
}

void GmgSolver::bottom_solve(comm::Communicator& comm) {
  MgLevel& lev = levels_[static_cast<std::size_t>(bottom_level())];
  if (opts_.bottom == BottomSolverType::kSmooth) {
    smooth_level(comm, lev, opts_.bottom_smooths, /*with_residual=*/false);
  } else {
    profiler_.timed(lev.level, perf::Phase::kBottomSolve,
                    [&] { bottom_cg(comm, lev); });
  }
}

void GmgSolver::bottom_cg(comm::Communicator& comm, MgLevel& lev) {
  // Matrix-free conjugate gradient on the coarsest grid. The periodic
  // operator is singular with a constant null space; the RHS reaching
  // the bottom is a restricted residual (mean zero), so the Krylov
  // iteration stays in range(A).
  const Box interior = lev.interior();

  // r = b - A x (x may be nonzero on the second visit of a W-cycle).
  if (lev.margin < lev.radius) {
    exchange_now(comm, lev, lev.x);
    lev.margin = lev.shape.bx;
  }
  apply_operator(lev, lev.Ax, lev.x, interior);
  residual(lev.r, lev.b, lev.Ax, interior);
  copy_interior(lev.p, lev.r);

  real_t rr = comm.allreduce_sum(dot_interior(lev.r, lev.r));
  const real_t stop = opts_.bottom_cg_tolerance * opts_.bottom_cg_tolerance;
  for (int it = 0; it < opts_.bottom_smooths && rr > stop; ++it) {
    exchange_now(comm, lev, lev.p);
    apply_operator(lev, lev.Ax, lev.p, interior);  // Ax := A p
    const real_t pAp = comm.allreduce_sum(dot_interior(lev.p, lev.Ax));
    if (pAp == 0.0) break;
    const real_t a = rr / pAp;
    axpy_interior(lev.x, a, lev.p);
    axpy_interior(lev.r, -a, lev.Ax);
    const real_t rr_new = comm.allreduce_sum(dot_interior(lev.r, lev.r));
    xpay_interior(lev.p, lev.r, rr_new / rr);
    rr = rr_new;
  }
  lev.margin = 0;  // x changed; ghosts are stale
}

void GmgSolver::cycle_at(comm::Communicator& comm, int l) {
  if (l == bottom_level()) {
    bottom_solve(comm);
    return;
  }
  MgLevel& lev = levels_[static_cast<std::size_t>(l)];
  MgLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];

  // Descent: where the plan fuses, the final smoothing sweep also
  // restricts r into the coarse RHS (one pass instead of three stages
  // — DESIGN.md §16); otherwise restriction runs as its own pass.
  BrickedArray* restrict_to =
      lev.plan.fuses_restriction() ? &coarse.b : nullptr;
  smooth_level(comm, lev, opts_.smooths, /*with_residual=*/true, restrict_to);
  if (restrict_to == nullptr) {
    profiler_.timed(l, perf::Phase::kRestriction,
                    [&] { restriction(coarse.b, lev.r); });
  }
  coarse.b_ghosts_valid = false;
  profiler_.timed(l + 1, perf::Phase::kInitZero, [&] { init_zero(coarse.x); });
  coarse.margin = coarse.shape.bx;  // zero ghosts are valid

  cycle_at(comm, l + 1);
  if (opts_.cycle == CycleType::kW) cycle_at(comm, l + 1);

  profiler_.timed(l, perf::Phase::kInterpIncrement,
                  [&] { interpolation_increment(lev.x, coarse.x); });
  lev.margin = 0;  // interior changed; ghosts are stale
  // The ascent leaves no residual: the next descent or residual_norm
  // rewrites r before anything reads it.
  smooth_level(comm, lev, opts_.smooths, /*with_residual=*/false);
}

void GmgSolver::vcycle(comm::Communicator& comm) {
  // Umbrella span so the timeline shows cycle boundaries around the
  // per-phase spans Profiler::timed emits.
  trace::TraceSpan span("gmg.vcycle");
  cycle_at(comm, 0);
}

void GmgSolver::fmg(comm::Communicator& comm) {
  trace::TraceSpan span("gmg.fmg");
  const int bottom = bottom_level();
  // Restrict the RHS itself down the hierarchy.
  for (int l = 0; l < bottom; ++l) {
    MgLevel& lev = levels_[static_cast<std::size_t>(l)];
    MgLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];
    profiler_.timed(l, perf::Phase::kRestriction,
                    [&] { restriction(coarse.b, lev.b); });
    coarse.b_ghosts_valid = false;
  }
  // Solve the coarsest, then work upward: prolong as initial guess,
  // one cycle per level.
  MgLevel& coarsest = levels_[static_cast<std::size_t>(bottom)];
  init_zero(coarsest.x);
  coarsest.margin = coarsest.shape.bx;
  bottom_solve(comm);
  for (int l = bottom - 1; l >= 0; --l) {
    MgLevel& lev = levels_[static_cast<std::size_t>(l)];
    MgLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];
    // FMG needs a higher-order prolongation for its initial guesses;
    // trilinear reads one coarse ghost layer.
    if (coarse.margin < 1) {
      profiler_.timed(l + 1, perf::Phase::kExchange,
                      [&] { exchange_now(comm, coarse, coarse.x); });
      coarse.margin = coarse.shape.bx;
    }
    profiler_.timed(l, perf::Phase::kInterpIncrement,
                    [&] { interpolation_trilinear_assign(lev.x, coarse.x); });
    lev.margin = 0;
    cycle_at(comm, l);
  }
}

real_t GmgSolver::residual_norm(comm::Communicator& comm) {
  MgLevel& fine = levels_.front();
  if (fine.margin < fine.radius && use_overlap(fine)) {
    begin_exchange_for_smooth(comm, fine);
    finish_exchange_overlapped(comm, fine, fine.interior(),
                               perf::Phase::kApplyOp, [&](const Box& region) {
                                 apply_operator(fine, fine.Ax, fine.x, region);
                               });
  } else {
    if (fine.margin < fine.radius) exchange_for_smooth(comm, fine);
    profiler_.timed(0, perf::Phase::kApplyOp, [&] {
      apply_operator(fine, fine.Ax, fine.x, fine.interior());
    });
  }
  real_t local = 0;
  if (fine.plan.fuse_norm) {
    // Fused residual + max-norm: one pass instead of two, bitwise
    // identical to the split pair (fused_kernels.hpp).
    profiler_.timed(0, perf::Phase::kMaxNorm,
                    [&] { local = fine.plan.residual_max_norm(); });
  } else {
    profiler_.timed(0, perf::Phase::kResidual, [&] {
      residual(fine.r, fine.b, fine.Ax, fine.interior());
    });
    profiler_.timed(0, perf::Phase::kMaxNorm,
                    [&] { local = max_norm(fine.r); });
  }
  return comm.allreduce_max(local);
}

real_t GmgSolver::residual_norm_l2(comm::Communicator& comm) {
  MgLevel& fine = levels_.front();
  if (fine.margin < fine.radius) exchange_for_smooth(comm, fine);
  apply_operator(fine, fine.Ax, fine.x, fine.interior());
  residual(fine.r, fine.b, fine.Ax, fine.interior());
  const real_t global_sq = comm.allreduce_sum(norm2_sq(fine.r));
  return std::sqrt(global_sq);
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

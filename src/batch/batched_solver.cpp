#include "batch/batched_solver.hpp"

#include <array>
#include <cmath>

#include "batch/apply_batch.hpp"
#include "batch/batched_audit.hpp"
#include "batch/batched_kernels.hpp"
#include "common/timer.hpp"
#include "dsl/stencils.hpp"
#include "mesh/box.hpp"
#include "trace/trace.hpp"

namespace gmg::batch {

// Every schedule method below is a line-for-line twin of the matching
// GmgSolver method (src/gmg/solver.cpp), with batched kernels and this
// solver's own margin/ghost bookkeeping — same exchange points, same
// active regions, same update order. When editing one side, port the
// change to the other; the bitwise-identity test (test_batch) holds
// both to it.

BatchedSolver::BatchedSolver(GmgSolver& base, int k, BrickArena* arena)
    : base_(base), k_(k), arena_(arena) {
  GMG_REQUIRE(k >= 1, "batch size must be >= 1");
  GMG_REQUIRE(!base.options().use_generated_kernels,
              "batched solves support the hand-written and DSL kernels only "
              "(stencilgen output is emitted for solo layout)");
  const GmgOptions& opts = base.options();
  const CartDecomp& decomp = base.decomp();
  levels_.reserve(static_cast<std::size_t>(base.num_levels()));
  for (int l = 0; l < base.num_levels(); ++l) {
    const MgLevel& lev = base.level(l);
    BatchLevel bl;
    if (arena_ != nullptr) {
      bl.x = BatchedBrickedArray(lev.grid, lev.shape, k, *arena_);
      bl.b = BatchedBrickedArray(lev.grid, lev.shape, k, *arena_);
      bl.Ax = BatchedBrickedArray(lev.grid, lev.shape, k, *arena_);
      bl.r = BatchedBrickedArray(lev.grid, lev.shape, k, *arena_);
      if (needs_p()) bl.p = BatchedBrickedArray(lev.grid, lev.shape, k, *arena_);
    } else {
      bl.x = BatchedBrickedArray(lev.grid, lev.shape, k);
      bl.b = BatchedBrickedArray(lev.grid, lev.shape, k);
      bl.Ax = BatchedBrickedArray(lev.grid, lev.shape, k);
      bl.r = BatchedBrickedArray(lev.grid, lev.shape, k);
      if (needs_p()) bl.p = BatchedBrickedArray(lev.grid, lev.shape, k);
    }
    // One stretched-shape exchange engine per level: a single round
    // moves all K components of every aggregated field per neighbor.
    bl.exchange = std::make_unique<comm::BrickExchange>(
        lev.grid, stretched_shape(lev.shape, k), decomp, base.rank(),
        opts.exchange_mode);
    levels_.push_back(std::move(bl));
  }
  solutions_.assign(static_cast<std::size_t>(k_), {});
  if (check::verify_schedule_enabled()) verify_batched_schedule(*this);
}

void BatchedSolver::exchange_now(comm::Communicator& comm, BatchLevel& bl,
                                 BrickedArray& field) {
  bl.exchange->exchange(comm, field);
}

BatchedSolver::~BatchedSolver() {
  if (arena_ == nullptr) return;
  for (BatchLevel& bl : levels_) {
    bl.x.release_to(*arena_);
    bl.b.release_to(*arena_);
    bl.Ax.release_to(*arena_);
    bl.r.release_to(*arena_);
    if (bl.p.size() != 0) bl.p.release_to(*arena_);
  }
}

void BatchedSolver::set_rhs(
    const std::vector<std::function<real_t(real_t, real_t, real_t)>>& fs) {
  GMG_REQUIRE(static_cast<int>(fs.size()) == k_,
              "need one RHS function per batch component");
  const MgLevel& fine = base_level(0);
  BatchLevel& bf = levels_.front();
  const real_t h = fine.h;
  for_each(fine.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t px = (static_cast<real_t>(fine.rank_box.lo.x + i) + 0.5) * h;
    const real_t py = (static_cast<real_t>(fine.rank_box.lo.y + j) + 0.5) * h;
    const real_t pz = (static_cast<real_t>(fine.rank_box.lo.z + k) + 0.5) * h;
    for (int c = 0; c < k_; ++c) {
      bf.b.at(i, j, k, c) = fs[static_cast<std::size_t>(c)](px, py, pz);
    }
  });
  init_zero(bf.x);
  bf.margin = fine.shape.bx;  // zero ghosts are valid for a zero x
  bf.b_ghosts_valid = false;
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    init_zero(levels_[l].x);
    init_zero(levels_[l].b);
    levels_[l].margin = 0;
    levels_[l].b_ghosts_valid = false;
  }
  // Same back-to-back-solve audit as GmgSolver::set_rhs: p is read
  // before written by the first Chebyshev sweep.
  for (BatchLevel& bl : levels_) {
    if (bl.p.size() != 0) init_zero(bl.p);
  }
}

void BatchedSolver::apply_operator(const MgLevel& lev, BatchedBrickedArray& out,
                                   const BatchedBrickedArray& in,
                                   const Box& active) {
  if (lev.varcoef) {
    apply_op_varcoef(out, in, lev.coef, base_.options().identity_coef, lev.h,
                     active);
  } else if (lev.radius == 1) {
    apply_op(out, in, lev.alpha, lev.beta, active);
  } else {
    const auto expr = dsl::star_stencil<2, 0>(
        std::array<real_t, 3>{lev.alpha, lev.beta, lev.beta2});
    batch::apply(expr, out, active, in);
  }
}

void BatchedSolver::exchange_for_smooth(comm::Communicator& comm, int l) {
  const GmgOptions& opts = base_.options();
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  const bool with_p =
      opts.smoother == Smoother::kChebyshev && bl.p.size() != 0;
  std::vector<BrickedArray*> fields{&bl.x.inner()};
  if (opts.communication_avoiding && !bl.b_ghosts_valid) {
    fields.push_back(&bl.b.inner());
    bl.b_ghosts_valid = true;
  }
  if (with_p && opts.communication_avoiding) fields.push_back(&bl.p.inner());
  bl.exchange->exchange(comm, fields);
  bl.margin = base_level(l).shape.bx;
}

bool BatchedSolver::use_overlap(int l) const {
  const GmgOptions& opts = base_.options();
  const MgLevel& lev = base_level(l);
  const BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  if (!(opts.overlap && lev.has_remote &&
        static_cast<int>(lev.part.interior.size()) >=
            opts.overlap_min_interior_bricks)) {
    return false;
  }
  if (opts.overlap_min_compute_bytes_ratio > 0.0) {
    // Stretched numbers on both sides of the ratio (interior work and
    // remote payload both scale by K, so the cutoff is K-invariant).
    const double interior_bytes =
        static_cast<double>(lev.part.interior.size()) *
        static_cast<double>(lev.shape.volume()) *
        static_cast<double>(k_) * sizeof(real_t);
    const double remote_bytes =
        static_cast<double>(bl.exchange->remote_bytes_per_exchange());
    if (interior_bytes <
        opts.overlap_min_compute_bytes_ratio * remote_bytes) {
      return false;
    }
  }
  return true;
}

exec::Engine& BatchedSolver::engine() {
  exec::Engine& eng = exec::default_engine();
  const std::uint64_t gen = exec::default_engine_generation();
  if (gen != engine_generation_) {
    compute_stream_ = eng.create_stream("batch.compute");
    engine_generation_ = gen;
  }
  return eng;
}

void BatchedSolver::begin_exchange_for_smooth(comm::Communicator& comm,
                                              int l) {
  const GmgOptions& opts = base_.options();
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  const bool with_p =
      opts.smoother == Smoother::kChebyshev && bl.p.size() != 0;
  std::vector<BrickedArray*> fields{&bl.x.inner()};
  if (opts.communication_avoiding && !bl.b_ghosts_valid) {
    fields.push_back(&bl.b.inner());
    bl.b_ghosts_valid = true;
  }
  if (with_p && opts.communication_avoiding) fields.push_back(&bl.p.inner());
  bl.exchange->begin(comm, std::move(fields));
  // Margin claimed at begin time, completed by
  // finish_exchange_overlapped — same contract as the solo solver.
  bl.margin = base_level(l).shape.bx;
}

Box BatchedSolver::overlap_safe_box(const MgLevel& lev,
                                    const Box& active) const {
  if (lev.part.interior_box.empty()) return Box{};
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

void BatchedSolver::finish_exchange_overlapped(
    comm::Communicator& comm, int l, const Box& active,
    const std::function<void(const Box&)>& kernel) {
  const MgLevel& lev = base_level(l);
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  const Box safe = overlap_safe_box(lev, active);
  exec::Event done;
  if (!safe.empty()) {
    exec::Engine& eng = engine();
    eng.submit(compute_stream_, "overlap.interior", [&, safe] {
      trace::TraceSpan span("batch.overlap.interior");
      kernel(safe);
    });
    done = eng.record(compute_stream_);
  }
  bl.exchange->finish(comm);
  const std::vector<Box> shell = shell_boxes(active, safe);
  for (const Box& s : shell) kernel(s);
  {
    trace::TraceSpan wait_span("exec.wait_overlap", trace::Category::kWait);
    done.wait();
  }
}

void BatchedSolver::smooth_level(comm::Communicator& comm, int l,
                                 int iterations, bool with_residual,
                                 BatchedBrickedArray* restrict_to) {
  // The smoother choice and the per-smoother fusion capability both
  // come from the base level's KernelPlan (resolved once at setup by
  // the solo specializer) — the batched path makes no fusion decision
  // of its own.
  switch (base_.options().smoother) {
    case Smoother::kPointJacobi:
    case Smoother::kWeightedJacobi:
      jacobi_sweeps(comm, l, iterations, with_residual, restrict_to);
      break;
    case Smoother::kChebyshev:
      chebyshev_sweeps(comm, l, iterations, with_residual, restrict_to);
      break;
    case Smoother::kRedBlackGS:
      gs_sweeps(comm, l, iterations, with_residual, restrict_to);
      break;
  }
}

void BatchedSolver::gs_sweeps(comm::Communicator& comm, int l, int iterations,
                              bool with_residual,
                              BatchedBrickedArray* restrict_to) {
  const MgLevel& lev = base_level(l);
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  GMG_REQUIRE(lev.radius == 1 && !lev.varcoef,
              "red-black Gauss-Seidel supports the constant-coefficient "
              "7-point operator only");
  const GmgOptions& opts = base_.options();
  const Box interior = lev.interior();
  const Vec3 origin = lev.rank_box.lo;
  for (int it = 0; it < iterations; ++it) {
    if (opts.communication_avoiding) {
      bool split = false;
      if (bl.margin < 2 || !bl.b_ghosts_valid) {
        split = use_overlap(l);
        if (split)
          begin_exchange_for_smooth(comm, l);
        else
          exchange_for_smooth(comm, l);
      }
      const Box red_box = lev.grid->grow_unwrapped(interior, bl.margin - 1);
      const Box black_box = lev.grid->grow_unwrapped(interior, bl.margin - 2);
      if (split) {
        finish_exchange_overlapped(
            comm, l, red_box, [&](const Box& region) {
              gs_color_sweep(bl.x, bl.b, lev.alpha, lev.beta, 0, origin,
                             region);
            });
        gs_color_sweep(bl.x, bl.b, lev.alpha, lev.beta, 1, origin, black_box);
      } else {
        gs_color_sweep(bl.x, bl.b, lev.alpha, lev.beta, 0, origin, red_box);
        gs_color_sweep(bl.x, bl.b, lev.alpha, lev.beta, 1, origin, black_box);
      }
      bl.margin -= 2;
    } else {
      for (int color = 0; color < 2; ++color) {
        if (use_overlap(l)) {
          begin_exchange_for_smooth(comm, l);
          finish_exchange_overlapped(
              comm, l, interior, [&](const Box& region) {
                gs_color_sweep(bl.x, bl.b, lev.alpha, lev.beta, color, origin,
                               region);
              });
        } else {
          exchange_for_smooth(comm, l);
          gs_color_sweep(bl.x, bl.b, lev.alpha, lev.beta, color, origin,
                         interior);
        }
      }
      bl.margin = 0;
    }
  }
  if (with_residual) {
    if (bl.margin < 1) {
      if (use_overlap(l)) {
        begin_exchange_for_smooth(comm, l);
        finish_exchange_overlapped(comm, l, interior,
                                   [&](const Box& region) {
                                     apply_operator(lev, bl.Ax, bl.x, region);
                                   });
      } else {
        exchange_for_smooth(comm, l);
        apply_operator(lev, bl.Ax, bl.x, interior);
      }
    } else {
      apply_operator(lev, bl.Ax, bl.x, interior);
    }
    if (restrict_to != nullptr && lev.plan.fuse_gs_tail) {
      residual_restrict(bl.r, *restrict_to, bl.b, bl.Ax);
    } else {
      residual(bl.r, bl.b, bl.Ax, interior);
    }
  }
}

void BatchedSolver::jacobi_sweeps(comm::Communicator& comm, int l,
                                  int iterations, bool with_residual,
                                  BatchedBrickedArray* restrict_to) {
  const MgLevel& lev = base_level(l);
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  const GmgOptions& opts = base_.options();
  const Box interior = lev.interior();
  const real_t weight = lev.plan.weight;
  const real_t gamma = -weight / lev.alpha;
  const index_t radius = lev.radius;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    bool split = false;
    if (opts.communication_avoiding) {
      if (bl.margin < radius || !bl.b_ghosts_valid) {
        split = use_overlap(l);
        if (split)
          begin_exchange_for_smooth(comm, l);
        else
          exchange_for_smooth(comm, l);
      }
      active = lev.grid->grow_unwrapped(interior, bl.margin - radius);
    } else {
      split = use_overlap(l);
      if (split)
        begin_exchange_for_smooth(comm, l);
      else
        exchange_for_smooth(comm, l);
      bl.margin = 0;
    }
    if (split) {
      finish_exchange_overlapped(comm, l, active, [&](const Box& region) {
        apply_operator(lev, bl.Ax, bl.x, region);
      });
    } else {
      apply_operator(lev, bl.Ax, bl.x, active);
    }
    const bool fuse_final = with_residual && restrict_to != nullptr &&
                            lev.plan.fuse_descent && it == iterations - 1;
    if (fuse_final) {
      if (lev.varcoef) {
        smooth_residual_restrict_varcoef(bl.x, bl.r, *restrict_to, bl.Ax,
                                         bl.b, lev.diag, weight, active);
      } else {
        smooth_residual_restrict(bl.x, bl.r, *restrict_to, bl.Ax, bl.b,
                                 gamma, active);
      }
    } else if (with_residual) {
      if (lev.varcoef) {
        smooth_residual_varcoef(bl.x, bl.r, bl.Ax, bl.b, lev.diag, weight,
                                active);
      } else {
        smooth_residual(bl.x, bl.r, bl.Ax, bl.b, gamma, active);
      }
    } else {
      if (lev.varcoef) {
        smooth_varcoef(bl.x, bl.Ax, bl.b, lev.diag, weight, active);
      } else {
        smooth(bl.x, bl.Ax, bl.b, gamma, active);
      }
    }
    if (opts.communication_avoiding) bl.margin -= radius;
  }
}

void BatchedSolver::chebyshev_sweeps(comm::Communicator& comm, int l,
                                     int iterations, bool with_residual,
                                     BatchedBrickedArray* restrict_to) {
  (void)with_residual;  // r = b - Ax is produced every sweep anyway
  (void)restrict_to;    // split fallback: the recurrence consumes r
                        // every sweep, so the caller restricts
  const MgLevel& lev = base_level(l);
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  const GmgOptions& opts = base_.options();
  const Box interior = lev.interior();
  const index_t radius = lev.radius;
  const real_t lambda_max = opts.cheby_lambda_max;
  const real_t lambda_min = lambda_max * opts.cheby_min_frac;
  const real_t theta = 0.5 * (lambda_max + lambda_min);
  const real_t delta = 0.5 * (lambda_max - lambda_min);
  const real_t inv_diag = 1.0 / lev.alpha;

  real_t alpha_ch = 0.0;
  for (int it = 0; it < iterations; ++it) {
    Box active = interior;
    bool split = false;
    if (opts.communication_avoiding) {
      if (bl.margin < radius || !bl.b_ghosts_valid) {
        split = use_overlap(l);
        if (split)
          begin_exchange_for_smooth(comm, l);
        else
          exchange_for_smooth(comm, l);
      }
      active = lev.grid->grow_unwrapped(interior, bl.margin - radius);
    } else {
      split = use_overlap(l);
      if (split)
        begin_exchange_for_smooth(comm, l);
      else
        exchange_for_smooth(comm, l);
      bl.margin = 0;
    }
    if (split) {
      finish_exchange_overlapped(comm, l, active, [&](const Box& region) {
        apply_operator(lev, bl.Ax, bl.x, region);
      });
    } else {
      apply_operator(lev, bl.Ax, bl.x, active);
    }
    residual(bl.r, bl.b, bl.Ax, active);
    real_t beta_ch;
    if (it == 0) {
      beta_ch = 0.0;
      alpha_ch = 1.0 / theta;
    } else {
      beta_ch = 0.25 * (delta * alpha_ch) * (delta * alpha_ch);
      alpha_ch = 1.0 / (theta - beta_ch / alpha_ch);
    }
    if (lev.varcoef) {
      cheby_p_update_varcoef(bl.p, bl.r, lev.diag, beta_ch, active);
    } else {
      cheby_p_update(bl.p, bl.r, inv_diag, beta_ch, active);
    }
    axpy(bl.x, alpha_ch, bl.p, active);
    if (opts.communication_avoiding) bl.margin -= radius;
  }
}

void BatchedSolver::bottom_solve(comm::Communicator& comm) {
  if (base_.options().bottom == BottomSolverType::kSmooth) {
    smooth_level(comm, bottom_level(), base_.options().bottom_smooths,
                 /*with_residual=*/false);
  } else {
    bottom_cg(comm, bottom_level());
  }
}

void BatchedSolver::bottom_cg(comm::Communicator& comm, int l) {
  // Masked CG: per-component scalars (rr, pAp, step length) and
  // per-component freezing where the solo iteration would have exited
  // (rr <= stop, or a pAp breakdown). Exchanges and the operator
  // application keep running over all K components — a frozen
  // component's p never changes, so re-exchanging and re-applying it
  // perturbs nothing — while the masked axpy/xpay updates skip frozen
  // components so their x, r, p stay exactly at the solo exit state.
  // All freeze decisions derive from allreduced scalars, so every rank
  // agrees on the collective count and order (component order).
  const MgLevel& lev = base_level(l);
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  const GmgOptions& opts = base_.options();
  const Box interior = lev.interior();

  if (bl.margin < lev.radius) {
    exchange_now(comm, bl, bl.x.inner());
    bl.margin = lev.shape.bx;
  }
  apply_operator(lev, bl.Ax, bl.x, interior);
  residual(bl.r, bl.b, bl.Ax, interior);
  copy_interior(bl.p, bl.r);

  const real_t stop = opts.bottom_cg_tolerance * opts.bottom_cg_tolerance;
  std::vector<real_t> rr(static_cast<std::size_t>(k_));
  std::vector<bool> live(static_cast<std::size_t>(k_));
  int nlive = 0;
  for (int c = 0; c < k_; ++c) {
    rr[static_cast<std::size_t>(c)] =
        comm.allreduce_sum(dot_interior(bl.r, bl.r, c));
    live[static_cast<std::size_t>(c)] = rr[static_cast<std::size_t>(c)] > stop;
    if (live[static_cast<std::size_t>(c)]) ++nlive;
  }
  for (int it = 0; it < opts.bottom_smooths && nlive > 0; ++it) {
    exchange_now(comm, bl, bl.p.inner());
    apply_operator(lev, bl.Ax, bl.p, interior);  // Ax := A p
    for (int c = 0; c < k_; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      if (!live[cc]) continue;
      const real_t pAp = comm.allreduce_sum(dot_interior(bl.p, bl.Ax, c));
      if (pAp == 0.0) {
        live[cc] = false;
        --nlive;
        continue;
      }
      const real_t a = rr[cc] / pAp;
      axpy_interior(bl.x, a, bl.p, c);
      axpy_interior(bl.r, -a, bl.Ax, c);
      const real_t rr_new = comm.allreduce_sum(dot_interior(bl.r, bl.r, c));
      xpay_interior(bl.p, bl.r, rr_new / rr[cc], c);
      rr[cc] = rr_new;
      if (!(rr[cc] > stop)) {
        live[cc] = false;
        --nlive;
      }
    }
  }
  bl.margin = 0;  // x changed; ghosts are stale
}

void BatchedSolver::cycle_at(comm::Communicator& comm, int l) {
  if (l == bottom_level()) {
    bottom_solve(comm);
    return;
  }
  const GmgOptions& opts = base_.options();
  BatchLevel& bl = levels_[static_cast<std::size_t>(l)];
  BatchLevel& coarse = levels_[static_cast<std::size_t>(l + 1)];

  // Same fused-descent wiring as the solo cycle_at: when the base
  // level's plan fuses the restriction, the smoother's final sweep
  // writes coarse.b directly and the split pass disappears.
  BatchedBrickedArray* restrict_to =
      base_level(l).plan.fuses_restriction() ? &coarse.b : nullptr;
  smooth_level(comm, l, opts.smooths, /*with_residual=*/true, restrict_to);
  if (restrict_to == nullptr) restriction(coarse.b, bl.r);
  coarse.b_ghosts_valid = false;
  init_zero(coarse.x);
  coarse.margin = base_level(l + 1).shape.bx;  // zero ghosts are valid

  cycle_at(comm, l + 1);
  if (opts.cycle == CycleType::kW) cycle_at(comm, l + 1);

  interpolation_increment(bl.x, coarse.x);
  bl.margin = 0;  // interior changed; ghosts are stale
  // No ascent residual, as in the solo cycle_at.
  smooth_level(comm, l, opts.smooths, /*with_residual=*/false);
}

void BatchedSolver::vcycle(comm::Communicator& comm) {
  trace::TraceSpan span("batch.vcycle");
  cycle_at(comm, 0);
}

void BatchedSolver::residual_norms(comm::Communicator& comm,
                                   const std::vector<bool>& active,
                                   std::vector<real_t>& res) {
  const MgLevel& lev = base_level(0);
  BatchLevel& bl = levels_.front();
  const Box interior = lev.interior();
  if (bl.margin < lev.radius && use_overlap(0)) {
    begin_exchange_for_smooth(comm, 0);
    finish_exchange_overlapped(comm, 0, interior, [&](const Box& region) {
      apply_operator(lev, bl.Ax, bl.x, region);
    });
  } else {
    if (bl.margin < lev.radius) exchange_for_smooth(comm, 0);
    apply_operator(lev, bl.Ax, bl.x, interior);
  }
  // Stays split (no fused residual+max-norm here): the reduction is
  // per-component with retirement masking, so one residual pass feeds
  // up to K separate strided reduces — and the split pair is value-
  // identical to the solo fused kernel anyway.
  residual(bl.r, bl.b, bl.Ax, interior);
  // Retired components are skipped consistently on every rank (their
  // retirement derived from allreduced values), keeping the collective
  // count and order rank-uniform.
  for (int c = 0; c < k_; ++c) {
    if (!active[static_cast<std::size_t>(c)]) continue;
    res[static_cast<std::size_t>(c)] = comm.allreduce_max(max_norm(bl.r, c));
  }
}

Vec3 BatchedSolver::solution_extent() const {
  return base_level(0).cells;
}

void BatchedSolver::snapshot_solution(int c) {
  const MgLevel& fine = base_level(0);
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
  Timer timer;
  trace::counter_add("batch.solves", 1);
  trace::counter_add("batch.components", static_cast<std::uint64_t>(k_));
  std::vector<SolveResult> results(static_cast<std::size_t>(k_));
  std::vector<bool> active(static_cast<std::size_t>(k_), true);
  std::vector<real_t> res(static_cast<std::size_t>(k_), 0.0);
  int live = k_;

  const auto retire = [&](int c) {
    const std::size_t cc = static_cast<std::size_t>(c);
    active[cc] = false;
    results[cc].final_residual = res[cc];
    results[cc].converged = !results[cc].cancelled &&
                            res[cc] <= specs[cc].tolerance;
    results[cc].seconds = timer.elapsed();
    snapshot_solution(c);
    --live;
  };

  residual_norms(comm, active, res);
  for (int c = 0; c < k_; ++c) {
    results[static_cast<std::size_t>(c)].history.push_back(
        res[static_cast<std::size_t>(c)]);
  }
  // The per-component retirement points replicate the solo cycle
  // loop's exits exactly: loop-condition check (converged or budget
  // spent) first, then the collective cancel/deadline check, then the
  // cycle. A component that retires mid-batch keeps riding the
  // schedule, but its result and solution snapshot are frozen here.
  for (int c = 0; c < k_; ++c) {
    const std::size_t cc = static_cast<std::size_t>(c);
    if (!(res[cc] > specs[cc].tolerance &&
          results[cc].vcycles < specs[cc].max_vcycles)) {
      retire(c);
    }
  }
  while (live > 0) {
    for (int c = 0; c < k_; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      if (!active[cc] || specs[cc].control == nullptr) continue;
      const SolveControl* control = specs[cc].control;
      const bool local =
          control->cancel.load(std::memory_order_relaxed) ||
          (control->deadline_ns != 0 &&
           trace::now_ns() >= control->deadline_ns);
      if (comm.allreduce_max(local ? 1.0 : 0.0) > 0.0) {
        results[cc].cancelled = true;
        retire(c);
      }
    }
    if (live == 0) break;
    vcycle(comm);
    residual_norms(comm, active, res);
    for (int c = 0; c < k_; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      if (!active[cc]) continue;
      results[cc].history.push_back(res[cc]);
      ++results[cc].vcycles;
    }
    for (int c = 0; c < k_; ++c) {
      const std::size_t cc = static_cast<std::size_t>(c);
      if (!active[cc]) continue;
      if (!(res[cc] > specs[cc].tolerance &&
            results[cc].vcycles < specs[cc].max_vcycles)) {
        retire(c);
      }
    }
  }
  return results;
}

}  // namespace gmg::batch

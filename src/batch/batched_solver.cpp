#include "batch/batched_solver.hpp"

#include <array>
#include <cmath>

#include "batch/apply_batch.hpp"
#include "batch/batched_kernels.hpp"
#include "common/timer.hpp"
#include "dsl/stencils.hpp"
#include "gmg/cycle.hpp"
#include "gmg/schedule_audit.hpp"
#include "trace/trace.hpp"

namespace gmg::batch {

/// The batched run executor of the cycle (gmg/cycle.hpp): the
/// K-component fields and the batched kernels, one stretched exchange
/// round per aggregated exchange. Untimed — the batched path keeps no
/// profiler — and without the fused residual+max-norm: the convergence
/// norms are per component with retirement masking, so one residual
/// pass feeds up to K strided reduces (value-identical to the solo
/// fused kernel anyway).
class BatchedSolver::Run {
 public:
  Run(BatchedSolver& bs, comm::Communicator& comm) : bs_(bs), comm_(comm) {}

  int k() const { return bs_.k_; }
  template <class Fn>
  void timed(int, perf::Phase, Fn&& fn) {
    fn();
  }

  // Exchange primitives: the only direct exchange-engine calls of the
  // batched path.
  void exchange(int l, const FieldSet& fs) {
    bl(l).exchange->exchange(comm_, fields(l, fs));
  }
  void begin(int l, const FieldSet& fs) {
    bl(l).exchange->begin(comm_, fields(l, fs));
  }
  template <class Kernel>
  void finish(int l, const Box& active, const Box& safe, perf::Phase phase,
              Kernel& kernel) {
    finish_exchange_overlapped(
        comm_, *bl(l).exchange, bs_.overlap_, nullptr, l, active, safe, phase,
        [&](const Box& region) { kernel(region, false); });
  }

  void apply(int l, Fld out, Fld in, const Box& box, bool) {
    apply_operator(l, f(l, out), f(l, in), box);
  }
  /// The solo two-stage body: A*x into the spare buffer, then the
  /// pointwise update over it; the cycle swaps x and Ax afterwards.
  void jacobi(int l, const Box& box, bool residual, bool restrict, bool) {
    const MgLevel& L = base(l);
    BatchLevel& B = bl(l);
    apply_operator(l, B.Ax, B.x, box);
    jacobi_update(B.Ax, residual ? &B.r : nullptr,
                  restrict ? &bl(l + 1).b : nullptr, B.x, B.b,
                  L.varcoef ? L.plan.weight : -L.plan.weight / L.alpha,
                  L.varcoef ? &L.diag : nullptr, box);
  }
  void swap(int l) { std::swap(bl(l).x, bl(l).Ax); }
  void gs_color(int l, int color, const Box& box, bool) {
    const MgLevel& L = base(l);
    gs_color_sweep(bl(l).x, bl(l).b, L.alpha, L.beta, color, L.rank_box.lo,
                   box);
  }
  void residual(int l, const Box& box) {
    batch::residual(bl(l).r, bl(l).b, bl(l).Ax, box);
  }
  void residual_restrict(int l) {
    batch::residual_restrict(bl(l).r, bl(l + 1).b, bl(l).b, bl(l).Ax);
  }
  void restriction(int l, Fld fine) {
    batch::restriction(bl(l + 1).b, f(l, fine));
  }
  void init_zero_x(int l, const Box&) { init_zero(bl(l).x); }
  void interp_increment(int l) {
    interpolation_increment(bl(l).x, bl(l + 1).x);
  }
  void cheby_p(int l, const Box& box, real_t beta) {
    const MgLevel& L = base(l);
    if (L.varcoef) {
      cheby_p_update_varcoef(bl(l).p, bl(l).r, L.diag, beta, box);
    } else {
      cheby_p_update(bl(l).p, bl(l).r, 1.0 / L.alpha, beta, box);
    }
  }
  void axpy_p(int l, real_t alpha, const Box& box) {
    axpy(bl(l).x, alpha, bl(l).p, box);
  }
  void copy(int l, Fld dst, Fld src) { copy_interior(f(l, dst), f(l, src)); }
  real_t dot(int l, Fld a, Fld b, int c) {
    return dot_interior(f(l, a), f(l, b), c);
  }
  void axpy_interior(int l, Fld y, real_t a, Fld x, int c) {
    batch::axpy_interior(f(l, y), a, f(l, x), c);
  }
  void xpay_interior(int l, Fld y, Fld x, real_t beta, int c) {
    batch::xpay_interior(f(l, y), f(l, x), beta, c);
  }
  real_t max_norm(int c) { return batch::max_norm(bl(0).r, c); }
  int next_group() { return 0; }
  real_t allreduce_sum(real_t v, const char*, int, int, int, bool) {
    return comm_.allreduce_sum(v);
  }
  real_t allreduce_max(real_t v, const char*, int, int, int, bool) {
    return comm_.allreduce_max(v);
  }
  int cg_iterations(int budget) const { return budget; }

 private:
  const MgLevel& base(int l) const { return bs_.base_.level(l); }
  BatchLevel& bl(int l) { return bs_.levels_[static_cast<std::size_t>(l)]; }
  BatchedBrickedArray& f(int l, Fld fld) { return field(bl(l), fld); }
  std::vector<BrickedArray*> fields(int l, const FieldSet& fs) {
    std::vector<BrickedArray*> out(static_cast<std::size_t>(fs.n));
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = &f(l, fs.f[i]).inner();
    return out;
  }
  void apply_operator(int l, BatchedBrickedArray& out,
                      const BatchedBrickedArray& in, const Box& active) {
    const MgLevel& L = base(l);
    if (L.varcoef) {
      apply_op_varcoef(out, in, L.coef, bs_.base_.options().identity_coef,
                       L.h, active);
    } else if (L.radius == 1) {
      apply_op(out, in, L.alpha, L.beta, active);
    } else {
      const auto expr = dsl::star_stencil<2, 0>(
          std::array<real_t, 3>{L.alpha, L.beta, L.beta2});
      batch::apply(expr, out, active, in);
    }
  }

  BatchedSolver& bs_;
  comm::Communicator& comm_;
};

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
  cycle_ = CycleState(num_levels(), k_);
  if (check::verify_schedule_enabled()) verify_batched_schedule(*this);
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
  const MgLevel& fine = base_.level(0);
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
  for (std::size_t l = 1; l < levels_.size(); ++l) {
    init_zero(levels_[l].x);
    init_zero(levels_[l].b);
  }
  cycle_.after_set_rhs(fine.shape.bx);
  // Same back-to-back-solve audit as GmgSolver::set_rhs: p is read
  // before written by the first Chebyshev sweep.
  for (BatchLevel& bl : levels_) {
    if (bl.p.size() != 0) init_zero(bl.p);
  }
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
  Timer timer;
  trace::counter_add("batch.solves", 1);
  trace::counter_add("batch.components", static_cast<std::uint64_t>(k_));
  std::vector<SolveResult> results(static_cast<std::size_t>(k_));
  std::vector<std::uint8_t> active(static_cast<std::size_t>(k_), 1);
  std::vector<real_t> res(static_cast<std::size_t>(k_), 0.0);
  int live = k_;
  Run ex(*this, comm);
  Cycle<Run> cycle(base_, ex, cycle_);

  const auto retire = [&](int c) {
    const std::size_t cc = static_cast<std::size_t>(c);
    active[cc] = 0;
    results[cc].final_residual = res[cc];
    results[cc].converged = !results[cc].cancelled &&
                            res[cc] <= specs[cc].tolerance;
    results[cc].seconds = timer.elapsed();
    snapshot_solution(c);
    --live;
  };

  cycle.residual_norms(active.data(), res.data());
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
    {
      trace::TraceSpan span("batch.vcycle");
      cycle.vcycle();
    }
    cycle.residual_norms(active.data(), res.data());
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

check::Schedule record_batched_schedule(const BatchedSolver& bs) {
  const GmgSolver& base = bs.base();
  const int k = bs.batch();
  check::ScheduleRecorder rec("batch.solve");
  Record ex(rec, base, k, /*batched=*/true);
  ex.add_levels();
  CycleState st(base.num_levels(), k);
  st.after_set_rhs(base.level(0).shape.bx);
  Cycle<Record> cycle(base, ex, st);
  std::vector<std::uint8_t> active(static_cast<std::size_t>(k), 1);
  std::vector<real_t> res(static_cast<std::size_t>(k), 0.0);

  cycle.residual_norms(active.data(), res.data());
  cycle.vcycle();
  cycle.residual_norms(active.data(), res.data());
  // Representative retirement: component 0 leaves the batch between
  // cycles; the masked norm groups after it cover only survivors, in
  // ascending order, while the bottom CG keeps the full width.
  if (k > 1) {
    rec.retire(0);
    active[0] = 0;
  }
  cycle.vcycle();
  cycle.residual_norms(active.data(), res.data());
  return rec.take();
}

void verify_batched_schedule(const BatchedSolver& bs) {
  check::ScheduleVerifier().verify(record_batched_schedule(bs));
}

}  // namespace gmg::batch

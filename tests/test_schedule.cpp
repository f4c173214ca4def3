// Setup-time schedule verification (DESIGN.md §18): parity between the
// static prover and the runtime GMG_CHECK detector across the solver
// configuration matrix, plus seeded schedule-hazard classes that the
// verifier must reject at setup with a sourced diagnostic — a dropped
// exchange, an undeclared fused write box, a masked plan scheduling a
// covered brick, a retired batch component whose collectives resurrect,
// a reordered reduction group, duplicated fused chunk writes, a Jacobi
// sweep that writes the field it reads through its stencil, and a write
// past the interior on a wrapped (self-periodic) axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "batch/batched_solver.hpp"
#include "check/schedule.hpp"
#include "check/shadow.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/schedule_audit.hpp"
#include "gmg/solver.hpp"
#include "trace/trace.hpp"

namespace gmg {
namespace {

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}
real_t bump_rhs(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) *
         std::cos(2 * M_PI * z);
}

GmgOptions matrix_options(Smoother sm) {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 4;
  o.bottom_smooths = 10;
  o.brick = BrickShape::cube(4);
  o.smoother = sm;
  o.max_vcycles = 2;
  o.tolerance = 0;  // run the full cycle budget
  return o;
}

const Smoother kSmoothers[] = {Smoother::kJacobi, Smoother::kChebyshev,
                               Smoother::kRedBlackGS};

const char* smoother_tag(Smoother s) {
  switch (s) {
    case Smoother::kJacobi: return "jacobi";
    case Smoother::kChebyshev: return "chebyshev";
    case Smoother::kRedBlackGS: return "rbgs";
  }
  return "?";
}

// ---- parity: the prover accepts exactly what GMG_CHECK runs clean ------

// Rank 0 of each grid is proven: one rank wraps every axis (no ghost
// zone, no CA growth), 2x2x1 grows its sweeps along x and y only, and
// 2x2x2 along all three.
const Vec3 kRankGrids[] = {{1, 1, 1}, {2, 2, 1}, {2, 2, 2}};

std::string grid_tag(const Vec3& g) {
  return std::to_string(g.x) + "x" + std::to_string(g.y) + "x" +
         std::to_string(g.z);
}

/// Run `body` on every rank of `decomp` with the hazard detector live,
/// then require that it recorded nothing.
void expect_checked_run_clean(
    const CartDecomp& decomp,
    const std::function<void(comm::Communicator&)>& body) {
  check::set_enabled(true);
  check::reset();
  comm::World world(decomp.num_ranks());
  world.run(body);
  EXPECT_TRUE(check::hazards().empty());
  check::reset();
  check::set_enabled(false);
}

// For every rank grid x smoother, the statically recorded schedule
// proves clean AND the same configuration's instrumented solve leaves
// the hazard detector empty. The two layers watch the same invariants
// from opposite ends; this pins them together.
TEST(ScheduleParity, StaticProofMatchesCheckedRunAcrossMatrix) {
  for (const Vec3& rg : kRankGrids) {
    const CartDecomp decomp({32, 32, 32}, rg);
    for (const Smoother sm : kSmoothers) {
      SCOPED_TRACE(grid_tag(rg) + " " + smoother_tag(sm));
      const GmgOptions o = matrix_options(sm);
      expect_checked_run_clean(decomp, [&](comm::Communicator& c) {
        // The constructor already runs the static proof (it throws on
        // any hazard); re-check explicitly so a clean run asserts an
        // empty diagnostic list, not just the absence of a throw.
        GmgSolver solver(o, decomp, c.rank());
        if (c.rank() == 0) {
          const check::Schedule sched = record_solver_schedule(solver);
          EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());
          const check::Schedule fmg = record_fmg_schedule(solver);
          EXPECT_TRUE(check::ScheduleVerifier().check(fmg).empty());
        }
        solver.set_rhs(sine_rhs);
        solver.solve(c);
      });
    }
  }
}

TEST(ScheduleParity, BatchedScheduleProvesCleanAndRunsClean) {
  GmgOptions o = matrix_options(Smoother::kJacobi);
  o.bottom = BottomSolverType::kConjugateGradient;
  o.max_batch = 4;
  for (const Vec3& rg : kRankGrids) {
    SCOPED_TRACE(grid_tag(rg));
    const CartDecomp decomp({32, 32, 32}, rg);
    expect_checked_run_clean(decomp, [&](comm::Communicator& c) {
      GmgSolver base(o, decomp, c.rank());
      batch::BatchedSolver bs(base, 4);
      if (c.rank() == 0) {
        const check::Schedule sched =
            record_solver_schedule(bs.base(), 2, bs.batch());
        EXPECT_EQ(sched.num_components, 4);
        EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());
      }
      bs.set_rhs({sine_rhs, bump_rhs, sine_rhs, bump_rhs});
      std::vector<batch::BatchSolveSpec> specs(4);
      for (auto& s : specs) {
        s.tolerance = 1e-8;
        s.max_vcycles = 4;
      }
      bs.solve(c, specs);
    });
  }
}

/// Steps of `s` that launch `kernel`.
std::int64_t count_kernel(const check::Schedule& s, const std::string& kernel) {
  return std::count_if(
      s.steps.begin(), s.steps.end(),
      [&](const check::ScheduleStep& st) { return st.kernel == kernel; });
}

/// Steps of `s` that launch a Jacobi kernel (a kernel name beginning
/// "kernel.jacobi").
std::int64_t count_jacobi_kernels(const check::Schedule& s) {
  return std::count_if(
      s.steps.begin(), s.steps.end(), [](const check::ScheduleStep& st) {
        return st.kernel.rfind("kernel.jacobi", 0) == 0;
      });
}

// A batched solve issues the solo launches: at K = 4 every Jacobi sweep
// is one pass per brick — 7-point with constant and with variable
// coefficients, and 13-point — and no other Jacobi kernel runs beside
// it. (The K >= 2 residual norm still issues applyOps of its own.)
TEST(ScheduleParity, BatchedJacobiSweepIsTheSoloSweep) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  for (const bool varcoef : {false, true}) {
    SCOPED_TRACE(varcoef ? "varcoef" : "const");
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      GmgSolver base(matrix_options(Smoother::kJacobi), decomp, 0);
      if (varcoef) {
        base.set_coefficient(c, [](real_t x, real_t y, real_t) {
          return 1.5 + std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y);
        });
      }
      batch::BatchedSolver bs(base, 4);
      const check::Schedule sched =
          record_solver_schedule(bs.base(), 2, bs.batch());
      const std::int64_t sweeps = count_kernel(
          sched, varcoef ? "kernel.jacobiSweepVarCoef" : "kernel.jacobiSweep");
      EXPECT_GT(sweeps, 0);
      EXPECT_EQ(count_jacobi_kernels(sched), sweeps);
    });
  }

  SCOPED_TRACE("13-point");
  GmgOptions o = matrix_options(Smoother::kJacobi);
  o.operator_radius = 2;
  GmgSolver base(o, decomp, 0);
  batch::BatchedSolver bs(base, 4);
  const check::Schedule sched =
      record_solver_schedule(bs.base(), 2, bs.batch());
  const std::int64_t sweeps = count_kernel(sched, "kernel.jacobiSweep");
  EXPECT_GT(sweeps, 0);
  EXPECT_EQ(count_jacobi_kernels(sched), sweeps);
}

TEST(ScheduleParity, CompositeAmrScheduleProvesCleanAndRunsClean) {
  amr::AmrOptions ao;
  ao.gmg = matrix_options(Smoother::kJacobi);
  ao.gmg.levels = 4;
  ao.patch = Box{{8, 8, 8}, {24, 24, 24}};
  ao.patch_smooths = 4;
  ao.correction_vcycles = 2;
  ao.tolerance = 1e-8;
  ao.max_cycles = 4;
  for (const Vec3& rg : kRankGrids) {
    SCOPED_TRACE(grid_tag(rg));
    const CartDecomp decomp({32, 32, 32}, rg);
    expect_checked_run_clean(decomp, [&](comm::Communicator& c) {
      amr::AmrHierarchy h(ao, decomp, c.rank());
      if (c.rank() == 0) {
        const check::Schedule sched = amr::record_composite_schedule(h);
        EXPECT_TRUE(check::ScheduleVerifier().check(sched).empty());
      }
      h.set_rhs(bump_rhs);
      amr::CompositeSolver(h).solve(c);
    });
  }
}

// ---- the proof covers what runs ----------------------------------------

struct StepCounts {
  std::uint64_t exchanges = 0;
  std::uint64_t reductions = 0;
};

StepCounts count_steps(const check::Schedule& sched) {
  StepCounts n;
  for (const check::ScheduleStep& st : sched.steps) {
    if (st.kind == check::StepKind::kExchange) ++n.exchanges;
    if (st.kind == check::StepKind::kReduction) ++n.reductions;
  }
  return n;
}

/// `setup` builds each rank's solver and returns the schedule its
/// record_* function records; `solve` then runs exactly that sequence.
/// The exchange.calls and mpi.allreduce_calls trace counters must
/// advance by the recorded exchange and reduction steps, summed over
/// ranks — the schedule the verifier proved is the one that ran.
void expect_run_matches_recording(
    const CartDecomp& decomp,
    const std::function<check::Schedule(comm::Communicator&)>& setup,
    const std::function<void(comm::Communicator&)>& solve) {
  std::mutex mu;
  StepCounts want;
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    const StepCounts n = count_steps(setup(c));
    const std::lock_guard<std::mutex> lock(mu);
    want.exchanges += n.exchanges;
    want.reductions += n.reductions;
  });
  ASSERT_GT(want.exchanges, 0u);
  const bool was = trace::enabled();
  trace::set_enabled(true);
  trace::clear();
  world.run(solve);
  const trace::Snapshot snap = trace::collect();
  trace::set_enabled(was);
  EXPECT_EQ(snap.counter_total("exchange.calls"), want.exchanges);
  EXPECT_EQ(snap.counter_total("mpi.allreduce_calls"), want.reductions);
}

// A 2x2x1 grid: remote neighbors along x and y, a wrapped z axis, and
// every rank owning part of the AMR patch.
const CartDecomp kCoverageDecomp({32, 32, 32}, {2, 2, 1});

TEST(ScheduleCoverage, SoloSolveIssuesTheRecordedSchedule) {
  const int n = kCoverageDecomp.num_ranks();
  for (const Smoother sm : kSmoothers) {
    for (const BottomSolverType bottom :
         {BottomSolverType::kSmooth, BottomSolverType::kConjugateGradient}) {
      SCOPED_TRACE(std::string(smoother_tag(sm)) +
                   (bottom == BottomSolverType::kSmooth ? " smooth" : " cg"));
      GmgOptions o = matrix_options(sm);
      o.bottom = bottom;
      if (bottom == BottomSolverType::kConjugateGradient) {
        o.bottom_smooths = 2;  // the recorded bottom-CG iteration count
        o.bottom_cg_tolerance = 0;
      }
      std::vector<std::unique_ptr<GmgSolver>> solvers(
          static_cast<std::size_t>(n));
      expect_run_matches_recording(
          kCoverageDecomp,
          [&](comm::Communicator& c) {
            auto& s = solvers[static_cast<std::size_t>(c.rank())];
            s = std::make_unique<GmgSolver>(o, kCoverageDecomp, c.rank());
            s->set_rhs(sine_rhs);
            return record_solver_schedule(*s, o.max_vcycles);
          },
          [&](comm::Communicator& c) {
            solvers[static_cast<std::size_t>(c.rank())]->solve(c);
          });
    }
  }
}

TEST(ScheduleCoverage, BatchedSolveIssuesTheRecordedSchedule) {
  const int n = kCoverageDecomp.num_ranks();
  GmgOptions o = matrix_options(Smoother::kJacobi);
  o.bottom = BottomSolverType::kConjugateGradient;
  o.bottom_smooths = 2;
  o.bottom_cg_tolerance = 0;
  o.max_batch = 3;
  std::vector<std::unique_ptr<GmgSolver>> bases(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<batch::BatchedSolver>> batched(
      static_cast<std::size_t>(n));
  expect_run_matches_recording(
      kCoverageDecomp,
      [&](comm::Communicator& c) {
        const std::size_t r = static_cast<std::size_t>(c.rank());
        bases[r] = std::make_unique<GmgSolver>(o, kCoverageDecomp, c.rank());
        batched[r] = std::make_unique<batch::BatchedSolver>(*bases[r], 3);
        batched[r]->set_rhs({sine_rhs, bump_rhs, sine_rhs});
        return record_solver_schedule(*bases[r], 2, batched[r]->batch());
      },
      [&](comm::Communicator& c) {
        // The recording retires component 0 after the first cycle and
        // the rest after the second.
        std::vector<batch::BatchSolveSpec> specs(3);
        for (auto& s : specs) {
          s.tolerance = 0;
          s.max_vcycles = 2;
        }
        specs[0].max_vcycles = 1;
        batched[static_cast<std::size_t>(c.rank())]->solve(c, specs);
      });
}

TEST(ScheduleCoverage, CompositeSolveIssuesTheRecordedSchedule) {
  const int n = kCoverageDecomp.num_ranks();
  amr::AmrOptions ao;
  ao.gmg = matrix_options(Smoother::kJacobi);
  ao.gmg.levels = 4;
  ao.patch = Box{{8, 8, 8}, {24, 24, 24}};
  ao.patch_smooths = 4;
  ao.correction_vcycles = 2;
  ao.tolerance = 0;
  ao.max_cycles = 1;  // the recording covers one composite cycle
  std::vector<std::unique_ptr<amr::AmrHierarchy>> hs(
      static_cast<std::size_t>(n));
  expect_run_matches_recording(
      kCoverageDecomp,
      [&](comm::Communicator& c) {
        auto& h = hs[static_cast<std::size_t>(c.rank())];
        h = std::make_unique<amr::AmrHierarchy>(ao, kCoverageDecomp,
                                                c.rank());
        h->set_rhs(bump_rhs);
        return amr::record_composite_schedule(*h);
      },
      [&](comm::Communicator& c) {
        amr::CompositeSolver(*hs[static_cast<std::size_t>(c.rank())])
            .solve(c);
      });
}

// The 13-point operator's solve issues its recorded schedule, and every
// recorded sweep on its radius-2 levels reads x at the radius-2 star's
// reach.
TEST(ScheduleCoverage, ThirteenPointSolveIssuesTheRecordedSchedule) {
  const int n = kCoverageDecomp.num_ranks();
  GmgOptions o = matrix_options(Smoother::kJacobi);
  o.operator_radius = 2;
  std::vector<std::unique_ptr<GmgSolver>> solvers(static_cast<std::size_t>(n));
  expect_run_matches_recording(
      kCoverageDecomp,
      [&](comm::Communicator& c) {
        auto& s = solvers[static_cast<std::size_t>(c.rank())];
        s = std::make_unique<GmgSolver>(o, kCoverageDecomp, c.rank());
        s->set_rhs(sine_rhs);
        const check::Schedule sched =
            record_solver_schedule(*s, o.max_vcycles);
        int sweeps = 0;
        for (const check::ScheduleStep& st : sched.steps) {
          if (st.kernel != "kernel.jacobiSweep") continue;
          EXPECT_EQ(s->level(st.level).radius, 2);
          ++sweeps;
          EXPECT_TRUE(std::any_of(
              st.accesses.begin(), st.accesses.end(),
              [](const check::StepAccess& a) {
                return a.role == "x" && !a.write && a.reach == 2;
              }))
              << "a 13-point sweep on level " << st.level
              << " does not read x at reach 2";
        }
        EXPECT_GT(sweeps, 0);
        return sched;
      },
      [&](comm::Communicator& c) {
        solvers[static_cast<std::size_t>(c.rank())]->solve(c);
      });
}

// ---- recorded accesses derived from the effect summaries ---------------

bool has_step_access(const check::ScheduleStep& st, const char* field,
                     int level, const Box& box, int reach, bool write,
                     const char* role) {
  return std::any_of(
      st.accesses.begin(), st.accesses.end(), [&](const check::StepAccess& a) {
        return a.field == field && a.level == level && a.box == box &&
               a.reach == reach && a.write == write && a.role == role;
      });
}

TEST(ScheduleDerived, StepIsNamedBySummaryAndReadsCarryTheReach) {
  check::ScheduleRecorder rec("derived");
  const Box box{{-1, -1, -1}, {9, 9, 9}};
  const check::ScheduleStep& st =
      rec.launch(gs_color_sweep_effects(), 2, box, {{"x", "x"}, {"b", "b"}});
  EXPECT_EQ(st.kernel, "kernel.gsColorSweep");
  EXPECT_EQ(st.level, 2);
  ASSERT_EQ(st.accesses.size(), 3u);
  EXPECT_TRUE(has_step_access(st, "x", 2, box, 0, true, "x"));
  EXPECT_TRUE(has_step_access(st, "x", 2, box, 1, false, "x"));
  EXPECT_TRUE(has_step_access(st, "b", 2, box, 0, false, "b"));
}

TEST(ScheduleDerived, BindingsCarryTheirOwnLevelAndBox) {
  check::ScheduleRecorder rec("derived");
  const Box fine = Box::from_extent({16, 16, 16});
  const Box coarse = Box::from_extent({8, 8, 8});
  const check::ScheduleStep& st =
      rec.launch(interpolation_trilinear_assign_effects(), 0, fine,
                 {{"fine", "x"}, {"coarse", "x", 1, coarse}});
  ASSERT_EQ(st.accesses.size(), 2u);
  EXPECT_TRUE(has_step_access(st, "x", 0, fine, 0, true, "fine"));
  EXPECT_TRUE(has_step_access(st, "x", 1, coarse, 1, false, "coarse"));
}

TEST(ScheduleDerived, NullOptionalRoleIsSkipped) {
  check::ScheduleRecorder rec("derived");
  const Box box = Box::from_extent({8, 8, 8});
  const check::ScheduleStep& st = rec.launch(
      fused::jacobi_sweep_effects(1), 0, box,
      {{"out", "Ax"}, {"r", nullptr}, {"coarse", nullptr, 1, Box{}},
       {"x", "x"}, {"b", "b"}});
  ASSERT_EQ(st.accesses.size(), 3u);
  EXPECT_TRUE(has_step_access(st, "Ax", 0, box, 0, true, "out"));
  EXPECT_TRUE(has_step_access(st, "x", 0, box, 1, false, "x"));
}

TEST(ScheduleDerived, RepeatedRoleGivesOneAccessPerBinding) {
  check::ScheduleRecorder rec("derived");
  const Box a{{0, 0, 0}, {1, 8, 8}};
  const Box b{{7, 0, 0}, {8, 8, 8}};
  const check::ScheduleStep& st =
      rec.launch(copy_interior_effects(), 0, Box{},
                 {{"dst", "b", 0, a}, {"dst", "b", 0, b}, {"src", "r"}});
  ASSERT_EQ(st.accesses.size(), 3u);
  EXPECT_TRUE(has_step_access(st, "b", 0, a, 0, true, "dst"));
  EXPECT_TRUE(has_step_access(st, "b", 0, b, 0, true, "dst"));
}

TEST(ScheduleDerived, UnknownAndUnboundRolesRejected) {
  check::ScheduleRecorder rec("derived");
  const Box box = Box::from_extent({8, 8, 8});
  EXPECT_THROW(rec.launch(residual_effects(), 0, box,
                          {{"r", "r"}, {"b", "b"}, {"Ax", "Ax"}, {"x", "x"}}),
               Error);
  EXPECT_THROW(rec.launch(residual_effects(), 0, box, {{"r", "r"}, {"b", "b"}}),
               Error);
}

// ---- seeded hazards: each class rejected with a sourced diagnostic -----

/// The point-Jacobi schedule of rank 0 of `ranks` (32^3 cells per
/// rank).
check::Schedule jacobi_schedule(Vec3 ranks = {1, 1, 1}) {
  const CartDecomp decomp({32 * ranks.x, 32 * ranks.y, 32 * ranks.z}, ranks);
  GmgSolver solver(matrix_options(Smoother::kJacobi), decomp, 0);
  return record_solver_schedule(solver);
}

void expect_rejected(const check::Schedule& sched, const char* substring) {
  const std::vector<std::string> diags =
      check::ScheduleVerifier().check(sched);
  ASSERT_FALSE(diags.empty()) << "mutated schedule was not rejected";
  EXPECT_NE(diags.front().find(substring), std::string::npos)
      << "diagnostic missing '" << substring << "': " << diags.front();
  EXPECT_THROW(check::ScheduleVerifier().verify(sched), Error);
}

// Hazard class 1: a ghost read whose matching exchange was dropped.
// On rank 0 of 2x2x2 every axis has remote neighbors; a one-rank level
// wraps every axis and has no exchange whose loss is a hazard.
TEST(ScheduleSeededBug, DroppedExchangeRejected) {
  check::Schedule sched = jacobi_schedule({2, 2, 2});
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kExchange;
      });
  ASSERT_NE(it, sched.steps.end());
  sched.steps.erase(it);
  expect_rejected(sched,
                  "a matching completed exchange must precede this read");
}

// Hazard class 2: a fused stage writing a box its EffectSummary never
// declared.
TEST(ScheduleSeededBug, UndeclaredFusedWriteBoxRejected) {
  check::Schedule sched = jacobi_schedule();
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kKernel &&
               s.kernel.find("fused") != std::string::npos;
      });
  ASSERT_NE(it, sched.steps.end()) << "no fused step in the schedule";
  check::StepAccess rogue = check::write_access(
      "r", it->level, Box{{0, 0, 0}, {4, 4, 4}}, "scratch");
  it->accesses.push_back(rogue);
  expect_rejected(sched, "declares no write effect for that role");
}

// Hazard class 3: duplicated fused chunk writes — two parallel chunks
// of one launch landing on the same brick tile.
TEST(ScheduleSeededBug, OverlappingFusedChunksRejected) {
  check::Schedule sched = jacobi_schedule();
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.chunk_writes.size() > 1;
      });
  ASSERT_NE(it, sched.steps.end()) << "no chunked fused step";
  it->chunk_writes.push_back(it->chunk_writes.front());
  expect_rejected(sched, "repeats brick tile");
}

// Hazard class 4: a masked plan scheduling a brick the level mask
// declares covered by refinement.
TEST(ScheduleSeededBug, CoveredBrickScheduledRejected) {
  amr::AmrOptions ao;
  ao.gmg = matrix_options(Smoother::kJacobi);
  ao.gmg.levels = 4;
  ao.patch = Box{{8, 8, 8}, {24, 24, 24}};
  ao.patch_smooths = 4;
  ao.correction_vcycles = 1;
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  amr::AmrHierarchy h(ao, decomp, 0);
  check::Schedule sched = amr::record_composite_schedule(h);
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return !s.covered_bricks.empty() && !s.scheduled_bricks.empty();
      });
  ASSERT_NE(it, sched.steps.end()) << "no masked step in the schedule";
  it->scheduled_bricks.push_back(it->covered_bricks.front());
  expect_rejected(sched, "declares covered by refinement");
}

check::Schedule batched_schedule() {
  GmgOptions o = matrix_options(Smoother::kJacobi);
  o.bottom = BottomSolverType::kConjugateGradient;
  o.max_batch = 4;
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  static GmgSolver* base = nullptr;
  static batch::BatchedSolver* bs = nullptr;
  if (bs == nullptr) {
    base = new GmgSolver(o, decomp, 0);
    bs = new batch::BatchedSolver(*base, 4);
  }
  return record_solver_schedule(bs->base(), 2, bs->batch());
}

// Hazard class 5: a retired component's retirement-masked collectives
// resurface — retirement would desynchronize the collective count.
TEST(ScheduleSeededBug, RetiredComponentReductionRejected) {
  check::Schedule sched = batched_schedule();
  const auto retire = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kRetire;
      });
  ASSERT_NE(retire, sched.steps.end()) << "no retirement in the schedule";
  const int retired = retire->component;
  // The first retirement-masked reduction in its group after the
  // retirement: rewriting its component to the retired one keeps the
  // group non-decreasing, isolating the resurrection diagnostic.
  const auto red = std::find_if(
      retire, sched.steps.end(), [&](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kReduction && s.retirement_masked &&
               s.component != retired;
      });
  ASSERT_NE(red, sched.steps.end());
  red->component = retired;
  expect_rejected(sched, "retirement must not resurrect");
}

// Hazard class 6: components reduced out of order within one group —
// ranks would disagree on the collective sequence.
TEST(ScheduleSeededBug, ReorderedReductionGroupRejected) {
  check::Schedule sched = batched_schedule();
  // Find two same-group reductions with ascending components and swap
  // them (the interleaved bottom-CG group reduces 0,0,1,1,...).
  for (std::size_t i = 0; i + 1 < sched.steps.size(); ++i) {
    check::ScheduleStep& a = sched.steps[i];
    if (a.kind != check::StepKind::kReduction) continue;
    for (std::size_t j = i + 1; j < sched.steps.size(); ++j) {
      check::ScheduleStep& b = sched.steps[j];
      if (b.kind != check::StepKind::kReduction ||
          b.reduction_group != a.reduction_group)
        continue;
      if (b.component > a.component) {
        std::swap(a.component, b.component);
        expect_rejected(sched, "reorder the collective sequence");
        return;
      }
    }
  }
  FAIL() << "no ascending same-group reduction pair found";
}

// Hazard class 7: a one-pass Jacobi sweep whose output is bound to its
// own input — an in-place stencil update, racing read-after-write
// across bricks. The sweep must write the level's spare buffer.
TEST(ScheduleSeededBug, InPlaceStencilSweepRejected) {
  check::Schedule sched = jacobi_schedule();
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kKernel &&
               s.kernel == "kernel.jacobiSweep";
      });
  ASSERT_NE(it, sched.steps.end()) << "no one-pass sweep in the schedule";
  bool rebound = false;
  for (check::StepAccess& a : it->accesses) {
    if (a.write && a.role == "out") {
      a.field = "x";
      rebound = true;
    }
  }
  ASSERT_TRUE(rebound);
  expect_rejected(sched, "in-place stencil update");
}

// Hazard class 8: a write past the interior on a wrapped axis. A
// one-rank level wraps every axis, so there the ghost coordinates alias
// owned cells: the verifier rejects the write box, and the level's grid
// rejects the same box as an iteration plan at run time.
TEST(ScheduleSeededBug, WriteIntoWrappedGhostRejected) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  GmgSolver solver(matrix_options(Smoother::kJacobi), decomp, 0);
  check::Schedule sched = record_solver_schedule(solver);
  const auto it = std::find_if(
      sched.steps.begin(), sched.steps.end(), [](const check::ScheduleStep& s) {
        return s.kind == check::StepKind::kKernel &&
               s.kernel == "kernel.jacobiSweep";
      });
  ASSERT_NE(it, sched.steps.end()) << "no one-pass sweep in the schedule";
  Box grown;
  for (check::StepAccess& a : it->accesses) {
    if (a.write && a.role == "out") {
      a.box = grow(a.box, 1);
      grown = a.box;
    }
  }
  ASSERT_FALSE(grown.empty());
  expect_rejected(sched, "write into wrapped ghost");
  const MgLevel& lev = solver.level(it->level);
  EXPECT_THROW(lev.grid->iteration_plan(grown, lev.shape.dims()), Error);
}

// ---- the GMG_VERIFY_SCHEDULE gate --------------------------------------

TEST(ScheduleGate, VerificationCountsOnlyWhenEnabled) {
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const bool was = check::verify_schedule_enabled();

  check::set_verify_schedule_enabled(false);
  const std::uint64_t before = check::schedules_verified();
  { GmgSolver off(matrix_options(Smoother::kJacobi), decomp, 0); }
  EXPECT_EQ(check::schedules_verified(), before);

  check::set_verify_schedule_enabled(true);
  { GmgSolver on(matrix_options(Smoother::kJacobi), decomp, 0); }
  EXPECT_GT(check::schedules_verified(), before);

  check::set_verify_schedule_enabled(was);
}

}  // namespace
}  // namespace gmg

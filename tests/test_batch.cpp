// src/batch: K-way batched solves must be BITWISE identical to K solo
// GmgSolver runs — same iterates, same residual histories, same cycle
// counts — across every smoother, with and without communication
// avoidance, on one and two remote axes, and with the
// variable-coefficient operator. Plus the
// per-component retirement machinery (tolerance, cycle budget, cancel)
// and the one-stretched-exchange-round-per-sweep property the AoSoA
// layout exists to buy.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "batch/batched_solver.hpp"
#include "gmg/phase.hpp"
#include "gmg/solver.hpp"
#include "trace/report.hpp"
#include "trace/trace.hpp"

namespace gmg {
namespace {

real_t rhs_a(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

real_t rhs_b(real_t x, real_t y, real_t z) {
  return std::cos(2 * M_PI * x) * std::sin(4 * M_PI * y) * (0.5 + z);
}

real_t rhs_c(real_t x, real_t y, real_t z) {
  return x * (1 - x) + 0.25 * std::sin(2 * M_PI * (y + z));
}

/// The RHS of batch component c: rhs_a, rhs_b, rhs_c, then sine modes
/// of rising frequency.
std::function<real_t(real_t, real_t, real_t)> rhs_of(int c) {
  switch (c) {
    case 0: return rhs_a;
    case 1: return rhs_b;
    case 2: return rhs_c;
  }
  const real_t m = static_cast<real_t>(c - 1);
  return [m](real_t x, real_t y, real_t z) {
    return std::sin(2 * M_PI * m * x) * std::cos(2 * M_PI * y) + 0.1 * m * z;
  };
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

GmgOptions small_options() {
  GmgOptions o;
  o.levels = 2;
  o.smooths = 2;
  o.bottom_smooths = 12;
  o.tolerance = 1e-10;
  o.max_vcycles = 3;
  o.brick = BrickShape::cube(4);
  return o;
}

/// One solo reference run on an existing hierarchy: solve for `f` and
/// capture the local interior in for_each(interior) order.
struct SoloRef {
  SolveResult result;
  std::vector<real_t> sol;
};

SoloRef run_solo(comm::Communicator& c, GmgSolver& solver, Vec3 extent,
                 const std::function<real_t(real_t, real_t, real_t)>& f,
                 real_t tolerance, int max_vcycles,
                 const SolveControl* control = nullptr) {
  solver.set_solve_params(tolerance, max_vcycles);
  solver.set_rhs(f);
  SoloRef ref;
  ref.result = solver.solve(c, control);
  const BrickedArray& x = solver.solution();
  for_each(Box::from_extent(extent), [&](index_t i, index_t j, index_t k) {
    ref.sol.push_back(x(i, j, k));
  });
  return ref;
}

void expect_component_matches_solo(const SoloRef& solo,
                                   const SolveResult& got,
                                   const batch::BatchedSolver& bs, int comp,
                                   int rank) {
  EXPECT_EQ(solo.result.vcycles, got.vcycles) << "component " << comp;
  EXPECT_EQ(solo.result.converged, got.converged) << "component " << comp;
  EXPECT_EQ(solo.result.cancelled, got.cancelled) << "component " << comp;
  EXPECT_EQ(solo.result.final_residual, got.final_residual)
      << "component " << comp;
  ASSERT_EQ(solo.result.history.size(), got.history.size())
      << "component " << comp;
  for (std::size_t i = 0; i < got.history.size(); ++i) {
    EXPECT_EQ(solo.result.history[i], got.history[i])
        << "component " << comp << " cycle " << i;
  }
  const std::vector<real_t>& sol = bs.solution(comp);
  ASSERT_EQ(solo.sol.size(), sol.size()) << "component " << comp;
  int failures = 0;
  for (std::size_t i = 0; i < sol.size(); ++i) {
    if (sol[i] != solo.sol[i] && failures++ < 3) {
      ADD_FAILURE() << "rank " << rank << " component " << comp
                    << " solution mismatch at flat index " << i;
    }
  }
  ASSERT_EQ(failures, 0);
}

// ---------------------------------------------------------------------
// The bitwise matrix: smoother x CA x rank grid x varcoef, K=2; plus
// wider batches and the 13-point operator. The 2x1x1 grid exchanges
// only faces; 2x2x1 adds the edge groups of the stretched K-lane
// rounds.

struct MatrixCase {
  Smoother smoother;
  bool ca;
  Vec3 rank_grid;
  bool varcoef;
  int k = 2;       // batch width
  int radius = 1;  // operator radius (2: the 13-point star)
};

std::string case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  const MatrixCase& p = info.param;
  std::string s;
  switch (p.smoother) {
    // Jacobi at its default weight: the paper's point Jacobi.
    case Smoother::kJacobi: s = "PointJacobi"; break;
    case Smoother::kChebyshev: s = "Chebyshev"; break;
    case Smoother::kRedBlackGS: s = "RedBlackGS"; break;
  }
  s += p.ca ? "_Ca" : "_NoCa";
  s += "_Ranks" + std::to_string(p.rank_grid.x) + "x" +
       std::to_string(p.rank_grid.y) + "x" + std::to_string(p.rank_grid.z);
  s += p.varcoef ? "_VarCoef" : "_ConstCoef";
  if (p.k != 2) s += "_K" + std::to_string(p.k);
  if (p.radius != 1) s += "_Radius" + std::to_string(p.radius);
  return s;
}

// The same name in ctest's listing (the default printer dumps the
// struct's bytes, padding included, so the listed names vary by build).
void PrintTo(const MatrixCase& p, std::ostream* os) {
  *os << case_name({p, 0});
}

class BatchedBitwise : public ::testing::TestWithParam<MatrixCase> {};

// A K-way batch (K = 2 across the matrix) against K solo solves.
TEST_P(BatchedBitwise, TwoWayMatchesTwoSoloSolves) {
  const MatrixCase& p = GetParam();
  GmgOptions o = small_options();
  o.smoother = p.smoother;
  o.operator_radius = p.radius;
  o.communication_avoiding = p.ca;
  const CartDecomp decomp({16, 16, 16}, p.rank_grid);
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    if (p.varcoef) solver.set_coefficient(c, wavy_coef);
    std::vector<std::function<real_t(real_t, real_t, real_t)>> rhs;
    std::vector<SoloRef> refs;
    for (int i = 0; i < p.k; ++i) {
      rhs.push_back(rhs_of(i));
      refs.push_back(
          run_solo(c, solver, sub, rhs.back(), o.tolerance, o.max_vcycles));
    }

    batch::BatchedSolver bs(solver, p.k);
    bs.set_rhs(rhs);
    std::vector<batch::BatchSolveSpec> specs(static_cast<std::size_t>(p.k));
    for (auto& spec : specs) {
      spec.tolerance = o.tolerance;
      spec.max_vcycles = o.max_vcycles;
    }
    const std::vector<SolveResult> got = bs.solve(c, specs);
    for (int i = 0; i < p.k; ++i) {
      expect_component_matches_solo(refs[static_cast<std::size_t>(i)],
                                    got[static_cast<std::size_t>(i)], bs, i,
                                    c.rank());
    }
  });
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (Smoother s :
       {Smoother::kJacobi, Smoother::kChebyshev, Smoother::kRedBlackGS}) {
    for (bool ca : {false, true}) {
      for (const Vec3 rg : {Vec3{2, 1, 1}, Vec3{2, 2, 1}}) {
        for (bool varcoef : {false, true}) {
          if (varcoef && s == Smoother::kRedBlackGS) continue;  // unsupported
          cases.push_back({s, ca, rg, varcoef});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, BatchedBitwise,
                         ::testing::ValuesIn(matrix_cases()), case_name);

// Wider batches through the one-pass sweep (K = 3 and 8, point Jacobi
// with CA; K = 8 also with variable coefficients) and the 13-point
// operator's sweep at K = 2. One-lane batches, which run the K = 1
// kernels, are pinned to the solo solver: point Jacobi with CA,
// Chebyshev with variable coefficients, red-black GS.
constexpr Vec3 kTwoRanks{2, 1, 1};
INSTANTIATE_TEST_SUITE_P(
    Widths, BatchedBitwise,
    ::testing::Values(
        MatrixCase{Smoother::kJacobi, true, kTwoRanks, false, 1, 1},
        MatrixCase{Smoother::kChebyshev, true, kTwoRanks, true, 1, 1},
        MatrixCase{Smoother::kRedBlackGS, true, kTwoRanks, false, 1, 1},
        MatrixCase{Smoother::kJacobi, true, kTwoRanks, false, 3, 1},
        MatrixCase{Smoother::kJacobi, true, kTwoRanks, false, 8, 1},
        MatrixCase{Smoother::kJacobi, true, kTwoRanks, true, 8, 1},
        MatrixCase{Smoother::kJacobi, true, kTwoRanks, false, 2, 2},
        MatrixCase{Smoother::kJacobi, false, kTwoRanks, false, 2, 2}),
    case_name);

// ---------------------------------------------------------------------
// Masked bottom CG: components freeze at their solo exit iterations.

TEST(BatchedBottomCg, ThreeWayBitwiseWithCgBottom) {
  GmgOptions o = small_options();
  o.bottom = BottomSolverType::kConjugateGradient;
  o.bottom_smooths = 30;
  o.max_vcycles = 4;
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    const SoloRef ra = run_solo(c, solver, sub, rhs_a, o.tolerance, o.max_vcycles);
    const SoloRef rb = run_solo(c, solver, sub, rhs_b, o.tolerance, o.max_vcycles);
    const SoloRef rc = run_solo(c, solver, sub, rhs_c, o.tolerance, o.max_vcycles);

    batch::BatchedSolver bs(solver, 3);
    bs.set_rhs({rhs_a, rhs_b, rhs_c});
    std::vector<batch::BatchSolveSpec> specs(3);
    for (auto& s : specs) {
      s.tolerance = o.tolerance;
      s.max_vcycles = o.max_vcycles;
    }
    const std::vector<SolveResult> got = bs.solve(c, specs);
    expect_component_matches_solo(ra, got[0], bs, 0, c.rank());
    expect_component_matches_solo(rb, got[1], bs, 1, c.rank());
    expect_component_matches_solo(rc, got[2], bs, 2, c.rank());
  });
}

// ---------------------------------------------------------------------
// Per-component early retirement: a loose-tolerance component retires
// cycles before its tight-tolerance batchmate, with the snapshot and
// result frozen at exactly the solo exit state.

TEST(BatchedRetirement, LooseComponentRetiresEarlyBitwise) {
  GmgOptions o = small_options();
  o.smooths = 4;
  o.max_vcycles = 40;
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    const SoloRef loose = run_solo(c, solver, sub, rhs_a, 1e-2, 40);
    const SoloRef tight = run_solo(c, solver, sub, rhs_b, 1e-9, 40);
    ASSERT_LT(loose.result.vcycles, tight.result.vcycles);

    batch::BatchedSolver bs(solver, 2);
    bs.set_rhs({rhs_a, rhs_b});
    std::vector<batch::BatchSolveSpec> specs(2);
    specs[0].tolerance = 1e-2;
    specs[1].tolerance = 1e-9;
    specs[0].max_vcycles = specs[1].max_vcycles = 40;
    const std::vector<SolveResult> got = bs.solve(c, specs);
    expect_component_matches_solo(loose, got[0], bs, 0, 0);
    expect_component_matches_solo(tight, got[1], bs, 1, 0);
  });
}

TEST(BatchedRetirement, NanLaneRetiresAloneAndBatchmatesStayBitwise) {
  // A NaN RHS cell in lane 1 (on rank 0 of two): its norm reads +inf,
  // through the max-allreduce too, so it retires unconverged before
  // the first cycle, while lanes 0 and 2 finish exactly as their solo
  // solves do.
  GmgOptions o = small_options();
  o.max_vcycles = 8;
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  const auto nan_rhs = [](real_t x, real_t y, real_t z) {
    const real_t h = 1.0 / 16;
    return x < h && y < h && z < h ? std::numeric_limits<real_t>::quiet_NaN()
                                   : rhs_b(x, y, z);
  };
  comm::World world(2);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, c.rank());
    const SoloRef ra = run_solo(c, solver, sub, rhs_a, o.tolerance, 8);
    const SoloRef rc = run_solo(c, solver, sub, rhs_c, o.tolerance, 8);

    batch::BatchedSolver bs(solver, 3);
    bs.set_rhs({rhs_a, nan_rhs, rhs_c});
    std::vector<batch::BatchSolveSpec> specs(3);
    for (auto& s : specs) {
      s.tolerance = o.tolerance;
      s.max_vcycles = 8;
    }
    const std::vector<SolveResult> got = bs.solve(c, specs);
    EXPECT_FALSE(got[1].converged);
    EXPECT_EQ(got[1].vcycles, 0);
    EXPECT_EQ(got[1].final_residual, std::numeric_limits<real_t>::infinity());
    expect_component_matches_solo(ra, got[0], bs, 0, c.rank());
    expect_component_matches_solo(rc, got[2], bs, 2, c.rank());
  });
}

TEST(BatchedRetirement, ExhaustedCycleBudgetMatchesSolo) {
  GmgOptions o = small_options();
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(o, decomp, 0);
    const SoloRef capped = run_solo(c, solver, sub, rhs_a, 1e-14, 2);
    const SoloRef free = run_solo(c, solver, sub, rhs_b, 1e-6, 40);
    EXPECT_FALSE(capped.result.converged);

    batch::BatchedSolver bs(solver, 2);
    bs.set_rhs({rhs_a, rhs_b});
    std::vector<batch::BatchSolveSpec> specs(2);
    specs[0].tolerance = 1e-14;
    specs[0].max_vcycles = 2;
    specs[1].tolerance = 1e-6;
    specs[1].max_vcycles = 40;
    const std::vector<SolveResult> got = bs.solve(c, specs);
    expect_component_matches_solo(capped, got[0], bs, 0, 0);
    expect_component_matches_solo(free, got[1], bs, 1, 0);
  });
}

TEST(BatchedRetirement, CancelledComponentRetiresOthersFinish) {
  GmgOptions o = small_options();
  o.max_vcycles = 40;
  o.tolerance = 1e-8;
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    SolveControl cancel_now;
    cancel_now.cancel.store(true);

    GmgSolver solver(o, decomp, 0);
    const SoloRef cancelled =
        run_solo(c, solver, sub, rhs_a, 1e-8, 40, &cancel_now);
    const SoloRef normal = run_solo(c, solver, sub, rhs_b, 1e-8, 40);
    EXPECT_TRUE(cancelled.result.cancelled);
    EXPECT_EQ(cancelled.result.vcycles, 0);

    batch::BatchedSolver bs(solver, 2);
    bs.set_rhs({rhs_a, rhs_b});
    std::vector<batch::BatchSolveSpec> specs(2);
    specs[0].tolerance = specs[1].tolerance = 1e-8;
    specs[0].max_vcycles = specs[1].max_vcycles = 40;
    specs[0].control = &cancel_now;
    const std::vector<SolveResult> got = bs.solve(c, specs);
    EXPECT_TRUE(got[0].cancelled);
    expect_component_matches_solo(cancelled, got[0], bs, 0, 0);
    expect_component_matches_solo(normal, got[1], bs, 1, 0);
  });
}

// ---------------------------------------------------------------------
// The layout's reason to exist: a K-way batched solve performs exactly
// as many ghost-exchange rounds as ONE solo solve on the same
// schedule — each stretched round carries all K components.

TEST(BatchedExchange, KWaySolveUsesSoloExchangeRounds) {
  const bool was = trace::enabled();
  trace::clear();
  trace::set_enabled(true);
  GmgOptions o = small_options();
  const CartDecomp decomp({16, 16, 16}, {2, 1, 1});
  const Vec3 sub = decomp.subdomain_extent();

  // Pin the schedule: tolerance 0 never converges, so both runs do
  // exactly max_vcycles cycles regardless of K.
  const real_t tol = 0.0;
  const int cycles = 2;

  std::uint64_t solo_calls = 0;
  {
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, c.rank());
      (void)run_solo(c, solver, sub, rhs_a, tol, cycles);
    });
    solo_calls = trace::collect().counter_total("exchange.calls");
  }
  ASSERT_GT(solo_calls, 0u);

  {
    comm::World world(2);
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, c.rank());
      batch::BatchedSolver bs(solver, 3);
      bs.set_rhs({rhs_a, rhs_b, rhs_c});
      std::vector<batch::BatchSolveSpec> specs(3);
      for (auto& s : specs) {
        s.tolerance = tol;
        s.max_vcycles = cycles;
      }
      (void)bs.solve(c, specs);
    });
    const trace::Snapshot snap = trace::collect();
    EXPECT_EQ(snap.counter_total("exchange.calls"), solo_calls);
    EXPECT_EQ(snap.counter_total("batch.solves"), 2u);       // one per rank
    EXPECT_EQ(snap.counter_total("batch.components"), 6u);   // 3 per rank
  }
  trace::set_enabled(was);
  trace::clear();
}

// A batched solve is timed by the solo phase spans: on one hierarchy, a
// 2-cycle K = 2 solve records the (level, phase) keys of a 2-cycle solo
// solve, with the same counts. The level-0 norm phases are the
// exception: the batched norm runs the residual once and the max-norm
// per lane, where the solo norm fuses them into one maxNorm.
TEST(BatchedTiming, BatchedSolveRecordsTheSoloPhaseSpans) {
  const bool was = trace::enabled();
  trace::set_enabled(true);
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  trace::LevelStats solo, batched;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(small_options(), decomp, 0);
    trace::clear();
    (void)run_solo(c, solver, decomp.subdomain_extent(), rhs_a,
                   /*tolerance=*/0.0, /*max_vcycles=*/2);
    solo = trace::level_stats(trace::collect());

    batch::BatchedSolver bs(solver, 2);
    bs.set_rhs({rhs_a, rhs_b});
    std::vector<batch::BatchSolveSpec> specs(2);
    for (auto& s : specs) {
      s.tolerance = 0.0;
      s.max_vcycles = 2;
    }
    trace::clear();
    (void)bs.solve(c, specs);
    batched = trace::level_stats(trace::collect());
  });
  trace::set_enabled(was);

  const auto is_norm = [](const std::pair<int, std::string>& key) {
    return key.first == 0 && (key.second == phase_name(Phase::kResidual) ||
                              key.second == phase_name(Phase::kMaxNorm));
  };
  const auto count = [](const trace::LevelStats& stats,
                        const std::pair<int, std::string>& key) {
    const auto it = stats.find(key);
    return it == stats.end() ? std::uint64_t{0} : it->second.count();
  };
  ASSERT_FALSE(solo.empty());
  for (const trace::LevelStats* stats : {&solo, &batched}) {
    for (const auto& [key, st] : *stats) {
      if (is_norm(key)) continue;
      EXPECT_EQ(count(batched, key), count(solo, key))
          << "level " << key.first << " " << key.second;
    }
  }
  // Three norms (the initial one and one per cycle), one max-norm per
  // lane each.
  const std::pair<int, std::string> max_norm{0, phase_name(Phase::kMaxNorm)};
  EXPECT_EQ(count(solo, max_norm), 3u);
  EXPECT_EQ(count(batched, max_norm), 6u);
}

// K = 1 picks the solo loops under any cv/ref qualification decltype
// gives a captured K; a wider lane count never does.
static_assert(kOneLane<OneLane> && kOneLane<const OneLane> &&
              kOneLane<const OneLane&>);
static_assert(!kOneLane<Lanes<2>> && !kOneLane<const Lanes<kMaxBatch>&>);
static_assert(kLanes<const Lanes<3>&> == 3);

// The kernels are built for batch widths 1..kMaxBatch: a batched solver
// of any other width is rejected when it is built, not at its first
// kernel launch.
TEST(BatchedSetup, RejectsWidthsTheKernelsAreNotBuiltFor) {
  GmgSolver base(small_options(), CartDecomp({16, 16, 16}, {1, 1, 1}), 0);
  EXPECT_THROW(batch::BatchedSolver(base, 0), Error);
  EXPECT_THROW(batch::BatchedSolver(base, kMaxBatch + 1), Error);
  const batch::BatchedSolver widest(base, kMaxBatch);
  EXPECT_EQ(widest.batch(), kMaxBatch);
}

TEST(BatchedArray, LayoutIsRhsInnermost) {
  // The AoSoA contract: (i,j,k,c) lives at stretched inner element
  // (i*K + c, j, k) — component index innermost within a brick row.
  auto grid_arr =
      BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BatchedBrickedArray a(grid_arr.grid_ptr(), BrickShape::cube(4), 2);
  a.at(3, 1, 2, 0) = 10.0;
  a.at(3, 1, 2, 1) = 20.0;
  EXPECT_EQ(a.inner()(6, 1, 2), 10.0);
  EXPECT_EQ(a.inner()(7, 1, 2), 20.0);
  EXPECT_EQ(a.batch(), 2);
  EXPECT_EQ(a.base_shape(), BrickShape::cube(4));
}

}  // namespace
}  // namespace gmg

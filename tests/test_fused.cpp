// Cross-stage kernel fusion (DESIGN.md §16): each fused kernel the
// V-cycle runs must give the bits of the split stages it replaces —
// the one-pass Jacobi sweep against applyOp + smooth / smooth_residual
// / smooth_residual_restrict over every region shape a sweep is issued
// on, the GS residual tail and the fused convergence norm against
// residual + restriction / max_norm at K = 1 and 4 — and a fused solve
// must not depend on the worker or rank count. Plus the footprint
// machinery: the fused union footprint is derived constexpr and
// static_assert-ed, GMG_CHECK sees only the declared boxes during a
// fused run, and a seeded undersized-ghost configuration is rejected
// at setup.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "common/rng.hpp"
#include "exec/runtime.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/operators_varcoef.hpp"
#include "gmg/solver.hpp"
#include "gmg/stencil_rows.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

// ---- footprint derivation (compile-time) ---------------------------------

// The fused descent pass reads no fine-residual cell the split
// restriction would not: the pointwise center tap is one of the
// restriction octant's 8 taps, so the union IS the octant — and it
// fits even the smallest supported brick.
static_assert(check::same_footprint(fused::descent_footprint(),
                                    check::restriction_shape()),
              "fused descent footprint must equal the restriction octant");
static_assert(check::footprint_fits(fused::descent_footprint().extents(), 2,
                                    2, 2),
              "fused descent footprint must fit a 2^3 brick");
// A hypothetical fused kernel that also pulled a radius-3 star into
// the same pass would need 3 ghost layers — the same machinery reports
// that it does NOT fit a 2^3 brick's one-brick ghost depth.
static_assert(!check::footprint_fits(
                  check::star_shape(3).merged(check::restriction_shape())
                      .extents(),
                  2, 2, 2),
              "a widened fused union must be flagged as not fitting");

real_t sine_rhs(real_t x, real_t y, real_t z) {
  return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
         std::sin(2 * M_PI * z);
}

real_t wavy_coef(real_t x, real_t y, real_t z) {
  return 1.0 + 0.5 * std::sin(2 * M_PI * x) * std::cos(2 * M_PI * y) +
         0.25 * std::sin(4 * M_PI * z);
}

GmgOptions base_options(index_t bdim, Smoother sm) {
  GmgOptions o;
  o.levels = 3;
  o.smooths = 2;
  o.bottom_smooths = 12;
  o.tolerance = 1e-10;
  o.max_vcycles = 4;
  o.brick = BrickShape::cube(bdim);
  o.smoother = sm;
  return o;
}

/// Run `vcycles` cycles on a fresh solver and capture the solution and
/// the residual-norm history (one norm before, one after each cycle).
struct RunOut {
  std::vector<real_t> sol;
  std::vector<real_t> history;
};

RunOut run_cycles(comm::Communicator& c, const GmgOptions& o, bool varcoef,
                  int vcycles) {
  const Vec3 global{32, 32, 32};
  const CartDecomp decomp(global, {1, 1, 1});
  GmgSolver solver(o, decomp, 0);
  if (varcoef) solver.set_coefficient(c, wavy_coef);
  solver.set_rhs(sine_rhs);
  RunOut out;
  out.history.push_back(solver.residual_norm(c));
  for (int v = 0; v < vcycles; ++v) {
    solver.vcycle(c);
    out.history.push_back(solver.residual_norm(c));
  }
  const BrickedArray& x = solver.solution();
  for_each(Box::from_extent(global), [&](index_t i, index_t j, index_t k) {
    out.sol.push_back(x(i, j, k));
  });
  return out;
}

void expect_bitwise(const RunOut& a, const RunOut& b, const char* what) {
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    ASSERT_EQ(a.history[i], b.history[i])
        << what << ": residual history diverges at cycle " << i;
  }
  ASSERT_EQ(a.sol.size(), b.sol.size()) << what;
  int failures = 0;
  for (std::size_t i = 0; i < a.sol.size(); ++i) {
    if (a.sol[i] != b.sol[i] && failures++ < 3) {
      ADD_FAILURE() << what << ": solution diverges at flat index " << i;
    }
  }
  ASSERT_EQ(failures, 0) << what;
}

// ---- fused solves: worker- and rank-count independence ------------------

TEST(FusedDescent, BitwiseIdenticalAcrossWorkerCounts) {
  // The fused passes must not introduce any worker-count dependence: the
  // pointwise rows, the per-brick restriction, and the fused max-norm
  // reduction all follow the split stages' fixed chunk plans.
  class EngineGuard {
   public:
    ~EngineGuard() {
      exec::configure_default_engine(exec::resolved_default_workers());
    }
  } guard;
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    const GmgOptions o = base_options(4, Smoother::kJacobi);
    exec::configure_default_engine(1);
    const RunOut ref = run_cycles(c, o, false, 3);
    for (int workers : {2, 4}) {
      exec::configure_default_engine(workers);
      const RunOut got = run_cycles(c, o, false, 3);
      expect_bitwise(ref, got, "worker count");
    }
  });
}

TEST(FusedDescent, MultiRankMatchesSingleRankBitwise) {
  // The fusion point is strictly after the exchange/margin machinery,
  // so the fused schedule must preserve the multi-rank == single-rank
  // bitwise identity.
  const Vec3 global{32, 32, 32};
  std::vector<real_t> reference;
  {
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      reference =
          run_cycles(c, base_options(4, Smoother::kJacobi), false, 2).sol;
    });
  }
  const CartDecomp decomp(global, {2, 2, 1});
  comm::World world(decomp.num_ranks());
  world.run([&](comm::Communicator& c) {
    GmgSolver solver(base_options(4, Smoother::kJacobi), decomp, c.rank());
    solver.set_rhs(sine_rhs);
    for (int v = 0; v < 2; ++v) solver.vcycle(c);
    const Box my_box = decomp.subdomain_box(c.rank());
    const BrickedArray& x = solver.solution();
    int failures = 0;
    for_each(Box::from_extent(decomp.subdomain_extent()),
             [&](index_t i, index_t j, index_t k) {
               const index_t gi = my_box.lo.x + i, gj = my_box.lo.y + j,
                             gk = my_box.lo.z + k;
               // for_each order: k-major, i-minor.
               const real_t want = reference[static_cast<std::size_t>(
                   (gk * global.y + gj) * global.x + gi)];
               if (x(i, j, k) != want && failures++ < 3) {
                 ADD_FAILURE() << "rank " << c.rank() << " (" << i << ',' << j
                               << ',' << k << ')';
               }
             });
    ASSERT_EQ(failures, 0);
  });
}

// ---- one-pass Jacobi sweep vs its two-pass reference ---------------------

/// Deterministic values in every storage cell, ghost bricks included,
/// so a CA-grown region reads defined data.
void fill_storage(BrickedArray& a, std::uint64_t seed) {
  Rng rng(seed);
  real_t* p = a.data();
  for (std::size_t i = 0; i < a.size(); ++i) p[i] = rng.uniform();
}

/// The regions one sweep may be issued over: the interior and the
/// CA-grown boxes (clipped ghost bricks).
struct SweepRegion {
  std::string what;
  Box active;
};

std::vector<SweepRegion> sweep_regions(const MgLevel& lev) {
  const Box in = lev.interior();
  const index_t deep = lev.shape.bx - lev.radius;
  return {{"interior", in},
          {"grown by 1", grow(in, 1)},
          {"grown to margin", grow(in, deep)}};
}

struct SweepCase {
  index_t bdim;
  bool varcoef;
  int radius;
  const char* name;
};

// Stable test names: print the case name, not the struct's bytes.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

class OnePassSweep : public ::testing::TestWithParam<SweepCase> {};

// Rank 0's half of OnePassSweep: each level_jacobi call against its
// two-pass reference, at 1 and 4 workers, over every sweep region.
void compare_sweeps(const SweepCase& sc, const GmgOptions& o,
                    GmgSolver& solver) {
  MgLevel& lev = solver.level(0);
  MgLevel& coarse = solver.level(1);
  const real_t weight = lev.plan.weight;
  const real_t gamma = -weight / lev.alpha;
  BrickedArray xref(lev.grid, lev.shape), ax(lev.grid, lev.shape),
      rref(lev.grid, lev.shape), cref(coarse.grid, coarse.shape);
  for (const int workers : {1, 4}) {
    exec::configure_default_engine(workers);
    for (const SweepRegion& reg : sweep_regions(lev)) {
      const Box& act = reg.active;
      for (const int stage : {0, 1, 2}) {  // smooth, +residual, +restrict
        const std::string what = std::string(sc.name) + ", " + reg.what +
                                 ", stage " + std::to_string(stage) +
                                 ", workers " + std::to_string(workers);
        fill_storage(lev.x, 11);
        fill_storage(lev.b, 12);
        std::memcpy(xref.data(), lev.x.data(), lev.x.size() * sizeof(real_t));
        if (sc.varcoef) {
          apply_op_varcoef(ax, xref, lev.coef, o.identity_coef, lev.h, act);
        } else if (sc.radius == 1) {
          apply_op(ax, xref, lev.alpha, lev.beta, act);
        } else {
          level_apply(lev, ax, xref, act);
        }
        if (stage == 0) {
          if (sc.varcoef)
            smooth_varcoef(xref, ax, lev.b, lev.diag, weight, act);
          else
            smooth(xref, ax, lev.b, gamma, act);
        } else if (stage == 1) {
          if (sc.varcoef)
            smooth_residual_varcoef(xref, rref, ax, lev.b, lev.diag, weight,
                                    act);
          else
            smooth_residual(xref, rref, ax, lev.b, gamma, act);
        } else if (sc.varcoef) {
          fused::smooth_residual_restrict_varcoef(xref, rref, cref, ax,
                                                  lev.b, lev.diag, weight,
                                                  act);
        } else {
          fused::smooth_residual_restrict(xref, rref, cref, ax, lev.b,
                                          gamma, act);
        }
        level_jacobi(lev, lev.Ax, stage >= 1 ? &lev.r : nullptr,
                     stage == 2 ? &coarse.b : nullptr, lev.x, lev.b, act);
        // The sweep wrote x' into the spare buffer and left x alone.
        test::expect_same_bits(lev.Ax, xref, act, what + ": x'");
        if (stage >= 1) test::expect_same_bits(lev.r, rref, act, what + ": r");
        if (stage == 2) {
          test::expect_same_bits(coarse.b, cref, coarse.interior(),
                                 what + ": coarse b");
        }
      }
    }
  }
}

// One level_jacobi call must equal applyOp followed by smooth /
// smooth_residual / fused::smooth_residual_restrict over the same
// region, bit for bit: the new iterate, the residual, and the
// restricted coarse RHS — for the 7-point, variable-coefficient and
// 13-point operators. The
// level is rank 0's of a 2x2x2 grid: with remote neighbors on every
// axis its grid stores the full ghost shell, so the CA-grown regions
// reach into ghost bricks (a one-rank level wraps every axis and
// never grows its sweeps — DESIGN.md §11).
TEST_P(OnePassSweep, MatchesTwoPassReferenceBitwise) {
  const SweepCase sc = GetParam();
  class EngineGuard {
   public:
    ~EngineGuard() {
      exec::configure_default_engine(exec::resolved_default_workers());
    }
  } guard;
  comm::World world(8);
  world.run([&](comm::Communicator& c) {
    GmgOptions o = base_options(sc.bdim, Smoother::kJacobi);
    o.jacobi_weight = 0.6;
    o.operator_radius = sc.radius;
    GmgSolver solver(o, CartDecomp({64, 64, 64}, {2, 2, 2}), c.rank());
    if (sc.varcoef) solver.set_coefficient(c, wavy_coef);
    // Only rank 0 sweeps; the others keep their hierarchies until it
    // is done (the engine reconfiguration below is process-wide).
    c.barrier();
    if (c.rank() == 0) compare_sweeps(sc, o, solver);
    c.barrier();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, OnePassSweep,
    ::testing::Values(SweepCase{2, false, 1, "const-2"},
                      SweepCase{4, false, 1, "const-4"},
                      SweepCase{8, false, 1, "const-8"},
                      SweepCase{2, true, 1, "varcoef-2"},
                      SweepCase{4, true, 1, "varcoef-4"},
                      SweepCase{8, true, 1, "varcoef-8"},
                      SweepCase{4, false, 2, "two-stage-13pt-4"}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string n = info.param.name;
      for (char& ch : n)
        if (ch == '-') ch = '_';
      return n;
    });

TEST(JacobiSweep, AliasedOutputRejected) {
  // x' written over x is an in-place stencil update: a brick would read
  // a neighbor cell another chunk already replaced.
  const CartDecomp decomp({16, 16, 16}, {1, 1, 1});
  GmgSolver solver(base_options(4, Smoother::kJacobi), decomp, 0);
  MgLevel& lev = solver.level(0);
  EXPECT_THROW(fused::jacobi_sweep(lev.x, nullptr, nullptr, lev.x, lev.b,
                                   lev.alpha, lev.beta, lev.gamma,
                                   lev.interior()),
               Error);
}

TEST(JacobiSweep, EightRankSolveMatchesSingleRank) {
  // The fused one-pass sweeps over CA-grown regions on 2x2x2 ranks:
  // solution and residual history must equal the single-rank solve's
  // bit for bit, with constant and with variable coefficients.
  const Vec3 global{32, 32, 32};
  for (const bool varcoef : {false, true}) {
    GmgOptions o = base_options(4, Smoother::kJacobi);
    RunOut reference;
    {
      comm::World world(1);
      world.run([&](comm::Communicator& c) {
        reference = run_cycles(c, o, varcoef, 3);
      });
    }
    const CartDecomp decomp(global, {2, 2, 2});
    std::vector<real_t> history;
    comm::World world(decomp.num_ranks());
    world.run([&](comm::Communicator& c) {
      GmgSolver solver(o, decomp, c.rank());
      if (varcoef) solver.set_coefficient(c, wavy_coef);
      solver.set_rhs(sine_rhs);
      std::vector<real_t> h{solver.residual_norm(c)};
      for (int v = 0; v < 3; ++v) {
        solver.vcycle(c);
        h.push_back(solver.residual_norm(c));
      }
      if (c.rank() == 0) history = h;
      const Box my_box = decomp.subdomain_box(c.rank());
      const BrickedArray& x = solver.solution();
      int failures = 0;
      for_each(Box::from_extent(decomp.subdomain_extent()),
               [&](index_t i, index_t j, index_t k) {
                 const real_t want = reference.sol[static_cast<std::size_t>(
                     ((my_box.lo.z + k) * global.y + my_box.lo.y + j) *
                         global.x +
                     my_box.lo.x + i)];
                 if (x(i, j, k) != want && failures++ < 3) {
                   ADD_FAILURE() << "rank " << c.rank() << " (" << i << ','
                                 << j << ',' << k << ')';
                 }
               });
      EXPECT_EQ(failures, 0);
    });
    ASSERT_EQ(history.size(), reference.history.size());
    for (std::size_t i = 0; i < history.size(); ++i) {
      EXPECT_EQ(history[i], reference.history[i]) << "cycle " << i;
    }
  }
}

// ---- whole-brick 7-point body vs the row body ----------------------------

/// x for the brick-body checks: fill_storage's values plus an IEEE
/// special (NaN, +inf, -inf, -0.0, a subnormal) on a corner, edge or
/// face cell of every third storage brick, ghost bricks included.
void fill_with_specials(BrickedArray& a, std::uint64_t seed) {
  fill_storage(a, seed);
  const index_t bd = a.shape().bx;
  const std::size_t vol = static_cast<std::size_t>(a.shape().volume());
  const real_t specials[] = {std::numeric_limits<real_t>::quiet_NaN(),
                             std::numeric_limits<real_t>::infinity(),
                             -std::numeric_limits<real_t>::infinity(), -0.0,
                             3 * std::numeric_limits<real_t>::denorm_min()};
  const Vec3 spots[] = {{0, 0, 0},      {bd - 1, bd - 1, bd - 1},
                        {0, bd - 1, 1}, {bd - 1, 1, 0},
                        {1, 1, 0},      {bd - 1, 1, 1}};
  real_t* p = a.data();
  std::size_t n = 0;
  for (std::size_t id = 0; id < a.size() / vol; id += 3, ++n) {
    const Vec3 c = spots[n % std::size(spots)];
    p[id * vol + static_cast<std::size_t>((c.z * bd + c.y) * bd + c.x)] =
        specials[n % std::size(specials)];
  }
}

/// The levels the brick body runs on: a one-rank level, which wraps
/// every axis (two bricks per axis, so both x neighbours of a brick are
/// one owned brick), and rank 0 of a 2x2x2 grid, which stores the full
/// ghost shell.
struct BrickBodyCase {
  index_t bdim;
  bool wrapped;
  std::string name() const {
    return std::to_string(bdim) + "^3 bricks, " +
           (wrapped ? "one wrapped rank" : "rank 0 of 2x2x2");
  }
};

const BrickBodyCase kBrickBodyCases[] = {
    {4, true}, {8, true}, {4, false}, {8, false}};

GmgSolver brick_body_solver(const BrickBodyCase& bc) {
  GmgOptions o = base_options(bc.bdim, Smoother::kJacobi);
  o.levels = 2;
  o.jacobi_weight = 0.6;
  const index_t n = bc.wrapped ? 2 * bc.bdim : 4 * bc.bdim;
  return bc.wrapped ? GmgSolver(o, CartDecomp({n, n, n}, {1, 1, 1}), 0)
                    : GmgSolver(o, CartDecomp({2 * n, 2 * n, 2 * n},
                                              {2, 2, 2}),
                                0);
}

/// The row body's ax of every cell of full plan brick `it`, at its
/// brick-relative flat index in `out`.
template <typename BD>
void star7_rows(const BrickPlanItem& it, const real_t* xp, real_t alpha,
                real_t beta, real_t* out) {
  for (index_t lk = 0; lk < BD::bz; ++lk) {
    for (index_t lj = 0; lj < BD::by; ++lj) {
      real_t* row = out + (lk * BD::by + lj) * BD::bx;
      detail::star7_row<BD, true>(it, OneLane{}, xp, lj, lk, 0, BD::bx, alpha,
                                  beta,
                                  [&](index_t s, real_t ax) { row[s] = ax; });
    }
  }
}

void expect_same_storage(BrickedArray& got, BrickedArray& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(real_t)),
            0)
      << what;
}

// On every full brick of the interior plan, star7_brick's row vectors
// must hold star7_row's cells bit for bit, with IEEE specials on brick
// faces, edges and corners.
TEST(Star7Brick, RowsMatchRowBodyBitwise) {
  for (const BrickBodyCase& bc : kBrickBodyCases) {
    GmgSolver solver = brick_body_solver(bc);
    MgLevel& lev = solver.level(0);
    fill_with_specials(lev.x, 21);
    with_brick_dims(lev.shape, [&](auto bd) {
      using BD = decltype(bd);
      const auto plan = lev.grid->iteration_plan(
          lev.interior(), Vec3{BD::bx, BD::by, BD::bz});
      ASSERT_EQ(plan->num_full,
                static_cast<std::int64_t>(plan->items.size()));
      std::vector<real_t> got(BD::volume), want(BD::volume);
      int nan_cells = 0, inf_cells = 0;
      for (const BrickPlanItem& it : plan->items) {
        std::fill(got.begin(), got.end(), 0.5);
        detail::star7_brick<BD>(it, lev.x.data(), lev.alpha, lev.beta,
                                [&](index_t s, const auto& ax) {
                                  detail::store_row(got.data() + s, ax);
                                });
        star7_rows<BD>(it, lev.x.data(), lev.alpha, lev.beta, want.data());
        for (index_t e = 0; e < BD::volume; ++e) {
          ASSERT_EQ(std::memcmp(&got[e], &want[e], sizeof(real_t)), 0)
              << bc.name() << ", brick " << it.id << ", cell " << e << ": "
              << got[e] << " vs " << want[e];
          nan_cells += std::isnan(want[e]);
          inf_cells += std::isinf(want[e]);
        }
      }
      // The specials reach the compared cells.
      EXPECT_GT(nan_cells, 0) << bc.name();
      EXPECT_GT(inf_cells, 0) << bc.name();
    });
  }
}

// applyOp and the one-pass sweep (plain, with r, with r and the coarse
// restriction) over the interior, which run the brick body on every
// brick, against a reference built from star7_row and the update
// arithmetic written out here — compared over whole storage, so a
// write outside the region shows too.
TEST(Star7Brick, KernelsMatchRowReferenceBitwise) {
  for (const BrickBodyCase& bc : kBrickBodyCases) {
    GmgSolver solver = brick_body_solver(bc);
    MgLevel& lev = solver.level(0);
    MgLevel& coarse = solver.level(1);
    const real_t gamma = -lev.plan.weight / lev.alpha;
    const Box act = lev.interior();
    BrickedArray ax_ref(lev.grid, lev.shape), xn_ref(lev.grid, lev.shape),
        r_ref(lev.grid, lev.shape), c_ref(coarse.grid, coarse.shape);
    with_brick_dims(lev.shape, [&](auto bd) {
      using BD = decltype(bd);
      const auto plan =
          lev.grid->iteration_plan(act, Vec3{BD::bx, BD::by, BD::bz});
      ASSERT_EQ(plan->num_full,
                static_cast<std::int64_t>(plan->items.size()));
      const auto reference = [&](bool residual) {
        std::vector<real_t> ax(BD::volume);
        for (const BrickPlanItem& it : plan->items) {
          star7_rows<BD>(it, lev.x.data(), lev.alpha, lev.beta, ax.data());
          const std::size_t base = static_cast<std::size_t>(it.id) * BD::volume;
          for (std::size_t e = 0; e < ax.size(); ++e) {
            const std::size_t i = base + e;
            const real_t rhs = lev.b.data()[i];
            ax_ref.data()[i] = ax[e];
            if (residual) r_ref.data()[i] = rhs - ax[e];
            xn_ref.data()[i] = lev.x.data()[i] + gamma * (ax[e] - rhs);
          }
        }
      };
      const auto copy = [](BrickedArray& to, const BrickedArray& from) {
        std::memcpy(to.data(), from.data(), from.size() * sizeof(real_t));
      };
      for (const int stage : {0, 1, 2}) {  // x', +r, +coarse restriction
        const std::string what =
            bc.name() + ", stage " + std::to_string(stage);
        fill_with_specials(lev.x, 31);
        fill_storage(lev.b, 32);
        fill_storage(lev.Ax, 33);
        fill_storage(lev.r, 34);
        fill_storage(coarse.b, 35);
        copy(ax_ref, lev.Ax);
        copy(xn_ref, lev.Ax);
        copy(r_ref, lev.r);
        copy(c_ref, coarse.b);
        reference(stage >= 1);
        if (stage == 2) restriction(c_ref, r_ref);
        if (stage == 0) {
          apply_op(lev.Ax, lev.x, lev.alpha, lev.beta, act);
          expect_same_storage(lev.Ax, ax_ref, what + ": applyOp");
          fill_storage(lev.Ax, 33);  // the sweep's x' lands in Ax
        }
        fused::jacobi_sweep(lev.Ax, stage >= 1 ? &lev.r : nullptr,
                            stage == 2 ? &coarse.b : nullptr, lev.x, lev.b,
                            lev.alpha, lev.beta, gamma, act);
        expect_same_storage(lev.Ax, xn_ref, what + ": x'");
        expect_same_storage(lev.r, r_ref, what + ": r");
        expect_same_storage(coarse.b, c_ref, what + ": coarse b");
      }
    });
  }
}

// ---- GS tail and convergence norm vs their split pairs -----------------

/// A zero field of width k (a BrickedArray at k = 1) on `lev`'s grid.
template <class F>
F make_field(const MgLevel& lev, int k) {
  if constexpr (std::is_same_v<F, BrickedArray>) {
    return BrickedArray(lev.grid, lev.shape);
  } else {
    return BatchedBrickedArray(lev.grid, lev.shape, k);
  }
}

/// fused::residual_restrict against residual + restriction, and at
/// k = 1 fused::residual_max_norm against residual + max_norm, on
/// `fine` and `coarse`: every storage cell, ghosts included, must hold
/// the same bits both ways. b carries one NaN cell in its last
/// component.
template <class F>
void compare_tails(const MgLevel& fine, const MgLevel& coarse, int k,
                   const std::string& what) {
  F b = make_field<F>(fine, k), ax = make_field<F>(fine, k);
  F r_split = make_field<F>(fine, k), r_fused = make_field<F>(fine, k);
  F cb_split = make_field<F>(coarse, k), cb_fused = make_field<F>(coarse, k);
  fill_storage(storage(b), 21);
  fill_storage(storage(ax), 22);
  component(b, 1, 2, 3, k - 1) = std::numeric_limits<real_t>::quiet_NaN();
  const auto reset = [&] {
    for (F* r : {&r_split, &r_fused}) fill_storage(storage(*r), 23);
    for (F* cb : {&cb_split, &cb_fused}) fill_storage(storage(*cb), 24);
  };

  reset();
  residual(r_split, b, ax, fine.interior());
  restriction(cb_split, r_split);
  fused::residual_restrict(r_fused, cb_fused, b, ax);
  expect_same_storage(storage(r_fused), storage(r_split), what + ": r");
  expect_same_storage(storage(cb_fused), storage(cb_split),
                      what + ": coarse b");
  EXPECT_TRUE(std::isnan(component(cb_fused, 0, 1, 1, k - 1))) << what;

  if constexpr (std::is_same_v<F, BrickedArray>) {
    reset();
    residual(r_split, b, ax, fine.interior());
    const real_t want = max_norm(r_split);
    const real_t got = fused::residual_max_norm(r_fused, b, ax);
    expect_same_storage(r_fused, r_split, what + ": norm's r");
    EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << what;
    // The norm counts a NaN as +inf: a NaN solve never converges.
    EXPECT_EQ(got, std::numeric_limits<real_t>::infinity()) << what;
  }
}

// The GS descent tail (residual + restriction in one pass) and the
// one-component convergence norm (residual + max-norm in one pass) must
// equal their split pairs bit for bit, at K = 1 and, for the tail, at
// K = 4; over brick dims 2/4/8 and 1/4 workers. The levels are rank 0's
// of a 2x2x2 grid, which store the full ghost shell.
TEST(FusedTail, ResidualRestrictAndNormMatchSplitPairsBitwise) {
  class EngineGuard {
   public:
    ~EngineGuard() {
      exec::configure_default_engine(exec::resolved_default_workers());
    }
  } guard;
  for (const index_t bdim : {2, 4, 8}) {
    const GmgSolver solver(base_options(bdim, Smoother::kRedBlackGS),
                           CartDecomp({64, 64, 64}, {2, 2, 2}), 0);
    for (const int workers : {1, 4}) {
      exec::configure_default_engine(workers);
      const std::string what = "brick " + std::to_string(bdim) +
                               ", workers " + std::to_string(workers);
      compare_tails<BrickedArray>(solver.level(0), solver.level(1), 1,
                                  what + ", K=1");
      compare_tails<BatchedBrickedArray>(solver.level(0), solver.level(1), 4,
                                         what + ", K=4");
    }
  }
}

// ---- GMG_CHECK: declared boxes honored -----------------------------------

TEST(FusedCheck, FusedVcycleIsHazardCleanUnderDetector) {
  // The fused kernels declare their access boxes (KernelScope) like
  // every other kernel; a checked fused V-cycle over both coefficient
  // regimes must record zero hazards — proving the fused passes touch
  // only the boxes they declared.
  check::set_enabled(true);
  check::reset();
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    for (const bool varcoef : {false, true}) {
      const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
      GmgSolver solver(base_options(4, Smoother::kJacobi), decomp, 0);
      if (varcoef) solver.set_coefficient(c, wavy_coef);
      solver.set_rhs(sine_rhs);
      solver.vcycle(c);
      EXPECT_LT(solver.residual_norm(c), 1e3);
    }
  });
  EXPECT_TRUE(check::hazards().empty());
  EXPECT_NO_THROW(check::require_clean("fused vcycle"));
  check::reset();
  check::set_enabled(false);
}

// ---- seeded bug: undersized ghost for the fused footprint ----------------

TEST(FusedSeededBug, WidenedFusedUnionRejectedBySetupCheck) {
  // Seeded configuration bug: pretend a fused kernel's union footprint
  // grew to include a radius-3 star (e.g. fusing the operator apply
  // into the same pass). On 2^3 bricks the one-brick ghost depth is 2
  // layers — the setup check must throw before any kernel runs.
  const auto widened =
      check::star_shape(3).merged(check::restriction_shape());
  EXPECT_THROW(check::require_footprint_fits("seeded fused union",
                                             widened.extents(),
                                             BrickShape::cube(2)),
               Error);
  // The real fused footprint passes the same gate on the same brick.
  EXPECT_NO_THROW(check::require_footprint_fits(
      "fused descent", fused::descent_footprint().extents(),
      BrickShape::cube(2)));
}

TEST(FusedSeededBug, OddBrickDimsRejectedByFusedSetupGuard) {
  // The per-brick 8->1 octant restriction requires even brick dims;
  // the guard fires even when the footprint itself would fit.
  EXPECT_THROW(fused::require_fused_fits(BrickShape{3, 3, 3}), Error);
  EXPECT_NO_THROW(fused::require_fused_fits(BrickShape::cube(2)));
}

}  // namespace
}  // namespace gmg

// Patch-based local refinement (src/amr): masked iteration plans and
// the bounded plan cache, coarse–fine interface operator exactness,
// composite-solve convergence and accuracy against a uniformly fine
// reference, bitwise reproducibility across worker counts, and
// multi-rank GMG_CHECK cleanliness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <vector>

#include "amr/composite_solver.hpp"
#include "amr/hierarchy.hpp"
#include "brick/brick_mask.hpp"
#include "check/shadow.hpp"
#include "exec/runtime.hpp"
#include "gmg/operators.hpp"

namespace gmg {
namespace {

constexpr real_t kNu = 1e-3;  // A = I - nu * Laplacian

// Manufactured solution: a Gaussian bump centered in the patch, so
// the interesting scales live where the refinement is. The periodic
// wrap of the Gaussian at this sigma is ~1e-11 and washes out under
// the discretization-error comparisons below.
real_t exact_u(real_t x, real_t y, real_t z) {
  const real_t sigma = 0.07;
  const real_t dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
  const real_t r2 = dx * dx + dy * dy + dz * dz;
  return std::exp(-r2 / (2 * sigma * sigma));
}

real_t gaussian_rhs(real_t x, real_t y, real_t z) {
  const real_t sigma = 0.07;
  const real_t s2 = sigma * sigma;
  const real_t dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
  const real_t r2 = dx * dx + dy * dy + dz * dz;
  const real_t u = std::exp(-r2 / (2 * s2));
  const real_t lap = u * (r2 / (s2 * s2) - 3 / s2);
  return u - kNu * lap;
}

GmgOptions coarse_options(int levels = 4) {
  GmgOptions o;
  o.levels = levels;
  o.smooths = 8;
  o.bottom_smooths = 50;
  o.brick = BrickShape::cube(4);
  o.identity_coef = 1.0;
  o.laplacian_coef = -kNu;
  return o;
}

amr::AmrOptions composite_options(Box patch) {
  amr::AmrOptions o;
  o.gmg = coarse_options();
  o.patch = patch;
  o.patch_smooths = 8;
  o.correction_vcycles = 2;
  o.tolerance = 1e-9;
  o.max_cycles = 40;
  return o;
}

TEST(BrickMaskPlan, FiltersBricksAndTracksMaskVersion) {
  BrickGrid grid({4, 4, 4});
  BrickMask mask(grid.num_bricks());
  for_each(grid.interior_box(), [&](index_t bi, index_t bj, index_t bk) {
    mask.set(grid.storage_id({bi, bj, bk}), bi < 2);
  });
  const Box active = Box::from_extent({16, 16, 16});
  const auto& plan = grid.iteration_plan(active, {4, 4, 4}, &mask);
  EXPECT_EQ(plan->items.size(), 32u);  // half of the 4x4x4 bricks
  EXPECT_EQ(plan->num_full, 32);       // active covers whole bricks

  const auto before = grid.plan_cache_stats();
  grid.iteration_plan(active, {4, 4, 4}, &mask);
  EXPECT_EQ(grid.plan_cache_stats().hits, before.hits + 1);

  // Mutating the mask changes its version: same call now misses and
  // rebuilds with one brick fewer.
  mask.set(grid.storage_id({0, 0, 0}), false);
  const auto& plan2 = grid.iteration_plan(active, {4, 4, 4}, &mask);
  EXPECT_EQ(plan2->items.size(), 31u);
  EXPECT_EQ(grid.plan_cache_stats().misses, before.misses + 1);

  // A no-op set does not bump the version.
  const auto v = mask.version();
  mask.set(grid.storage_id({0, 0, 0}), false);
  EXPECT_EQ(mask.version(), v);
  EXPECT_EQ(mask.count(), 31);
}

TEST(BrickMaskPlan, PlanCacheEvictsLeastRecentlyUsed) {
  BrickGrid grid({4, 4, 4});
  grid.set_plan_cache_capacity(2);
  const Vec3 bd{4, 4, 4};
  const Box a = Box::from_extent({16, 16, 16});
  const Box b = Box::from_extent({8, 16, 16});
  const Box c = Box::from_extent({8, 8, 16});
  grid.iteration_plan(a, bd);
  grid.iteration_plan(b, bd);
  grid.iteration_plan(c, bd);  // evicts a (least recently used)
  auto s = grid.plan_cache_stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.capacity, 2u);

  grid.iteration_plan(a, bd);  // miss: was evicted (displaces b)
  EXPECT_EQ(grid.plan_cache_stats().misses, 4u);
  grid.iteration_plan(a, bd);  // now resident
  EXPECT_EQ(grid.plan_cache_stats().hits, 1u);

  // Recency, not insertion order, decides the victim: touch c (the
  // older insertion), then insert b — a is evicted, c survives.
  grid.iteration_plan(c, bd);
  grid.iteration_plan(b, bd);
  grid.iteration_plan(c, bd);
  EXPECT_EQ(grid.plan_cache_stats().hits, 3u);
  EXPECT_EQ(grid.plan_cache_stats().misses, 5u);
}

// The cell-centered trilinear interface prolongation is exact on
// linear functions, and on a globally linear composite state the
// averaged fine flux equals the coarse flux — so the reflux
// correction must vanish identically. This pins down every sign,
// parity, and index convention in the interface kernels at once.
TEST(AmrInterface, ProlongationExactAndRefluxVanishesOnLinears) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  amr::AmrHierarchy h(composite_options(Box{{8, 8, 8}, {20, 20, 20}}),
                      decomp, 0);
  ASSERT_TRUE(h.has_part());
  MgLevel& L0 = h.solver().level(0);
  MgLevel& P = h.patch();
  const auto& g = h.geometry();
  const auto lin = [](real_t x, real_t y, real_t z) {
    return 0.3 + 1.7 * x - 0.9 * y + 0.4 * z;
  };
  const real_t H = L0.h;
  for_each(L0.interior(), [&](index_t i, index_t j, index_t k) {
    h.xH()(i, j, k) = lin((i + 0.5) * H, (j + 0.5) * H, (k + 0.5) * H);
  });
  const real_t hf = P.h;
  for_each(P.interior(), [&](index_t i, index_t j, index_t k) {
    P.x(i, j, k) = lin((g.part_fine.lo.x + i + 0.5) * hf,
                       (g.part_fine.lo.y + j + 0.5) * hf,
                       (g.part_fine.lo.z + k + 0.5) * hf);
  });

  amr::prolong_interface_ghosts(P.x, h.xH(), g);
  for (int dir = 0; dir < kNumDirections; ++dir) {
    const Vec3 off = direction_offset(dir);
    if ((off.x != 0) + (off.y != 0) + (off.z != 0) != 1) continue;
    for_each(ghost_region(P.interior(), dir, 1),
             [&](index_t i, index_t j, index_t k) {
               const real_t want = lin((g.part_fine.lo.x + i + 0.5) * hf,
                                       (g.part_fine.lo.y + j + 0.5) * hf,
                                       (g.part_fine.lo.z + k + 0.5) * hf);
               EXPECT_NEAR(P.x(i, j, k), want, 1e-12);
             });
  }

  init_zero(h.rH());
  amr::reflux_residual(h.rH(), h.xH(), P.x, g, /*beta_h=*/1.0);
  EXPECT_LE(max_norm(h.rH()), 1e-10);

  // R o P_pc is the identity exactly (the 8 equal summands cancel the
  // 1/8 weight in floating point), so the covered coarse solution
  // stays slaved through correction round-trips.
  for_each(L0.interior(), [&](index_t i, index_t j, index_t k) {
    h.bH()(i, j, k) = std::sin(0.3 * i + 0.7 * j) + 0.1 * k;
  });
  init_zero(P.Ax);
  amr::correct_patch(P.Ax, h.bH(), g);
  amr::restrict_patch(h.AxH(), P.Ax, g);
  for_each(intersect(coarsen(g.patch_fine, 2), g.rank_coarse),
           [&](index_t i, index_t j, index_t k) {
             EXPECT_EQ(h.AxH()(i, j, k), h.bH()(i, j, k));
           });
}

TEST(CompositeSolve, ConvergesOnLocalizedSource) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    amr::AmrHierarchy h(composite_options(Box{{8, 8, 8}, {24, 24, 24}}),
                        decomp, 0);
    h.set_rhs(gaussian_rhs);
    amr::CompositeSolver solver(h);
    const amr::CompositeResult res = solver.solve(c);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.final_residual, 1e-9 * res.initial_residual);
    EXPECT_LE(res.cycles, 30);
    // History is monotone enough to witness a genuine contraction.
    ASSERT_GE(res.history.size(), 2u);
    EXPECT_LT(res.history[1], res.history[0]);
  });
}

TEST(CompositeSolve, NanRhsNeverConverges) {
  // One NaN RHS cell outside the patch: the composite norm reads +inf,
  // and so does its target (tolerance x initial norm) — the solve must
  // report unconverged instead of inf <= inf.
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    amr::AmrHierarchy h(composite_options(Box{{8, 8, 8}, {24, 24, 24}}),
                        decomp, 0);
    h.set_rhs([](real_t x, real_t y, real_t z) {
      const real_t hc = 1.0 / 32;
      return x < hc && y < hc && z < hc
                 ? std::numeric_limits<real_t>::quiet_NaN()
                 : gaussian_rhs(x, y, z);
    });
    const amr::CompositeResult res = amr::CompositeSolver(h).solve(c);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.cycles, 0);
    EXPECT_EQ(res.final_residual, std::numeric_limits<real_t>::infinity());
  });
}

TEST(CompositeSolve, MatchesUniformlyFineSolveOnRefinedRegion) {
  comm::World world(1);
  world.run([&](comm::Communicator& c) {
    // Composite: 32^3 coarse + 2x patch over the central 50% span.
    const CartDecomp decompH({32, 32, 32}, {1, 1, 1});
    amr::AmrHierarchy h(composite_options(Box{{8, 8, 8}, {24, 24, 24}}),
                        decompH, 0);
    h.set_rhs(gaussian_rhs);
    amr::CompositeSolver comp(h);
    const amr::CompositeResult cres = comp.solve(c);
    ASSERT_TRUE(cres.converged);

    // Uniformly fine reference: 64^3 everywhere, same operator.
    const CartDecomp decompF({64, 64, 64}, {1, 1, 1});
    GmgOptions fopts = coarse_options(5);
    fopts.tolerance = 1e-11;
    GmgSolver fine(fopts, decompF, 0);
    fine.set_rhs(gaussian_rhs);
    ASSERT_TRUE(fine.solve(c).converged);

    // Coarse-only control: 32^3 with no patch.
    GmgOptions hopts = coarse_options(4);
    hopts.tolerance = 1e-11;
    GmgSolver coarse(hopts, decompH, 0);
    coarse.set_rhs(gaussian_rhs);
    ASSERT_TRUE(coarse.solve(c).converged);

    // Compare against the exact solution on the inner half of the
    // patch (away from interface pollution): fine cells [24,40)^3.
    const real_t hf = h.patch().h;
    real_t err_comp = 0, err_fine = 0, err_coarse = 0;
    const MgLevel& P = h.patch();
    const Vec3 plo = h.geometry().part_fine.lo;
    for_each(Box{{24, 24, 24}, {40, 40, 40}},
             [&](index_t i, index_t j, index_t k) {
               const real_t x = (i + 0.5) * hf, y = (j + 0.5) * hf,
                            z = (k + 0.5) * hf;
               const real_t u = exact_u(x, y, z);
               err_comp = std::max(
                   err_comp, std::abs(P.x(i - plo.x, j - plo.y, k - plo.z) -
                                      u));
               err_fine = std::max(
                   err_fine, std::abs(fine.solution()(i, j, k) - u));
             });
    const real_t H = coarse.level(0).h;
    for_each(Box{{12, 12, 12}, {20, 20, 20}},
             [&](index_t i, index_t j, index_t k) {
               const real_t u = exact_u((i + 0.5) * H, (j + 0.5) * H,
                                        (k + 0.5) * H);
               err_coarse =
                   std::max(err_coarse, std::abs(coarse.solution()(i, j, k) -
                                                 u));
             });
    // The composite solve reaches the uniformly fine discretization
    // error on the refined region; the unrefined solve does not.
    EXPECT_LE(err_comp, 1.5 * err_fine)
        << "composite " << err_comp << " vs fine " << err_fine;
    EXPECT_GE(err_coarse, 2.5 * err_comp)
        << "coarse " << err_coarse << " vs composite " << err_comp;
  });
}

TEST(CompositeSolve, BitwiseReproducibleAcrossWorkerCounts) {
  const CartDecomp decomp({32, 32, 32}, {1, 1, 1});
  std::vector<real_t> ref_patch, ref_coarse;
  for (const int workers : {1, 2, 4}) {
    exec::configure_default_engine(workers);
    std::vector<real_t> patch_vals, coarse_vals;
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      amr::AmrHierarchy h(composite_options(Box{{8, 8, 8}, {24, 24, 24}}),
                          decomp, 0);
      h.set_rhs(gaussian_rhs);
      amr::CompositeSolver solver(h);
      const auto res = solver.solve(c);
      ASSERT_TRUE(res.converged);
      for_each(h.patch().interior(), [&](index_t i, index_t j, index_t k) {
        patch_vals.push_back(h.patch().x(i, j, k));
      });
      for_each(h.solver().level(0).interior(),
               [&](index_t i, index_t j, index_t k) {
                 coarse_vals.push_back(h.xH()(i, j, k));
               });
    });
    if (ref_patch.empty()) {
      ref_patch = std::move(patch_vals);
      ref_coarse = std::move(coarse_vals);
    } else {
      EXPECT_EQ(ref_patch, patch_vals) << workers << " workers";
      EXPECT_EQ(ref_coarse, coarse_vals) << workers << " workers";
    }
  }
  exec::configure_default_engine(exec::resolved_default_workers());
}

TEST(CompositeSolve, MultiRankCheckCleanMatchesSingleRank) {
  // 2x2x2 ranks (16^3 coarse subdomains) and the amr_ranks shape 2x2x1
  // (z wrapped onto each rank itself, DESIGN.md §11); patch faces at 8
  // and 24 avoid the rank planes at 16. Refluxing, the masked kernels
  // and the patch and level exchanges of the correction V-cycles must
  // leave the shadow tracker clean throughout.
  amr::AmrOptions aopts = composite_options(Box{{8, 8, 8}, {24, 24, 24}});
  // Pin the level count to what the 16^3 subdomains allow, so the
  // single-rank reference runs the identical algebraic cycle.
  aopts.gmg.levels = 3;

  const CartDecomp single({32, 32, 32}, {1, 1, 1});
  amr::CompositeResult sres;
  std::vector<real_t> sx(static_cast<std::size_t>(32 * 32 * 32), 0);
  {
    comm::World world(1);
    world.run([&](comm::Communicator& c) {
      amr::AmrHierarchy h(aopts, single, 0);
      h.set_rhs(gaussian_rhs);
      sres = amr::CompositeSolver(h).solve(c);
      for_each(h.solver().level(0).interior(),
               [&](index_t i, index_t j, index_t k) {
                 sx[static_cast<std::size_t>((k * 32 + j) * 32 + i)] =
                     h.xH()(i, j, k);
               });
    });
  }
  ASSERT_TRUE(sres.converged);

  for (const Vec3 rank_grid : {Vec3{2, 2, 2}, Vec3{2, 2, 1}}) {
    SCOPED_TRACE(std::to_string(rank_grid.z) + " rank(s) along z");
    const CartDecomp decomp({32, 32, 32}, rank_grid);
    const int cut_axes = (rank_grid.x > 1) + (rank_grid.y > 1) +
                         (rank_grid.z > 1);
    std::mutex mu;
    std::vector<amr::CompositeResult> results(
        static_cast<std::size_t>(decomp.num_ranks()));
    check::set_enabled(true);
    comm::World world(decomp.num_ranks());
    world.run([&](comm::Communicator& c) {
      amr::AmrHierarchy h(aopts, decomp, c.rank());
      EXPECT_TRUE(h.has_part());
      // Every rank owns one piece of the patch: on 2x2x2 an octant, with
      // three faces of its part rank-internal cuts (fine-filled) and
      // three the coarse-fine interface; each cut axis contributes one.
      EXPECT_EQ(h.patch_exchange().fine_filled_count(), cut_axes);
      h.set_rhs(gaussian_rhs);
      const auto res = amr::CompositeSolver(h).solve(c);
      // Same cycle count as single-rank: the residual reductions are
      // exact max-reductions, so the composite loop is decomposition-
      // invariant — and with matching cycles the local stencil
      // arithmetic is too, making xH bitwise reproducible across
      // decompositions.
      EXPECT_EQ(res.cycles, sres.cycles);
      const Box rb = decomp.subdomain_box(c.rank());
      for_each(h.solver().level(0).interior(),
               [&](index_t i, index_t j, index_t k) {
                 const Vec3 gc = rb.lo + Vec3{i, j, k};
                 const real_t want =
                     sx[static_cast<std::size_t>((gc.z * 32 + gc.y) * 32 +
                                                 gc.x)];
                 if (h.xH()(i, j, k) != want) {
                   std::lock_guard<std::mutex> lock(mu);
                   ADD_FAILURE() << "rank " << c.rank() << " xH(" << gc.x
                                 << ',' << gc.y << ',' << gc.z << ") = "
                                 << h.xH()(i, j, k) << " want " << want;
                 }
               });
      std::lock_guard<std::mutex> lock(mu);
      results[static_cast<std::size_t>(c.rank())] = res;
    });
    EXPECT_TRUE(check::hazards().empty());
    EXPECT_NO_THROW(check::require_clean("composite AMR solve"));
    check::set_enabled(false);
    for (const auto& r : results) {
      EXPECT_TRUE(r.converged);
      EXPECT_DOUBLE_EQ(r.final_residual, sres.final_residual);
    }
  }
}

}  // namespace
}  // namespace gmg

// Access-hazard detector (src/check layer 2): seeded-bug coverage.
//
// Two deliberately planted bugs from the issue spec:
//   1. an undersized ghost depth (stencil radius > brick dimension) —
//      rejected at kernel launch / solver setup, checker on or off;
//   2. an exchange ordering bug (a kernel reading ghost bricks while a
//      round's receives are still pending) — recorded by the runtime
//      detector, which TSan misses under deterministic chunk plans.
// Plus: write-write overlap across engine workers, corrupt iteration
// plans, the scopes the kernels derive from their effect summaries, the
// disabled-path guarantee (no hazard recorded, no heap allocation per
// launch), and a full checker-enabled multi-rank V-cycle over every
// smoother that must come out clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <new>
#include <thread>
#include <vector>

#include "amr/interface_kernels.hpp"
#include "check/footprint.hpp"
#include "check/shadow.hpp"
#include "comm/simmpi.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/generated/laplacian_7pt_gen.hpp"
#include "dsl/generated/star_13pt_gen.hpp"
#include "dsl/stencils.hpp"
#include "gmg/fused_kernels.hpp"
#include "gmg/operators.hpp"
#include "gmg/solver.hpp"

namespace gmg {
namespace {

// Heap allocations counted by the replaced global operator new below,
// while g_count_allocs is set.
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_allocs{0};

}  // namespace
}  // namespace gmg

// Out of line, so no call site sees the malloc/free pair behind a
// new/delete pair.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (gmg::g_count_allocs.load(std::memory_order_relaxed))
    gmg::g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace gmg {
namespace {

bool has_kind(check::HazardKind kind) {
  for (const check::HazardRecord& h : check::hazards()) {
    if (h.kind == kind) return true;
  }
  return false;
}

class CheckDetector : public ::testing::Test {
 protected:
  void SetUp() override {
    check::set_enabled(true);
    check::reset();
  }
  void TearDown() override {
    check::reset();
    check::set_enabled(false);
  }
};

// ---- seeded bug 1: undersized ghost depth --------------------------------

TEST_F(CheckDetector, SeededUndersizedGhostRejectedAtLaunch) {
  // Radius-3 star on 2^3 bricks: taps reach past the one-brick ghost
  // layer. The footprint check fires before any memory is touched.
  BrickedArray out = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  BrickedArray in = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  const auto expr =
      dsl::star_stencil<3, 0>(std::array<real_t, 4>{1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW(dsl::apply(expr, out, Box::from_extent({8, 8, 8}), in), Error);
}

TEST_F(CheckDetector, SeededUndersizedGhostRejectedAtSolverSetup) {
  // Red-black GS consumes 2 ghost layers per iteration; a 1^3 brick
  // provides 1. The solver constructor rejects the configuration.
  GmgOptions o;
  o.levels = 1;
  o.brick = BrickShape::cube(1);
  o.smoother = Smoother::kRedBlackGS;
  const CartDecomp decomp({8, 8, 8}, {1, 1, 1});
  EXPECT_THROW(GmgSolver(o, decomp, 0), Error);
}

TEST_F(CheckDetector, UndersizedGhostRejectedEvenWhenDetectorOff) {
  // The footprint check is a setup invariant, not a debug feature:
  // release builds with GMG_CHECK=0 still refuse to launch.
  check::set_enabled(false);
  BrickedArray out = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  BrickedArray in = BrickedArray::create({8, 8, 8}, BrickShape::cube(2));
  const auto expr =
      dsl::star_stencil<3, 0>(std::array<real_t, 4>{1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW(dsl::apply(expr, out, Box::from_extent({8, 8, 8}), in), Error);
}

// ---- seeded bug 2: exchange ordering -------------------------------------

TEST_F(CheckDetector, SeededOutOfOrderExchangeReadIsFlagged) {
  // Apply the operator over the full interior while x's receives are
  // pending — the window an exchange marks between posting its round
  // and its wait returning. The stencil's tap-grown read box covers
  // in-flight receive ghost bricks: the ordering bug the deterministic
  // runtime hides from TSan.
  BrickedArray x = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray Ax(x.grid_ptr(), x.shape());
  std::vector<BrickRange> ghost;
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir != kSelfDirection) ghost.push_back(x.grid().ghost_range(dir));
  }
  check::on_receives_posted(x.data(), &x.grid(), ghost);
  apply_op(Ax, x, -6.0, 1.0, Box::from_extent({8, 8, 8}));  // too early
  check::on_receives_done(x.data());
  EXPECT_GT(check::hazard_count(), 0u);
  EXPECT_TRUE(has_kind(check::HazardKind::kReadInflightGhost));
}

TEST_F(CheckDetector, WritesIntoInflightGhostBricksAreFlagged) {
  // Direct tracker exercise (single rank): mark every ghost range in
  // flight, then init_zero — which writes ghost bricks too.
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  std::vector<BrickRange> ghost;
  for (int dir = 0; dir < kNumDirections; ++dir) {
    if (dir == kSelfDirection) continue;
    ghost.push_back(f.grid().ghost_range(dir));
  }
  check::on_receives_posted(f.data(), &f.grid(), ghost);
  init_zero(f);
  check::on_receives_done(f.data());
  EXPECT_TRUE(has_kind(check::HazardKind::kWriteInflightGhost));

  // Once the receives are done, the same write is clean.
  check::clear_hazards();
  init_zero(f);
  EXPECT_EQ(check::hazard_count(), 0u);
}

TEST_F(CheckDetector, OverlappingExchangesOnOneFieldAreFlagged) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const std::vector<BrickRange> ghost{f.grid().ghost_range(0)};
  check::on_receives_posted(f.data(), &f.grid(), ghost);
  check::on_receives_posted(f.data(), &f.grid(), ghost);
  check::on_receives_done(f.data());
  EXPECT_TRUE(has_kind(check::HazardKind::kOverlappingExchange));
}

// ---- concurrent write-write ----------------------------------------------

TEST_F(CheckDetector, CrossThreadWriteWriteOverlapIsFlagged) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box lower{{0, 0, 0}, {8, 8, 6}};
  const Box upper{{0, 0, 4}, {8, 8, 8}};  // overlaps lower on z in [4,6)
  {
    check::KernelScope a("kernelA", {check::access(f, lower)}, {});
    std::thread other([&] {
      check::KernelScope b("kernelB", {check::access(f, upper)}, {});
    });
    other.join();
  }
  EXPECT_TRUE(has_kind(check::HazardKind::kWriteWriteOverlap));
}

TEST_F(CheckDetector, DisjointAndNestedWritesAreClean) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box lower{{0, 0, 0}, {8, 8, 4}};
  const Box upper{{0, 0, 4}, {8, 8, 8}};  // half-open: truly disjoint
  {
    check::KernelScope a("kernelA", {check::access(f, lower)}, {});
    std::thread other([&] {
      check::KernelScope b("kernelB", {check::access(f, upper)}, {});
    });
    other.join();
    // Same-thread nesting over overlapping boxes is sequenced, not a
    // hazard (an enclosing kernel delegating to an inner launch).
    check::KernelScope nested("kernelA.inner",
                              {check::access(f, Box{{0, 0, 0}, {4, 4, 4}})},
                              {});
  }
  EXPECT_EQ(check::hazard_count(), 0u);
}

// ---- corrupt iteration plans ---------------------------------------------

TEST_F(CheckDetector, CorruptPlanIsFlagged) {
  std::vector<BrickPlanItem> items(3);
  items[0].id = 0;  // full brick, consistent with the prefix
  items[0].ihi = 4;
  items[0].jhi = 4;
  items[0].khi = 4;
  items[1].id = 0;  // duplicate id: two chunks would write one brick
  items[1].ihi = 4;
  items[1].jhi = 4;
  items[1].khi = 4;
  items[2].id = 7;  // clip bound escapes the brick
  items[2].ihi = 5;
  items[2].jhi = 4;
  items[2].khi = 4;
  check::validate_plan("test.plan", items.data(), items.size(),
                       /*num_full=*/2, Vec3{4, 4, 4});
  EXPECT_GE(check::hazard_count(), 2u);
  EXPECT_TRUE(has_kind(check::HazardKind::kCorruptPlan));
}

TEST_F(CheckDetector, WellFormedPlanIsClean) {
  BrickedArray f = BrickedArray::create({16, 16, 16}, BrickShape::cube(4));
  const auto plan = f.grid().iteration_plan(Box::from_extent({16, 16, 16}),
                                            Vec3{4, 4, 4});
  check::validate_plan("test.plan", plan->items.data(), plan->items.size(),
                       plan->num_full, Vec3{4, 4, 4});
  EXPECT_EQ(check::hazard_count(), 0u);
}

// ---- scopes derived from the effect summaries -----------------------------

bool has_access(const std::vector<check::Access>& list, const void* key,
                const Box& box) {
  for (const check::Access& a : list) {
    if (a.key == key && a.box == box) return true;
  }
  return false;
}

TEST_F(CheckDetector, DerivedScopeGrowsReadsByTheSummaryReach) {
  BrickedArray x = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray b(x.grid_ptr(), x.shape());
  const Box active{{1, 1, 1}, {7, 7, 7}};
  const check::ScopeAccesses a = check::derive_accesses(
      gs_color_sweep_effects(), active,
      std::initializer_list<check::FieldBinding>{check::bind("x", x),
                                                 check::bind("b", b)});
  ASSERT_EQ(a.writes.size(), 1u);
  EXPECT_TRUE(has_access(a.writes, x.data(), active));
  ASSERT_EQ(a.reads.size(), 2u);
  EXPECT_TRUE(has_access(a.reads, x.data(), grow(active, 1)));
  EXPECT_TRUE(has_access(a.reads, b.data(), active));
}

TEST_F(CheckDetector, DerivedScopeUsesPerBindingBoxes) {
  BrickedArray fine = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray coarse = BrickedArray::create({4, 4, 4}, BrickShape::cube(4));
  const Box fine_box = Box::from_extent({8, 8, 8});
  const Box coarse_box = Box::from_extent({4, 4, 4});
  const check::ScopeAccesses a = check::derive_accesses(
      interpolation_trilinear_assign_effects(), fine_box,
      std::initializer_list<check::FieldBinding>{
          check::bind("fine", fine),
          check::bind("coarse", coarse, coarse_box)});
  EXPECT_TRUE(has_access(a.writes, fine.data(), fine_box));
  // The binding's own box, grown by the coarse role's reach of 1.
  ASSERT_EQ(a.reads.size(), 1u);
  EXPECT_TRUE(has_access(a.reads, coarse.data(), grow(coarse_box, 1)));
}

TEST_F(CheckDetector, DerivedScopeSkipsANullOptionalRole) {
  BrickedArray x = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray out(x.grid_ptr(), x.shape());
  BrickedArray b(x.grid_ptr(), x.shape());
  const BrickedArray* none = nullptr;
  const Box active = Box::from_extent({8, 8, 8});
  const check::ScopeAccesses a = check::derive_accesses(
      fused::jacobi_sweep_effects(1), active,
      std::initializer_list<check::FieldBinding>{
          check::bind("out", out), check::bind("r", none),
          check::bind("coarse", none, Box{{0, 0, 0}, {4, 4, 4}}),
          check::bind("x", x), check::bind("b", b)});
  ASSERT_EQ(a.writes.size(), 1u);
  EXPECT_TRUE(has_access(a.writes, out.data(), active));
  EXPECT_EQ(a.reads.size(), 2u);
}

TEST_F(CheckDetector, DerivedScopeGivesOneAccessPerRepeatedBinding) {
  BrickedArray rH = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray xH(rH.grid_ptr(), rH.shape());
  BrickedArray px = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box lo_face{{1, 2, 2}, {2, 6, 6}};
  const Box hi_face{{6, 2, 2}, {7, 6, 6}};
  const check::ScopeAccesses a = check::derive_accesses(
      amr::reflux_residual_effects(), Box{},
      std::initializer_list<check::FieldBinding>{
          check::bind("rH", rH, lo_face), check::bind("xH", xH, lo_face),
          check::bind("patch_x", px, lo_face),
          check::bind("rH", rH, hi_face), check::bind("xH", xH, hi_face),
          check::bind("patch_x", px, hi_face)});
  ASSERT_EQ(a.writes.size(), 2u);
  EXPECT_TRUE(has_access(a.writes, rH.data(), lo_face));
  EXPECT_TRUE(has_access(a.writes, rH.data(), hi_face));
  // rH is read in place, xH and the patch one cell beyond each face.
  ASSERT_EQ(a.reads.size(), 6u);
  EXPECT_TRUE(has_access(a.reads, rH.data(), hi_face));
  EXPECT_TRUE(has_access(a.reads, xH.data(), grow(lo_face, 1)));
  EXPECT_TRUE(has_access(a.reads, px.data(), grow(hi_face, 1)));
}

TEST_F(CheckDetector, DerivedScopeStretchesABatchedFieldsBox) {
  BrickedArray shape_src = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BatchedBrickedArray Ax(shape_src.grid_ptr(), BrickShape::cube(4), 3);
  BatchedBrickedArray x(shape_src.grid_ptr(), BrickShape::cube(4), 3);
  const Box active{{0, 0, 0}, {4, 8, 8}};
  const check::ScopeAccesses a = check::derive_accesses(
      apply_op_effects(1), active,
      std::initializer_list<check::FieldBinding>{check::bind("Ax", Ax),
                                                 check::bind("x", x)});
  EXPECT_TRUE(has_access(a.writes, Ax.data(), stretch_box(active, 3)));
  EXPECT_TRUE(has_access(a.reads, x.data(), stretch_box(grow(active, 1), 3)));
}

TEST_F(CheckDetector, DerivedScopeRejectsUnknownAndUnboundRoles) {
  BrickedArray r = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BrickedArray b(r.grid_ptr(), r.shape());
  const Box active = Box::from_extent({8, 8, 8});
  // "x" is no role of the residual kernel.
  EXPECT_THROW(check::derive_accesses(
                   residual_effects(), active,
                   std::initializer_list<check::FieldBinding>{
                       check::bind("r", r), check::bind("b", b),
                       check::bind("Ax", b), check::bind("x", b)}),
               Error);
  // Its "Ax" role is left unbound.
  EXPECT_THROW(check::derive_accesses(
                   residual_effects(), active,
                   std::initializer_list<check::FieldBinding>{
                       check::bind("r", r), check::bind("b", b)}),
               Error);
  // A launch rejects the same mistakes.
  EXPECT_THROW(
      {
        const auto scope =
            check::scope(residual_effects(), active, {check::bind("r", r)});
      },
      Error);
}

// ---- disabled path --------------------------------------------------------

TEST_F(CheckDetector, DisabledDetectorRecordsNothing) {
  check::set_enabled(false);
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  const Box whole = Box::from_extent({8, 8, 8});
  {
    check::KernelScope a("kernelA", {check::access(f, whole)}, {});
    std::thread other(
        [&] { check::KernelScope b("kernelB", {check::access(f, whole)}, {}); });
    other.join();
  }
  {
    const auto a =
        check::scope(init_zero_effects(), whole, {check::bind("a", f)});
    std::thread other([&] {
      const auto b =
          check::scope(init_zero_effects(), whole, {check::bind("a", f)});
    });
    other.join();
  }
  EXPECT_EQ(check::hazard_count(), 0u);
}

TEST_F(CheckDetector, DisabledDetectorLaunchesAllocateNothing) {
  // With the detector off a scoped launch derives nothing: it makes no
  // heap allocation of its own. Each kernel runs once to warm its plan
  // cache and trace buffers, then three times counted; the fewest
  // allocations of the three must be none (a one-off lazy
  // initialization elsewhere may still land in one counted launch).
  check::set_enabled(false);
  const Vec3 n{16, 16, 16};
  BrickedArray x = BrickedArray::create(n, BrickShape::cube(4));
  BrickedArray Ax(x.grid_ptr(), x.shape()), b(x.grid_ptr(), x.shape()),
      r(x.grid_ptr(), x.shape());
  BrickedArray xc = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  BatchedBrickedArray xk(x.grid_ptr(), x.shape(), 2),
      Axk(x.grid_ptr(), x.shape(), 2);
  const Box in = Box::from_extent(n);
  const std::vector<std::pair<const char*, std::function<void()>>> launches{
      {"apply_op", [&] { apply_op(Ax, x, -6.0, 1.0, in); }},
      {"residual", [&] { residual(r, b, Ax, in); }},
      {"jacobi_sweep",
       [&] {
         fused::jacobi_sweep<BrickedArray>(Ax, &r, nullptr, x, b, -6.0, 1.0,
                                           0.1, in);
       }},
      {"restriction", [&] { restriction(xc, r); }},
      {"interpolation_increment", [&] { interpolation_increment(x, xc); }},
      {"gs_color_sweep",
       [&] { gs_color_sweep(x, b, -6.0, 1.0, 0, Vec3{0, 0, 0}, in); }},
      {"apply_op batched", [&] { apply_op(Axk, xk, -6.0, 1.0, in); }},
  };
  for (const auto& [name, launch] : launches) {
    launch();
    long fewest = -1;
    for (int rep = 0; rep < 3; ++rep) {
      g_allocs = 0;
      g_count_allocs = true;
      launch();
      g_count_allocs = false;
      if (fewest < 0 || g_allocs.load() < fewest) fewest = g_allocs.load();
    }
    EXPECT_EQ(fewest, 0) << name;
  }
}

// ---- full solves must come out clean --------------------------------------

TEST_F(CheckDetector, CheckerEnabledVcycleRunsCleanForEverySmoother) {
  // Multi-rank with communication avoiding on: exercises the exchange
  // ordering, the CA deep-ghost sweeps, and every instrumented kernel.
  // Any recorded hazard fails the test.
  const CartDecomp decomp({32, 32, 32}, {2, 2, 2});
  const std::array<Smoother, 3> smoothers{
      Smoother::kJacobi, Smoother::kChebyshev, Smoother::kRedBlackGS};
  for (const Smoother sm : smoothers) {
    check::reset();
    comm::World world(decomp.num_ranks());
    world.run([&](comm::Communicator& c) {
      GmgOptions o;
      o.levels = 2;
      o.smooths = 4;
      o.bottom_smooths = 8;
      o.max_vcycles = 2;
      o.brick = BrickShape::cube(4);
      o.smoother = sm;
      o.communication_avoiding = true;
      GmgSolver solver(o, decomp, c.rank());
      solver.set_rhs([](real_t x, real_t y, real_t z) {
        return std::sin(2 * M_PI * x) * std::sin(2 * M_PI * y) *
               std::sin(2 * M_PI * z);
      });
      solver.vcycle(c);
      solver.vcycle(c);
      solver.residual_norm(c);
    });
    EXPECT_NO_THROW(check::require_clean("V-cycle"))
        << "smoother " << static_cast<int>(sm);
    EXPECT_EQ(check::hazard_count(), 0u);
  }
}

TEST_F(CheckDetector, CheckerEnabledGeneratedKernelsRunClean) {
  // The stencilgen kernels open their scopes from their emitted
  // summaries. Armed, over the interior and a CA-grown box of rank 0's
  // level of a 2-rank grid (which stores ghost bricks along x), they
  // must record no hazard.
  const CartDecomp decomp({16, 8, 8}, {2, 1, 1});
  GmgOptions o;
  o.levels = 1;
  o.brick = BrickShape::cube(4);
  GmgSolver solver(o, decomp, 0);
  MgLevel& lev = solver.level(0);
  const Box in = lev.interior();
  for (const int radius : {1, 2}) {
    const Box grown = lev.grid->grow_unwrapped(in, lev.shape.bx - radius);
    ASSERT_FALSE(grown == in);
    for (const Box& box : {in, grown}) {
      if (radius == 1) {
        dsl::generated::laplacian_7pt(lev.Ax, lev.x, lev.alpha, lev.beta,
                                      box);
      } else {
        dsl::generated::star_13pt(lev.Ax, lev.x, lev.alpha, lev.beta,
                                  -lev.beta / 16, box);
      }
    }
  }
  EXPECT_NO_THROW(check::require_clean("generated kernels"));
  EXPECT_EQ(check::hazard_count(), 0u);
}

TEST_F(CheckDetector, RequireCleanThrowsWithHazardDetails) {
  BrickedArray f = BrickedArray::create({8, 8, 8}, BrickShape::cube(4));
  check::on_receives_posted(f.data(), &f.grid(),
                            {f.grid().ghost_range(0)});
  check::on_receives_posted(f.data(), &f.grid(),
                            {f.grid().ghost_range(0)});
  check::on_receives_done(f.data());
  try {
    check::require_clean("unit");
    FAIL() << "require_clean did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overlapping-exchange"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace gmg

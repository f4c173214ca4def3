#include "amr/hierarchy.hpp"

#include "amr/composite_solver.hpp"
#include "common/error.hpp"
#include "gmg/kernel_plan.hpp"
#include "gmg/operators.hpp"

namespace gmg::amr {

AmrHierarchy::AmrHierarchy(const AmrOptions& opts, const CartDecomp& decomp,
                           int rank)
    : opts_(opts),
      decomp_(decomp),
      rank_(rank),
      solver_(opts.gmg, decomp, rank) {
  GMG_REQUIRE(opts_.gmg.operator_radius == 1,
              "AMR refluxing is derived from the 7-point flux form; "
              "operator_radius must be 1");
  GMG_REQUIRE(opts_.gmg.smoother == Smoother::kJacobi,
              "the patch smoother is Jacobi");
  GMG_REQUIRE(opts_.patch_smooths >= 1 && opts_.correction_vcycles >= 1,
              "composite cycle needs at least one sweep of each stage");

  const MgLevel& L0 = solver_.level(0);
  const Box& pc = opts_.patch;
  const Vec3 global = L0.global;
  const Vec3 sub = decomp.subdomain_extent();
  GMG_REQUIRE(!pc.empty(), "refinement patch is empty");
  for (int a = 0; a < 3; ++a) {
    const index_t b = a == 0 ? L0.shape.bx : (a == 1 ? L0.shape.by
                                                     : L0.shape.bz);
    GMG_REQUIRE(pc.lo[a] % b == 0 && pc.hi[a] % b == 0,
                "patch must be aligned to coarse bricks (so the "
                "covered/uncovered split is brick-granular)");
    GMG_REQUIRE(pc.lo[a] >= 1 && pc.hi[a] <= global[a] - 1,
                "patch must be strictly interior to the domain (the "
                "interface treatment does not wrap periodically)");
    GMG_REQUIRE(pc.lo[a] % sub[a] != 0 && pc.hi[a] % sub[a] != 0,
                "every patch face plane must lie strictly inside a rank "
                "(interface cells, their covered neighbors, and the fine "
                "interface layers then share a rank)");
  }

  geom_.patch_fine = refine(pc, 2);
  geom_.rank_coarse = decomp.subdomain_box(rank);
  geom_.part_fine =
      intersect(geom_.patch_fine, refine(geom_.rank_coarse, 2));

  // Level masks over the finest solver grid. Alignment makes every
  // brick wholly covered or wholly uncovered; a partial brick would
  // fail the REQUIRE above before reaching here.
  const std::shared_ptr<const BrickGrid>& grid = L0.grid;
  covered_ = std::make_unique<BrickMask>(grid->num_bricks());
  uncovered_ = std::make_unique<BrickMask>(grid->num_bricks());
  const Vec3 bdim{L0.shape.bx, L0.shape.by, L0.shape.bz};
  for_each(grid->interior_box(), [&](index_t bi, index_t bj, index_t bk) {
    const Vec3 lo = L0.rank_box.lo +
                    Vec3{bi * bdim.x, bj * bdim.y, bk * bdim.z};
    const bool cov = pc.covers(Box{lo, lo + bdim});
    const std::int32_t id = grid->storage_id(Vec3{bi, bj, bk});
    covered_->set(id, cov);
    uncovered_->set(id, !cov);
  });

  // Composite coarse fields on the solver's finest grid (the solver's
  // own x/b/Ax/r are scratch for the correction solves).
  xH_ = BrickedArray(grid, L0.shape);
  bH_ = BrickedArray(grid, L0.shape);
  rH_ = BrickedArray(grid, L0.shape);
  AxH_ = BrickedArray(grid, L0.shape);

  // The per-rank patch part as a synthetic MgLevel: same brick shape,
  // half the spacing, kernels bound by the same specializer the
  // solver levels use. No exchange engine — PatchExchange below does
  // the masked fine–fine ghost rounds.
  if (has_part()) {
    const Vec3 ext = geom_.part_fine.extent();
    GMG_REQUIRE(ext.x % bdim.x == 0 && ext.y % bdim.y == 0 &&
                    ext.z % bdim.z == 0,
                "patch part must be brick-divisible (follows from the "
                "alignment requirements)");
    patch_.level = 0;
    patch_.cells = ext;
    patch_.global = Vec3{2 * global.x, 2 * global.y, 2 * global.z};
    patch_.rank_box = geom_.part_fine;
    patch_.shape = L0.shape;
    patch_.h = L0.h / real_t{2};
    patch_.radius = 1;
    const real_t c_over_h2 =
        opts_.gmg.laplacian_coef / (patch_.h * patch_.h);
    patch_.alpha = opts_.gmg.identity_coef - 6.0 * c_over_h2;
    patch_.beta = c_over_h2;
    patch_.beta2 = 0.0;
    GMG_REQUIRE(patch_.alpha != 0.0, "patch operator diagonal vanishes");
    patch_.gamma = -0.5 / patch_.alpha;
    patch_.grid = std::make_shared<BrickGrid>(Vec3{
        ext.x / bdim.x, ext.y / bdim.y, ext.z / bdim.z});
    patch_.x = BrickedArray(patch_.grid, patch_.shape);
    patch_.b = BrickedArray(patch_.grid, patch_.shape);
    patch_.Ax = BrickedArray(patch_.grid, patch_.shape);
    patch_.r = BrickedArray(patch_.grid, patch_.shape);
    resolve_level_kernels(opts_.gmg, patch_);
  }
  pexch_ = std::make_unique<comm::PatchExchange>(
      has_part() ? patch_.grid : nullptr, L0.shape, geom_.patch_fine,
      geom_.part_fine, decomp, rank);

  // The correction-solve schedule was already proven by the embedded
  // GmgSolver's constructor; this proves the composite cycle around it
  // (masked coarse passes, interface kernels, patch rounds).
  if (check::verify_schedule_enabled()) verify_composite_schedule(*this);
}

void AmrHierarchy::set_rhs(
    const std::function<real_t(real_t, real_t, real_t)>& f) {
  solver_.level(0).for_each_cell_centre(
      [&](index_t i, index_t j, index_t k, real_t px, real_t py, real_t pz) {
        bH_(i, j, k) = f(px, py, pz);
      });
  init_zero(xH_);
  init_zero(rH_);
  init_zero(AxH_);
  if (has_part()) {
    // The patch level's rank box is this rank's part of the refined
    // patch, so its cell centres are the fine physical ones.
    patch_.for_each_cell_centre(
        [&](index_t i, index_t j, index_t k, real_t px, real_t py,
            real_t pz) { patch_.b(i, j, k) = f(px, py, pz); });
    init_zero(patch_.x);
    init_zero(patch_.Ax);
    init_zero(patch_.r);
  }
}

}  // namespace gmg::amr

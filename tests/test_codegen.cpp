// stencilgen: spec parsing, golden-file stability of the emitted
// code, and equivalence of the generated kernels with the hand-written
// (bit for bit) and DSL engines.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "dsl/codegen.hpp"
#include "dsl/generated/laplacian_7pt_gen.hpp"
#include "dsl/generated/star_13pt_gen.hpp"
#include "dsl/stencils.hpp"
#include "dsl/apply_brick.hpp"
#include "gmg/operators.hpp"
#include "tests/test_util.hpp"

namespace gmg {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(StencilSpec, ParsesSevenPointSpec) {
  const auto spec = dsl::codegen::StencilSpec::parse(
      read_file("tools/specs/laplacian_7pt.stencil"));
  EXPECT_EQ(spec.name, "laplacian_7pt");
  ASSERT_EQ(spec.coefs.size(), 2u);
  EXPECT_EQ(spec.coefs[0], "alpha");
  EXPECT_EQ(spec.taps.size(), 7u);
  EXPECT_EQ(spec.radius(), 1);
}

TEST(StencilSpec, ParseErrors) {
  using dsl::codegen::StencilSpec;
  EXPECT_THROW(StencilSpec::parse("bogus directive\n"), Error);
  EXPECT_THROW(StencilSpec::parse("kernel k\ncoef a\n"), Error);  // no taps
  EXPECT_THROW(StencilSpec::parse("kernel k\ncoef a\ntap 0 0 0 b\n"),
               Error);  // undeclared coefficient
  EXPECT_THROW(StencilSpec::parse("coef a\ntap 0 0 0 a\n"),
               Error);  // no kernel name
  EXPECT_THROW(StencilSpec::parse("kernel k\ncoef a\ntap 0 0 a\n"),
               Error);  // malformed tap
  // Comments and blank lines are fine.
  EXPECT_NO_THROW(StencilSpec::parse(
      "# comment\nkernel k\n\ncoef a # trailing\ntap 0 0 0 a\n"));
}

TEST(StencilGen, GoldenFilesMatchGeneratorOutput) {
  // The checked-in generated headers must be exactly what the
  // generator emits today (catches silent generator drift).
  for (const auto& [spec_path, golden_path] :
       {std::pair{"tools/specs/laplacian_7pt.stencil",
                  "src/dsl/generated/laplacian_7pt_gen.hpp"},
        std::pair{"tools/specs/star_13pt.stencil",
                  "src/dsl/generated/star_13pt_gen.hpp"}}) {
    const auto spec =
        dsl::codegen::StencilSpec::parse(read_file(spec_path));
    EXPECT_EQ(dsl::codegen::generate_kernel(spec), read_file(golden_path))
        << "regenerate with: ./build/tools/stencilgen " << spec_path
        << " -o " << golden_path;
  }
}

class GeneratedKernels : public ::testing::TestWithParam<index_t> {};

// The emitted 7-point kernel sums its taps in apply_op's order, so it
// gives apply_op's bits.
TEST_P(GeneratedKernels, SevenPointMatchesHandWrittenKernel) {
  const index_t bdim = GetParam();
  const Vec3 n{2 * bdim, 2 * bdim, 2 * bdim};
  Array3D xa(n, 1);
  test::randomize(xa, 71);
  BrickedArray x = test::to_bricks(xa, BrickShape::cube(bdim));
  x.fill_ghosts_periodic();
  BrickedArray want(x.grid_ptr(), x.shape());
  BrickedArray got(x.grid_ptr(), x.shape());

  apply_op(want, x, -6.0, 1.0, Box::from_extent(n));
  dsl::generated::laplacian_7pt(got, x, -6.0, 1.0, Box::from_extent(n));
  test::expect_same_bits(got, want, Box::from_extent(n), "interior");
}

TEST_P(GeneratedKernels, SevenPointOnExtendedRegion) {
  // Generated kernels must honor CA active regions too.
  const index_t bdim = GetParam();
  const Vec3 n{2 * bdim, 2 * bdim, 2 * bdim};
  Array3D xa(n, static_cast<index_t>(bdim));
  test::randomize(xa, 73);
  BrickedArray x = test::to_bricks(xa, BrickShape::cube(bdim));
  x.fill_ghosts_periodic();
  BrickedArray want(x.grid_ptr(), x.shape());
  BrickedArray got(x.grid_ptr(), x.shape());

  const Box active = grow(Box::from_extent(n), bdim - 1);
  apply_op(want, x, -6.0, 1.0, active);
  dsl::generated::laplacian_7pt(got, x, -6.0, 1.0, active);
  test::expect_same_bits(got, want, active, "CA-grown box");
}

// A tolerance check, not a bitwise one: the generator sums the taps
// in a different order from the DSL engine's star_stencil<2>
// expression, and at 8^3 bricks 591 of the 4,096 cells differ in their
// last bits.
TEST_P(GeneratedKernels, ThirteenPointMatchesDslEngine) {
  const index_t bdim = GetParam();
  if (bdim < 2) GTEST_SKIP();
  const Vec3 n{2 * bdim, 2 * bdim, 2 * bdim};
  Array3D xa(n, 2);
  test::randomize(xa, 77);
  BrickedArray x = test::to_bricks(xa, BrickShape::cube(bdim));
  x.fill_ghosts_periodic();
  BrickedArray want(x.grid_ptr(), x.shape());
  BrickedArray got(x.grid_ptr(), x.shape());

  const real_t c0 = -7.5, c1 = 4.0 / 3.0, c2 = -1.0 / 12.0;
  const auto expr =
      dsl::star_stencil<2, 0>(std::array<real_t, 3>{c0, c1, c2});
  dsl::apply(expr, want, Box::from_extent(n), x);
  dsl::generated::star_13pt(got, x, c0, c1, c2, Box::from_extent(n));
  int failures = 0;
  for_each(Box::from_extent(n), [&](index_t i, index_t j, index_t k) {
    if (std::abs(got(i, j, k) - want(i, j, k)) > 1e-11 && failures++ < 3) {
      ADD_FAILURE() << "at (" << i << ',' << j << ',' << k << ')';
    }
  });
  ASSERT_EQ(failures, 0);
}

INSTANTIATE_TEST_SUITE_P(BrickDims, GeneratedKernels,
                         ::testing::Values<index_t>(2, 4, 8));

TEST(StencilGen, GeneratedCodeMentionsAllTaps) {
  // Structural check on the emitted text: one row pointer per distinct
  // (dy, dz) plane and the coefficient-factored expression.
  const auto spec = dsl::codegen::StencilSpec::parse(
      read_file("tools/specs/laplacian_7pt.stencil"));
  const std::string code = dsl::codegen::generate_kernel(spec);
  EXPECT_NE(code.find("p_0_0"), std::string::npos);
  EXPECT_NE(code.find("p_m1_0"), std::string::npos);
  EXPECT_NE(code.find("p_1_0"), std::string::npos);
  EXPECT_NE(code.find("p_0_m1"), std::string::npos);
  EXPECT_NE(code.find("alpha * (p_0_0[li])"), std::string::npos);
  EXPECT_NE(code.find("#pragma omp simd"), std::string::npos);
  EXPECT_NE(code.find("DO NOT EDIT"), std::string::npos);
}

}  // namespace
}  // namespace gmg

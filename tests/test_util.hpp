// Shared helpers for the test suite: random fields mirrored across the
// brick and array layouts, and elementwise comparison.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "brick/bricked_array.hpp"
#include "common/rng.hpp"
#include "mesh/array3d.hpp"

namespace gmg::test {

/// Fill an Array3D's interior with deterministic random values.
inline void randomize(Array3D& a, std::uint64_t seed = 42) {
  Rng rng(seed);
  for_each(a.interior(),
           [&](index_t i, index_t j, index_t k) { a(i, j, k) = rng.uniform(); });
}

/// A bricked copy of an array's interior.
inline BrickedArray to_bricks(const Array3D& a, BrickShape shape) {
  BrickedArray b = BrickedArray::create(a.extent(), shape);
  b.copy_from(a);
  return b;
}

/// Elementwise interior comparison with EXPECT diagnostics.
inline void expect_equal(const BrickedArray& got, const Array3D& want,
                         real_t tol = 0.0) {
  ASSERT_EQ(got.extent(), want.extent());
  int failures = 0;
  for_each(Box::from_extent(want.extent()),
           [&](index_t i, index_t j, index_t k) {
             const real_t g = got(i, j, k), w = want(i, j, k);
             if (std::abs(g - w) > tol && failures < 5) {
               ADD_FAILURE() << "mismatch at (" << i << ',' << j << ',' << k
                             << "): got " << g << " want " << w;
               ++failures;
             }
           });
  ASSERT_EQ(failures, 0);
}

inline void expect_equal(const Array3D& got, const Array3D& want,
                         real_t tol = 0.0) {
  ASSERT_EQ(got.extent(), want.extent());
  int failures = 0;
  for_each(want.interior(), [&](index_t i, index_t j, index_t k) {
    const real_t g = got(i, j, k), w = want(i, j, k);
    if (std::abs(g - w) > tol && failures < 5) {
      ADD_FAILURE() << "mismatch at (" << i << ',' << j << ',' << k
                    << "): got " << g << " want " << w;
      ++failures;
    }
  });
  ASSERT_EQ(failures, 0);
}

/// `got` must hold `want`'s bits (memcmp, so NaN and -0.0 count) on
/// every cell of `box`.
inline void expect_same_bits(const BrickedArray& got, const BrickedArray& want,
                             const Box& box, const std::string& what) {
  int failures = 0;
  for_each(box, [&](index_t i, index_t j, index_t k) {
    const real_t g = got(i, j, k), w = want(i, j, k);
    if (std::memcmp(&g, &w, sizeof g) != 0 && failures++ < 3) {
      ADD_FAILURE() << what << ": differs at (" << i << ',' << j << ',' << k
                    << "): " << g << " vs " << w;
    }
  });
  ASSERT_EQ(failures, 0) << what;
}

}  // namespace gmg::test

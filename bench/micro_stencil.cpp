// Microbenchmark (ablation §V): fine-grain data blocking vs the
// conventional ijk array layout for the V-cycle kernels, and the
// brick-size choice (8^3 vs 4^3, the paper's per-platform tuning).
// Every kernel runs on the exec:: pool, so times and rates are wall
// time (UseRealTime), not the main thread's CPU time.
#include <benchmark/benchmark.h>

#include "baseline/operators_array.hpp"
#include "dsl/apply_brick.hpp"
#include "dsl/stencils.hpp"
#include "gmg/operators.hpp"

namespace {

using namespace gmg;

constexpr index_t kN = 64;

struct BrickFixture {
  BrickedArray x, b, Ax, r;
  explicit BrickFixture(index_t bdim)
      : x(BrickedArray::create({kN, kN, kN}, BrickShape::cube(bdim))),
        b(x.grid_ptr(), x.shape()),
        Ax(x.grid_ptr(), x.shape()),
        r(x.grid_ptr(), x.shape()) {
    for_each(Box::from_extent({kN, kN, kN}),
             [&](index_t i, index_t j, index_t k) {
               x(i, j, k) = static_cast<real_t>((i + j + k) % 13);
               b(i, j, k) = static_cast<real_t>((i * j + k) % 7);
             });
    x.fill_ghosts_periodic();
    b.fill_ghosts_periodic();
  }
};

void BM_ApplyOp_Brick(benchmark::State& state) {
  BrickFixture f(state.range(0));
  const Box interior = Box::from_extent({kN, kN, kN});
  for (auto _ : state) {
    apply_op(f.Ax, f.x, -6.0, 1.0, interior);
    benchmark::DoNotOptimize(f.Ax.data());
  }
  state.counters["GStencil/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kN * kN * kN / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ApplyOp_Brick)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ApplyOp_Array(benchmark::State& state) {
  Array3D x({kN, kN, kN}, 1), Ax({kN, kN, kN}, 1);
  for_each(x.interior(), [&](index_t i, index_t j, index_t k) {
    x(i, j, k) = static_cast<real_t>((i + j + k) % 13);
  });
  x.fill_ghosts_periodic();
  for (auto _ : state) {
    baseline::apply_op(Ax, x, -6.0, 1.0, x.interior());
    benchmark::DoNotOptimize(Ax.data());
  }
  state.counters["GStencil/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kN * kN * kN / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ApplyOp_Array)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SmoothResidual_Brick(benchmark::State& state) {
  BrickFixture f(state.range(0));
  const Box interior = Box::from_extent({kN, kN, kN});
  apply_op(f.Ax, f.x, -6.0, 1.0, interior);
  for (auto _ : state) {
    smooth_residual(f.x, f.r, f.Ax, f.b, 1e-6, interior);
    benchmark::DoNotOptimize(f.x.data());
  }
  state.counters["GStencil/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kN * kN * kN / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmoothResidual_Brick)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SmoothResidual_Array(benchmark::State& state) {
  Array3D x({kN, kN, kN}, 1), b({kN, kN, kN}, 1), Ax({kN, kN, kN}, 1),
      r({kN, kN, kN}, 1);
  for_each(x.interior(), [&](index_t i, index_t j, index_t k) {
    x(i, j, k) = static_cast<real_t>((i + j + k) % 13);
    b(i, j, k) = static_cast<real_t>((i * j + k) % 7);
  });
  x.fill_ghosts_periodic();
  baseline::apply_op(Ax, x, -6.0, 1.0, x.interior());
  for (auto _ : state) {
    baseline::smooth_residual(x, r, Ax, b, 1e-6, x.interior());
    benchmark::DoNotOptimize(x.data());
  }
  state.counters["GStencil/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kN * kN * kN / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmoothResidual_Array)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Restriction_Brick(benchmark::State& state) {
  BrickFixture f(8);
  BrickedArray coarse =
      BrickedArray::create({kN / 2, kN / 2, kN / 2}, BrickShape::cube(8));
  for (auto _ : state) {
    restriction(coarse, f.x);
    benchmark::DoNotOptimize(coarse.data());
  }
}
BENCHMARK(BM_Restriction_Brick)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_InterpIncrement_Brick(benchmark::State& state) {
  BrickFixture f(8);
  BrickedArray coarse =
      BrickedArray::create({kN / 2, kN / 2, kN / 2}, BrickShape::cube(8));
  coarse.fill(0.5);
  for (auto _ : state) {
    interpolation_increment(f.x, coarse);
    benchmark::DoNotOptimize(f.x.data());
  }
}
BENCHMARK(BM_InterpIncrement_Brick)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The generic expression-template engine vs the specialized
// row-pointer kernel for the same 7-point stencil — the gap the
// paper's "vector code generator" closes by emitting specialized code
// per stencil (our apply_op plays that role).
void BM_ApplyOp_BrickGenericDsl(benchmark::State& state) {
  BrickFixture f(state.range(0));
  const Box interior = Box::from_extent({kN, kN, kN});
  const auto expr = dsl::laplacian_7pt<0>(-6.0, 1.0);
  for (auto _ : state) {
    dsl::apply(expr, f.Ax, interior, f.x);
    benchmark::DoNotOptimize(f.Ax.data());
  }
  state.counters["GStencil/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kN * kN * kN / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ApplyOp_BrickGenericDsl)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Higher-radius star stencils through the DSL: the vector-folding /
// shell-core split pays off more as the radius grows.
template <int R>
void BM_StarStencil_Brick(benchmark::State& state) {
  BrickFixture f(8);
  std::array<real_t, R + 1> c{};
  c.fill(0.125);
  const auto expr = dsl::star_stencil<R, 0>(c);
  const Box interior = Box::from_extent({kN, kN, kN});
  for (auto _ : state) {
    dsl::apply(expr, f.Ax, interior, f.x);
    benchmark::DoNotOptimize(f.Ax.data());
  }
}
BENCHMARK(BM_StarStencil_Brick<2>)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_StarStencil_Brick<4>)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();

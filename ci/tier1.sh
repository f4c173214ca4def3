#!/usr/bin/env bash
# Tier-1 verification gate (ROADMAP.md) plus a sanitizer pass over the
# concurrency-heavy subsystems:
#
#   1. Configure + build + full ctest suite in ./build (the seed's
#      acceptance command, unchanged).
#   2. A separate ASan+UBSan tree (./build-asan, bench/examples off)
#      running the trace recorder and simmpi/exchange tests — the
#      multi-threaded code where a data race or lifetime bug in the
#      per-thread ring buffers would hide.
#   3. A TSan tree (./build-tsan, OpenMP off — see GMG_SANITIZE_THREAD)
#      running the exec engine, kernel-runtime parallel_for, simmpi,
#      split-phase exchange, overlapped smoothing (the solo and batched
#      cycles' shared finish_exchange_overlapped runs its interior pass
#      on an engine worker), and solve-service tests: the worker-pool
#      handoffs of DESIGN.md §10–11 and the serve layer's executor
#      pool / hierarchy cache / brick arena (§12) are exactly what a
#      race detector must see scheduled live. The socket front's wire
#      and server tests (§14: poll loop x executor completion
#      callbacks x client threads) and the batched-solve suite (§15:
#      the coalescer's hold-window handoff) ride in the same tree, as
#      does the AMR composite suite (§17: patch smoothing and the
#      interface kernels run through the same parallel_for engine).
#
#   4. A static stage: the gmg_lint invariant checker, clang-tidy over
#      src/ when the binary is available (the CI image may only carry
#      gcc — then it warns and skips), and the `check`-labelled ctest
#      subset re-run with GMG_CHECK=1 so the access-hazard detector is
#      live for the seeded-bug and V-cycle-clean tests.
#
# Usage: ci/tier1.sh [--skip-asan] [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

echo "== tier 1: build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
ctest --test-dir build --output-on-failure -j"${JOBS}"

echo "== tier 1: static stage =="
echo "-- gmg_lint self-tests (tokenizer + per-rule known-bad/known-good)"
./build/tools/gmg_lint --self-test
echo "-- gmg_lint"
./build/tools/gmg_lint .
# Schedule-verifier dry runs (DESIGN.md §18): record + statically prove
# the planned launch/exchange sequences of the smoother matrix, the
# K=4 batched solve, and the AMR composite cycle — both fusion states —
# without executing a sweep. The overhead assertion keeps the setup-time
# proof cheap enough to stay on by default (GMG_VERIFY_SCHEDULE).
echo "-- schedule verifier dry-run, fusion on"
GMG_FUSE_STAGES=1 ./build/tools/schedule_audit --amr --assert-overhead 5
echo "-- schedule verifier dry-run, fusion off"
GMG_FUSE_STAGES=0 ./build/tools/schedule_audit --amr --assert-overhead 5
if command -v run-clang-tidy >/dev/null 2>&1; then
  echo "-- clang-tidy (src/)"
  run-clang-tidy -p build -quiet "src/.*\.cpp$"
elif command -v clang-tidy >/dev/null 2>&1; then
  echo "-- clang-tidy (src/, serial)"
  find src -name '*.cpp' -print0 |
    xargs -0 -n1 -P"${JOBS}" clang-tidy -p build --quiet
else
  echo "-- clang-tidy not installed; skipping (configs in .clang-tidy)"
fi
echo "-- checker-enabled test subset (GMG_CHECK=1, label: check)"
GMG_CHECK=1 ctest --test-dir build --output-on-failure -L check -j"${JOBS}"
echo "-- checker-enabled test subset, fusion off (GMG_FUSE_STAGES=0)"
GMG_FUSE_STAGES=0 GMG_CHECK=1 \
  ctest --test-dir build --output-on-failure -L check -j"${JOBS}"

# The solver must produce bitwise-identical results at any worker
# count; run the solver suite serial and at the hardware default to
# catch anything the in-suite determinism tests miss. The fused
# descent (DESIGN.md §16) is on by default, so the default runs cover
# it; the GMG_FUSE_STAGES=0 runs exercise the split schedule the fused
# kernels must match bitwise.
echo "== tier 1: solver suite, GMG_EXEC_WORKERS=1 =="
GMG_EXEC_WORKERS=1 ./build/tests/test_solver
echo "== tier 1: solver suite, default workers =="
./build/tests/test_solver
echo "== tier 1: solver suite, fusion off (GMG_FUSE_STAGES=0) =="
GMG_FUSE_STAGES=0 ./build/tests/test_solver
# test_fused also holds the one-pass Jacobi sweep's bitwise reference
# tests (binding vs applyOp + smooth stages over interior, CA-grown and
# split-phase regions); they run here, in the plain and GMG_CHECK=1
# ctest stages above, and in the TSan tree below.
echo "== tier 1: fused-kernel suite, fusion off (split fallback) =="
GMG_FUSE_STAGES=0 ./build/tests/test_fused

# Serve-layer smoke: cold vs cached request latency and client-fanout
# throughput (writes BENCH_serve_throughput.json + bench/out CSV).
echo "== tier 1: serve throughput smoke =="
./build/bench/serve_throughput

# Front-tier smoke (DESIGN.md §14): start the socket listener, drive a
# client round trip through the wire protocol, drain, and verify the
# stats. One process, deterministic, a few seconds.
echo "== tier 1: socket front smoke =="
./build/tools/serve_front --smoke --shards 2

# AMR refinement smoke (DESIGN.md §17): composite coarse+patch solve
# vs a uniformly fine solve at a reduced size; writes BENCH_amr.json.
echo "== tier 1: AMR refinement smoke =="
./build/bench/amr_refine -s 32 -b 4

SKIP_ASAN=0
SKIP_TSAN=0
for arg in "$@"; do
  case "${arg}" in
    --skip-asan) SKIP_ASAN=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown flag: ${arg}" >&2; exit 2 ;;
  esac
done

if [[ "${SKIP_ASAN}" == 1 ]]; then
  echo "== skipping ASan+UBSan pass =="
else
  echo "== ASan+UBSan: trace + comm tests =="
  cmake -B build-asan -S . \
    -DGMG_SANITIZE=ON \
    -DGMG_ENABLE_BENCH=OFF \
    -DGMG_ENABLE_EXAMPLES=OFF \
    -DGMG_NATIVE_ARCH=OFF >/dev/null
  cmake --build build-asan -j"${JOBS}" \
    --target test_trace test_simmpi test_exchange
  for t in test_trace test_simmpi test_exchange; do
    echo "-- ${t} (sanitized)"
    "./build-asan/tests/${t}"
  done
fi

if [[ "${SKIP_TSAN}" == 1 ]]; then
  echo "== skipping TSan pass =="
else
  echo "== TSan: exec engine + comm tests =="
  cmake -B build-tsan -S . \
    -DGMG_SANITIZE_THREAD=ON \
    -DGMG_ENABLE_BENCH=OFF \
    -DGMG_ENABLE_EXAMPLES=OFF \
    -DGMG_NATIVE_ARCH=OFF >/dev/null
  cmake --build build-tsan -j"${JOBS}" \
    --target test_exec test_parallel_for test_simmpi test_exchange \
             test_overlap test_batch test_serve test_wire test_front \
             test_fused test_amr
  for t in test_exec test_parallel_for test_simmpi test_exchange \
           test_overlap test_batch test_serve test_wire test_front \
           test_fused test_amr; do
    echo "-- ${t} (tsan)"
    "./build-tsan/tests/${t}"
  done
fi

echo "== tier1.sh: all green =="

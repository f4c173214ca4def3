#!/usr/bin/env bash
# Tier-1 verification gate (ROADMAP.md) plus a sanitizer pass over the
# concurrency-heavy subsystems:
#
#   1. Configure + build + full ctest suite in ./build (the seed's
#      acceptance command, unchanged).
#   2. A separate ASan+UBSan tree (./build-asan, bench/examples off)
#      running the trace recorder and simmpi/exchange tests — the
#      multi-threaded code where a data race or lifetime bug in the
#      per-thread ring buffers would hide — and the kernel suites
#      (operators, fused, batch): one kernel set serves every batch
#      width, so an off-by-one in a lane-strided (K-lane) offset is an
#      out-of-bounds access ASan reports. The check, schedule and AMR
#      suites ride along: they drive the scopes and recorded steps
#      derived from the kernels' effect summaries, and test_check
#      replaces the global operator new to count allocations. The
#      solver, serve and front suites drive the one solve driver (the
#      retirement loop, set_rhs and the serve execute path) at every
#      group size, including the socket path, and test_wire feeds
#      FrameReader and the decode_* functions hostile bytes (truncated
#      headers, oversized lengths, bad magic/version/flags, mid-frame
#      disconnects).
#   3. A TSan tree (./build-tsan, the same program as ./build)
#      running the trace recorder (each ring has one producer, its
#      owning thread, and one consumer at a time — thread exit, the
#      periodic flusher or collect() — and test_trace flushes a ring
#      while its owner records), the kernel-runtime parallel_for pool,
#      simmpi, the ghost exchange (each rank thread posts a round and
#      waits on it while its peers' buffered sends land in its ghost
#      bricks), and solve-service tests: the ring handoffs of DESIGN.md
#      §9, the worker-pool and message handoffs of §10–11 and the serve
#      layer's executor pool / hierarchy cache (§12) are exactly what a
#      race detector must see scheduled live.
#      The socket front's wire and server tests (§14: poll loop x
#      executor completion callbacks x client threads) and the
#      batched-solve suite (§15: the coalescer's idle-executor count,
#      read and written under the service mutex)
#      ride in the same tree, as does the AMR composite suite (§17:
#      patch smoothing and the interface kernels run through the same
#      parallel_for engine).
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
# Schedule-verifier dry run (DESIGN.md §18): record + statically prove
# the planned launch/exchange sequences of the smoother matrix, the
# K=4 batched solve, and the AMR composite cycle without executing a
# sweep. The overhead assertion keeps the setup-time proof cheap enough
# to stay on by default (GMG_VERIFY_SCHEDULE).
echo "-- schedule verifier dry-run"
./build/tools/schedule_audit --amr --assert-overhead 5
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

# The solver must produce bitwise-identical results at any worker
# count; run the solver suite serial and at the hardware default to
# catch anything the in-suite determinism tests miss.
echo "== tier 1: solver suite, GMG_EXEC_WORKERS=1 =="
GMG_EXEC_WORKERS=1 ./build/tests/test_solver
echo "== tier 1: solver suite, default workers =="
./build/tests/test_solver

# The benchmark smokes write their BENCH_*.json and bench/out CSVs into
# the working directory; run them from a scratch directory so a CI run
# never rewrites the committed baselines.
ROOT="$(pwd)"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT

# Serve-layer smoke: cold vs cached request latency and client-fanout
# throughput.
echo "== tier 1: serve throughput smoke =="
(cd "${SMOKE_DIR}" && "${ROOT}/build/bench/serve_throughput")

# Front-tier smoke (DESIGN.md §14): start the socket listener, drive a
# client round trip through the wire protocol, drain, and verify the
# stats. One process, deterministic, a few seconds.
echo "== tier 1: socket front smoke =="
./build/tools/serve_front --smoke --shards 2

# AMR refinement smoke (DESIGN.md §17): composite coarse+patch solve
# vs a uniformly fine solve at a reduced size.
echo "== tier 1: AMR refinement smoke =="
(cd "${SMOKE_DIR}" && "${ROOT}/build/bench/amr_refine" -s 32 -b 4)

# Measured-profile smokes (DESIGN.md §9): Table II and Fig. 3 build
# their host tables from the solver's phase spans (trace::level_stats).
# Each must print its measured level-0 applyOp+smooth row, so a profile
# that silently comes out empty fails here; a failing bench fails the
# stage through pipefail.
echo "== tier 1: measured-profile smokes (table2, fig3) =="
(cd "${SMOKE_DIR}" && "${ROOT}/build/bench/table2_op_breakdown") |
  tee "${SMOKE_DIR}/table2.out"
grep -qE '^\| applyOp\+smooth +\| +[0-9.]+% ' "${SMOKE_DIR}/table2.out"
(cd "${SMOKE_DIR}" && "${ROOT}/build/bench/fig3_level_times") |
  tee "${SMOKE_DIR}/fig3.out"
grep -qE '^\| 0 +\| applyOp\+smooth +\| +[0-9.]+ ' "${SMOKE_DIR}/fig3.out"

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
  echo "== ASan+UBSan: trace + comm + kernel + serve/wire tests =="
  cmake -B build-asan -S . \
    -DGMG_SANITIZE=ON \
    -DGMG_ENABLE_BENCH=OFF \
    -DGMG_ENABLE_EXAMPLES=OFF \
    -DGMG_NATIVE_ARCH=OFF >/dev/null
  cmake --build build-asan -j"${JOBS}" \
    --target test_trace test_simmpi test_exchange test_operators \
             test_fused test_batch test_check test_schedule test_amr \
             test_solver test_serve test_wire test_front
  for t in test_trace test_simmpi test_exchange test_operators test_fused \
           test_batch test_check test_schedule test_amr test_solver \
           test_serve test_wire test_front; do
    echo "-- ${t} (sanitized)"
    "./build-asan/tests/${t}"
  done
fi

if [[ "${SKIP_TSAN}" == 1 ]]; then
  echo "== skipping TSan pass =="
else
  echo "== TSan: trace + exec pool + comm tests =="
  cmake -B build-tsan -S . \
    -DGMG_SANITIZE_THREAD=ON \
    -DGMG_ENABLE_BENCH=OFF \
    -DGMG_ENABLE_EXAMPLES=OFF \
    -DGMG_NATIVE_ARCH=OFF >/dev/null
  cmake --build build-tsan -j"${JOBS}" \
    --target test_trace test_parallel_for test_simmpi test_exchange \
             test_batch test_serve test_wire test_front test_fused test_amr
  for t in test_trace test_parallel_for test_simmpi test_exchange \
           test_batch test_serve test_wire test_front test_fused test_amr; do
    echo "-- ${t} (tsan)"
    "./build-tsan/tests/${t}"
  done
fi

echo "== tier1.sh: all green =="

#!/usr/bin/env bash
# Per-commit CI lane.
#
# Gates, in order:
#   1. plain RelWithDebInfo build (fatal: nothing below runs without it);
#   2. tier-1 ctest three times — intra-op parallelism pinned to 1 thread,
#      at SF_NUM_THREADS=4, and once under the forced-scalar SIMD tier
#      (SF_SIMD=scalar) — because every parallelized kernel guarantees
#      bitwise-identical outputs across thread counts AND SIMD tiers;
#   3. bench --check gates: kernel scaling + bitwise determinism,
#      overlapped all-reduce identity, elastic world under pinned chaos
#      weather, the serving layer's SLO gates (batched > serial
#      throughput, cache effectiveness, p99 under the pinned SLO, overload
#      shedding), the memory-plan gates (zero steady-state heap
#      allocation, arena within the aligned eager-peak envelope,
#      planned-vs-eager bitwise identity, p99 under allocator jitter),
#      and the real-leg DAP gates (sharded Evoformer trains bitwise-equal
#      to the unsharded baseline; with >=4 hw threads, DAP-4 step time
#      and transpose overlap) -> BENCH_*.json artifacts;
#   4. tools/check_bench_json.py over every BENCH_*.json (fields present,
#      numbers finite, load axes monotone);
#   5. reachability: tools/unreached.sh --check relinks perfbench_driver and
#      the examples with --gc-sections and fails on an sf:: function that
#      no product links and tools/unreached.allow does not list, or on an
#      allow entry that no longer matches one;
#   6. ASan+UBSan build + full suite;
#   7. TSan build + `ctest -L concurrency -LE slow` (selection by ctest
#      label, not by name regex — a new concurrent test only needs the
#      label to be covered).
#
# Host-capability-conditional gates are never skipped silently: anything
# this host cannot exercise prints "SKIPPED: <reason>" and is counted in
# the summary, so a lane that looks green but checked less says so.
#
# The seed-matrix chaos sweep lives in ci-nightly.sh.
set -uo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"
PASSED=0
FAILED=0
SKIPPED=0
SUMMARY=()

# gate <name> <cmd...> — run a gate, record PASS/FAIL, keep going.
gate() {
  local name="$1"
  shift
  echo "==> ${name}"
  if "$@"; then
    SUMMARY+=("PASS    ${name}")
    PASSED=$((PASSED + 1))
  else
    SUMMARY+=("FAIL    ${name}")
    FAILED=$((FAILED + 1))
  fi
}

# skip <name> <reason> — record a gate this host cannot run. Loud on
# purpose: a skipped gate must show up in the log AND the summary counts.
skip() {
  echo "==> ${1}"
  echo "SKIPPED: ${2}"
  SUMMARY+=("SKIPPED ${1} (${2})")
  SKIPPED=$((SKIPPED + 1))
}

finish() {
  echo
  echo "==== gate summary ===="
  printf '%s\n' "${SUMMARY[@]}"
  echo "passed=${PASSED} failed=${FAILED} skipped=${SKIPPED}"
  if [ "${FAILED}" -ne 0 ]; then
    echo "RESULT: FAIL"
    exit 1
  fi
  if [ "${SKIPPED}" -ne 0 ]; then
    echo "RESULT: PASS (with ${SKIPPED} skipped gate(s) — see above)"
  else
    echo "RESULT: PASS"
  fi
}
trap finish EXIT

echo "==> plain build"
cmake -B build -S . >/dev/null
if ! cmake --build build -j "${JOBS}"; then
  SUMMARY+=("FAIL    plain build")
  FAILED=$((FAILED + 1))
  exit 1  # nothing else can run
fi
SUMMARY+=("PASS    plain build")
PASSED=$((PASSED + 1))

gate "tier-1 tests at SF_NUM_THREADS=1" \
  env SF_NUM_THREADS=1 ctest --test-dir build -L tier1 \
  --output-on-failure -j "${JOBS}"
gate "tier-1 tests at SF_NUM_THREADS=4" \
  env SF_NUM_THREADS=4 ctest --test-dir build -L tier1 \
  --output-on-failure -j "${JOBS}"
gate "tier-1 tests at SF_SIMD=scalar (forced-scalar SIMD tier)" \
  env SF_SIMD=scalar SF_NUM_THREADS=4 ctest --test-dir build -L tier1 \
  --output-on-failure -j "${JOBS}"

if [ "${JOBS}" -lt 4 ]; then
  skip "kernel 4-thread speedup gate (>=2.5x)" \
    "host has ${JOBS} hardware thread(s) < 4; bitwise determinism is still checked below"
fi
gate "bench_parallel_scaling --check (bitwise determinism + scaling)" \
  ./build/bench/bench_parallel_scaling --check \
  --out build/BENCH_kernels.json

if [ "${JOBS}" -lt 2 ]; then
  skip "all-reduce overlap wall-clock gate" \
    "host has ${JOBS} hardware thread(s) < 2; bitwise identity is still checked below"
fi
gate "bench_overlap_allreduce --check (bitwise identity + overlap)" \
  ./build/bench/bench_overlap_allreduce --check \
  --out build/BENCH_overlap.json

gate "bench_elastic --check (pinned chaos weather, SF_SEED=2024)" \
  env SF_SEED=2024 ./build/bench/bench_elastic --check \
  --out build/BENCH_elastic.json

gate "bench_serving --check (SLO: batched>serial, cache, p99, shedding)" \
  ./build/bench/bench_serving --check --out build/BENCH_serving.json

gate "bench_memplan --check (zero steady-state allocs, arena peak, bitwise, jitter p99)" \
  ./build/bench/bench_memplan --check --out build/BENCH_memplan.json

if [ "${JOBS}" -lt 4 ]; then
  skip "DAP-4 step-time + overlap gate" \
    "host has ${JOBS} hardware thread(s) < 4; the real-leg bitwise gates are still checked below"
fi
gate "bench_dap_real --check (sharded trunk bitwise vs baseline, overlap)" \
  ./build/bench/bench_dap_real --check --out build/BENCH_dap_real.json

gate "BENCH_*.json schema/finiteness/axis validation" \
  python3 tools/check_bench_json.py --dir build

gate "unreached sf:: functions match tools/unreached.allow" \
  tools/unreached.sh --check

echo "==> address,undefined sanitizer build"
if cmake -B build-asan -S . -DSCALEFOLD_SANITIZE=address,undefined \
    >/dev/null && cmake --build build-asan -j "${JOBS}"; then
  gate "ASan+UBSan full suite" \
    ctest --test-dir build-asan --output-on-failure -j "${JOBS}"
else
  SUMMARY+=("FAIL    ASan+UBSan build")
  FAILED=$((FAILED + 1))
fi

echo "==> thread sanitizer build (ctest label: concurrency, minus slow)"
TSAN_TARGETS=(test_common test_parallel test_gemm test_simd test_fault
  test_obs test_loader test_data test_dap test_dap_real test_data_parallel
  test_overlap test_elastic test_checkpoint_robust test_memplan
  test_serving)
if cmake -B build-tsan -S . -DSCALEFOLD_SANITIZE=thread >/dev/null &&
  cmake --build build-tsan -j "${JOBS}" --target "${TSAN_TARGETS[@]}"; then
  gate "TSan concurrency suite (ctest -L concurrency -LE slow)" \
    env SF_NUM_THREADS=4 ctest --test-dir build-tsan -L concurrency \
    -LE slow --output-on-failure -j "${JOBS}"
else
  SUMMARY+=("FAIL    TSan build")
  FAILED=$((FAILED + 1))
fi

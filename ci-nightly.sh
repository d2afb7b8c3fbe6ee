#!/usr/bin/env bash
# Nightly CI lane: everything the per-commit lane is too slow for.
#
#   1. plain build (reuses ./build if present);
#   2. full suite including slow-labeled tests, both thread pins;
#   3. the chaos matrix: bench_chaos_matrix --check sweeps
#      SF_CHAOS_SEEDS (>= 16) seeded random_schedule weathers through the
#      DESIGN.md §10 fault-site table — elastic DDP with grow-under-fire,
#      blocking DAP collectives with abort/recover, loader prep faults +
#      worker kill, checkpoint writes crashing mid-save;
#   4. a longer serving soak at a distinct seed;
#   5. concurrency stress: the `concurrency`-labelled tests repeated until
#      one fails (up to 50 times) beside two busy-loop CPU competitors;
#   6. BENCH_*.json validation.
#
# Same loud-skip contract as ci.sh: nothing is skipped silently.
set -uo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc)"
PASSED=0
FAILED=0
SKIPPED=0
SUMMARY=()

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

finish() {
  echo
  echo "==== nightly gate summary ===="
  printf '%s\n' "${SUMMARY[@]}"
  echo "passed=${PASSED} failed=${FAILED} skipped=${SKIPPED}"
  if [ "${FAILED}" -ne 0 ]; then
    echo "RESULT: FAIL"
    exit 1
  fi
  echo "RESULT: PASS"
}
trap finish EXIT

echo "==> plain build"
cmake -B build -S . >/dev/null
if ! cmake --build build -j "${JOBS}"; then
  SUMMARY+=("FAIL    plain build")
  FAILED=$((FAILED + 1))
  exit 1
fi
SUMMARY+=("PASS    plain build")
PASSED=$((PASSED + 1))

gate "full suite (slow included) at SF_NUM_THREADS=1" \
  env SF_NUM_THREADS=1 ctest --test-dir build --output-on-failure \
  -j "${JOBS}"
gate "full suite (slow included) at SF_NUM_THREADS=4" \
  env SF_NUM_THREADS=4 ctest --test-dir build --output-on-failure \
  -j "${JOBS}"

# The chaos matrix: >= 16 seeds through the whole §10 fault-site table.
CHAOS_SEEDS="${SF_CHAOS_SEEDS:-16}"
gate "chaos matrix (${CHAOS_SEEDS} seeds x {ddp, dap, loader, checkpoint})" \
  env SF_SEED="${SF_SEED:-2024}" SF_CHAOS_SEEDS="${CHAOS_SEEDS}" \
  ./build/bench/bench_chaos_matrix --check \
  --out build/BENCH_chaos_matrix.json

# Serving soak at a seed the per-commit lane does not use.
gate "serving SLO gates at nightly seed" \
  env SF_SEED=4242 ./build/bench/bench_serving --check \
  --out build/BENCH_serving_nightly.json

# Concurrency stress: timing assumptions that hold only on an idle host
# (a worker or helper that is never descheduled) fail here. The subshell's
# trap kills both competitors however the lane exits.
stress_concurrency() (
  spin() { while :; do :; done; }
  trap 'kill $(jobs -p) 2>/dev/null' EXIT
  spin &
  spin &
  ctest --test-dir build -L concurrency --repeat until-fail:50 \
    -j "${JOBS}" --output-on-failure
)
gate "concurrency stress (until-fail:50, 2 CPU competitors)" \
  stress_concurrency

gate "BENCH_*.json schema/finiteness/axis validation" \
  python3 tools/check_bench_json.py --dir build

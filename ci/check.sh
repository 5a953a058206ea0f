#!/usr/bin/env bash
# The tier-1 verification gate: configure, build, run the tier-1 test
# suite, then check the fig4/fig5/fig6 and deployment_push determinism
# guarantee (two identical runs, and runs at --threads 2 and 8, must
# export byte-identical metrics/trace dumps).
#
# The tier-1 suite alone enforces the behaviour contract: the golden
# exports, the committed bench snapshots (each harness's
# --check-against test), the jslint soundness sweep and the package
# lifecycle properties.  This script adds the checks that compare fresh
# runs with each other, and the conformance oracle's negative control.
#
# Usage: ci/check.sh [build-dir]
#
#   ci/check.sh                 # tier-1 gate against ./build
#   CHECK_SANITIZE=1 ci/check.sh  # additionally run ci/sanitize.sh (ASan+UBSan)
#   CHECK_TSAN=1 ci/check.sh      # additionally run the TSan sweep, which
#                                 # re-runs the tests and the --threads
#                                 # determinism sweep instrumented
#   CHECK_DIFF=0 ci/check.sh      # skip the printed conformance summary
#                                 # and the --skew negative control (the
#                                 # 50-program sweep itself is pinned by
#                                 # the tier-1 golden_conformance test)
#   CHECK_PERF=0 ci/check.sh      # skip the interpreter perf smoke (two
#                                 # quick micro_interp runs must write
#                                 # byte-identical --counters files)
#
# The five tier-2 sweeps (conformance_sweep, serve_sweep, stats_sweep,
# exttsp_sweep, cache_sweep) are not run here, nor by ci/sanitize.sh,
# the deeper (slower) sanitizer sweep: only a plain `ctest` runs them.

set -euo pipefail

REPO_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_DIR}/build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -S "${REPO_DIR}" -B "${BUILD_DIR}"
cmake --build "${BUILD_DIR}" -j "${JOBS}"

ctest --test-dir "${BUILD_DIR}" -L tier1 --output-on-failure -j "${JOBS}"

# Determinism acceptance checks: identical runs -> identical bytes, and
# the host compile pool (--threads) must not change a single exported
# byte -- worker threads only move wall-clock time.  fig5 and fig6 also
# run the shadow tracer and the machine simulator, whose per-translation
# fetch plans must not change a byte either; deployment_push boots every
# C2 seeder and C3 consumer of a site push on that pool.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
check_exports_deterministic() {
  local BIN="$1"
  local FIG="${BIN##*/}"
  shift
  "${BUILD_DIR}/${BIN}" --export "${TMP_DIR}/${FIG}-a" >/dev/null
  local RUN FLAGS SUFFIX
  for RUN in b 2 8; do
    FLAGS=""
    [[ "${RUN}" == "b" ]] || FLAGS="--threads ${RUN}"
    # shellcheck disable=SC2086 # FLAGS is empty or two words
    "${BUILD_DIR}/${BIN}" --export "${TMP_DIR}/${FIG}-${RUN}" \
      ${FLAGS} >/dev/null
    for SUFFIX in "$@"; do
      if ! cmp -s "${TMP_DIR}/${FIG}-a.${SUFFIX}" \
          "${TMP_DIR}/${FIG}-${RUN}.${SUFFIX}"; then
        echo "check.sh: FAIL: ${FIG} ${SUFFIX} differs between runs" \
             "(${FLAGS:-no flags})" >&2
        exit 1
      fi
    done
  done
  echo "check.sh: ${FIG} exports byte-identical across runs and for --threads 1/2/8"
}
check_exports_deterministic bench/fig4_warmup \
  metrics.jsonl trace.jsonl chrome.json classes.json
check_exports_deterministic bench/fig5_steady_state \
  metrics.jsonl trace.jsonl chrome.json
check_exports_deterministic bench/fig6_optimizations \
  metrics.jsonl trace.jsonl chrome.json
check_exports_deterministic examples/deployment_push \
  metrics.jsonl trace.jsonl chrome.json

# Differential conformance smoke: 50 generated programs through the smoke
# config matrix (interpreter / reference interpreter / JIT tiers /
# Jump-Start consumer boot).  The tier-1 golden_conformance test already
# byte-compares this summary (which embeds the sweep digest covering
# every observable) with tests/golden/conformance.txt; here it is
# printed, with a --repro dump on any mismatch.  Then the negative
# control: a test-only +1 skew on integer adds must make the oracle exit
# nonzero and report a MISMATCH.
if [[ "${CHECK_DIFF:-1}" == "1" ]]; then
  "${BUILD_DIR}/examples/jsvm" fuzz --programs 50 --seed 7 \
    --repro "${TMP_DIR}/repro" > "${TMP_DIR}/diff.txt"
  echo "check.sh: $(cat "${TMP_DIR}/diff.txt")"
  SKEW_STATUS=0
  "${BUILD_DIR}/examples/jsvm" fuzz --programs 10 --seed 7 --skew 1 \
    > "${TMP_DIR}/skew.txt" 2>&1 || SKEW_STATUS=$?
  if [[ "${SKEW_STATUS}" -eq 0 ]] || ! grep -q "MISMATCH" "${TMP_DIR}/skew.txt"; then
    echo "check.sh: FAIL: the --skew 1 negative control went undetected" \
         "(exit ${SKEW_STATUS})" >&2
    cat "${TMP_DIR}/skew.txt" >&2
    exit 1
  fi
  echo "check.sh: --skew 1 negative control caught" \
       "($(grep -c "MISMATCH" "${TMP_DIR}/skew.txt") mismatches, exit ${SKEW_STATUS})"
fi

# Interpreter perf smoke: the wall-clock numbers are host noise, but
# every counter micro_interp emits (steps, faults, allocs, IC hits) is
# deterministic -- two runs must be byte-identical.  The quick `fast`
# and `proven` counters are in no committed snapshot, so this is their
# only gate.
if [[ "${CHECK_PERF:-1}" == "1" ]]; then
  for RUN in a b; do
    "${REPO_DIR}/bench/run_bench.sh" --quick --build-dir "${BUILD_DIR}" \
      --counters "${TMP_DIR}/perf-${RUN}.counters" >/dev/null
  done
  if ! cmp -s "${TMP_DIR}/perf-a.counters" "${TMP_DIR}/perf-b.counters"; then
    echo "check.sh: FAIL: micro_interp deterministic counters differ between runs" >&2
    diff "${TMP_DIR}/perf-a.counters" "${TMP_DIR}/perf-b.counters" >&2 || true
    exit 1
  fi
  echo "check.sh: micro_interp counters deterministic"
fi

if [[ "${CHECK_SANITIZE:-0}" == "1" ]]; then
  "${REPO_DIR}/ci/sanitize.sh"
fi
if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  JUMPSTART_SANITIZE=thread "${REPO_DIR}/ci/sanitize.sh"
fi

echo "check.sh: OK"

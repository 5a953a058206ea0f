#!/usr/bin/env bash
# The tier-1 verification gate: configure, build, run the tier-1 test
# suite, then check the fig4/fig5/fig6 determinism guarantee (two
# identical runs, and runs at --threads 2 and 8, must export
# byte-identical metrics/trace dumps).
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
#   CHECK_ANALYZE=0 ci/check.sh   # skip the static-analysis gate (jslint
#                                 # --json over examples/hack plus a
#                                 # 100-program soundness sweep with
#                                 # proven-guard elision enabled)
#   CHECK_STATS=0 ci/check.sh     # skip the stats-determinism gate (two
#                                 # quick micro_interp --stats runs must
#                                 # emit byte-identical `stats` blocks:
#                                 # the changepoint/classifier/bootstrap
#                                 # pipeline is exactly reproducible)
#   CHECK_PERF=0 ci/check.sh      # skip the interpreter perf smoke (two
#                                 # quick micro_interp runs byte-compared,
#                                 # plus the statistical regression gate
#                                 # against the committed BENCH_interp.json:
#                                 # fail only if the fresh steady-state CI
#                                 # is disjointly worse, or the warmup
#                                 # class degrades)
#   CHECK_SERVER=0 ci/check.sh    # skip the concurrent-serving smoke (the
#                                 # server_load harness at --threads 1 and
#                                 # 4 byte-compared -- the thread-count
#                                 # invariance contract -- plus the
#                                 # deterministic fields of the committed
#                                 # BENCH_server.json)
#   CHECK_PACKAGE=0 ci/check.sh   # skip the package-lifecycle gate (a
#                                 # 100-program merge-order/delta/lint
#                                 # property sweep, plus the drift sweep
#                                 # byte-compared against the committed
#                                 # BENCH_package.json)
#
# This is what "the tests pass" means for this repository; ci/sanitize.sh
# is the deeper (slower) sanitizer sweep.

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
# fetch plans must not change a byte either.
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
check_exports_deterministic() {
  local FIG="$1"
  shift
  "${BUILD_DIR}/bench/${FIG}" --export "${TMP_DIR}/${FIG}-a" >/dev/null
  local RUN FLAGS SUFFIX
  for RUN in b 2 8; do
    FLAGS=""
    [[ "${RUN}" == "b" ]] || FLAGS="--threads ${RUN}"
    # shellcheck disable=SC2086 # FLAGS is empty or two words
    "${BUILD_DIR}/bench/${FIG}" --export "${TMP_DIR}/${FIG}-${RUN}" \
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
check_exports_deterministic fig4_warmup \
  metrics.jsonl trace.jsonl chrome.json classes.json
check_exports_deterministic fig5_steady_state \
  metrics.jsonl trace.jsonl chrome.json
check_exports_deterministic fig6_optimizations \
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

# Static-analysis gate: jslint --json over the checked-in mini-Hack
# examples (must lint clean) and a 100-program generated-corpus soundness
# sweep (every guard the JIT elides must be re-proven by an independent
# whole-program analysis run, with zero error findings and at least one
# guard measurably elided).
if [[ "${CHECK_ANALYZE:-1}" == "1" ]]; then
  errors_of() { sed -n 's/.*"errors": \([0-9]*\).*/\1/p' "$1"; }
  for HACK in "${REPO_DIR}"/examples/hack/*.hack; do
    "${BUILD_DIR}/examples/jslint" --json "${HACK}" > "${TMP_DIR}/lint.json" \
      || { echo "check.sh: FAIL: jslint found errors in ${HACK}:" >&2; \
           cat "${TMP_DIR}/lint.json" >&2; exit 1; }
    if [[ "$(errors_of "${TMP_DIR}/lint.json")" != "0" ]]; then
      echo "check.sh: FAIL: jslint reports errors for ${HACK}" >&2
      cat "${TMP_DIR}/lint.json" >&2
      exit 1
    fi
  done
  "${BUILD_DIR}/examples/jslint" --json --gen 100 21 > "${TMP_DIR}/gen.json" \
    || { echo "check.sh: FAIL: analysis soundness sweep found errors:" >&2; \
         cat "${TMP_DIR}/gen.json" >&2; exit 1; }
  if [[ "$(errors_of "${TMP_DIR}/gen.json")" != "0" ]]; then
    echo "check.sh: FAIL: analysis soundness sweep reports errors" >&2
    cat "${TMP_DIR}/gen.json" >&2
    exit 1
  fi
  ELIDED="$(sed -n 's/.*"guards_elided": \([0-9]*\).*/\1/p' "${TMP_DIR}/gen.json")"
  if [[ -z "${ELIDED}" || "${ELIDED}" == "0" ]]; then
    echo "check.sh: FAIL: soundness sweep elided no guards (analysis inert)" >&2
    cat "${TMP_DIR}/gen.json" >&2
    exit 1
  fi
  echo "check.sh: analysis gate clean (100-program sweep, ${ELIDED} guards elided)"
fi

# Helpers for the statistical gates below: pull scalar fields out of a
# `stats` block's one-line header (the first match is the header; later
# "steady_mean"s belong to per-seed runs lines).
stat_of() { sed -n 's/.*"'"$2"'": \([0-9.]*\).*/\1/p' "$1" | head -1; }
class_of() { sed -n 's/.*"worst_class": "\([a-z]*\)".*/\1/p' "$1" | head -1; }
class_rank() {
  case "$1" in
    flat) echo 0 ;; warmup) echo 1 ;; slowdown) echo 2 ;;
    inconsistent) echo 3 ;; *) echo 4 ;;
  esac
}
stats_block() { sed -n '/"stats": {/,/^  }/p' "$1"; }

# Stats-determinism gate: the changepoint detector, curve classifier and
# bootstrap CI are exactly reproducible -- two quick multi-seed sweeps
# must emit byte-identical `stats` blocks.
if [[ "${CHECK_STATS:-1}" == "1" ]]; then
  "${BUILD_DIR}/bench/micro_interp" --quick --stats seeds=5,iters=30 \
    --json "${TMP_DIR}/stats-a.json" >/dev/null
  "${BUILD_DIR}/bench/micro_interp" --quick --stats seeds=5,iters=30 \
    --json "${TMP_DIR}/stats-b.json" >/dev/null
  stats_block "${TMP_DIR}/stats-a.json" > "${TMP_DIR}/stats-a.block"
  stats_block "${TMP_DIR}/stats-b.json" > "${TMP_DIR}/stats-b.block"
  if [[ ! -s "${TMP_DIR}/stats-a.block" ]]; then
    echo "check.sh: FAIL: micro_interp --stats emitted no stats block" >&2
    exit 1
  fi
  if ! cmp -s "${TMP_DIR}/stats-a.block" "${TMP_DIR}/stats-b.block"; then
    echo "check.sh: FAIL: micro_interp stats blocks differ between runs" >&2
    diff "${TMP_DIR}/stats-a.block" "${TMP_DIR}/stats-b.block" >&2 || true
    exit 1
  fi
  echo "check.sh: stats analysis deterministic (byte-identical stats blocks)"
fi

# Interpreter perf smoke: the wall-clock numbers are host noise, but
# every counter micro_interp emits (steps, faults, allocs, IC hits) is
# deterministic -- two runs must be byte-identical.  The regression gate
# against the committed snapshot is statistical: fail only when the fresh
# steady-state confidence interval is disjointly worse than the committed
# one (allocs/request: lower is better), or when the warmup class
# degrades (flat < warmup < slowdown < inconsistent).
if [[ "${CHECK_PERF:-1}" == "1" ]]; then
  "${REPO_DIR}/bench/run_bench.sh" --quick --build-dir "${BUILD_DIR}" \
    --json "${TMP_DIR}/perf-a.json" --counters "${TMP_DIR}/perf-a.counters" \
    >/dev/null
  "${REPO_DIR}/bench/run_bench.sh" --quick --build-dir "${BUILD_DIR}" \
    --counters "${TMP_DIR}/perf-b.counters" >/dev/null
  if ! cmp -s "${TMP_DIR}/perf-a.counters" "${TMP_DIR}/perf-b.counters"; then
    echo "check.sh: FAIL: micro_interp deterministic counters differ between runs" >&2
    diff "${TMP_DIR}/perf-a.counters" "${TMP_DIR}/perf-b.counters" >&2 || true
    exit 1
  fi
  SNAPSHOT="${REPO_DIR}/BENCH_interp.json"
  if [[ -f "${SNAPSHOT}" ]]; then
    COMMITTED_HI="$(stat_of "${SNAPSHOT}" steady_ci_hi)"
    CURRENT_LO="$(stat_of "${TMP_DIR}/perf-a.json" steady_ci_lo)"
    COMMITTED_CLASS="$(class_of "${SNAPSHOT}")"
    CURRENT_CLASS="$(class_of "${TMP_DIR}/perf-a.json")"
    if [[ -z "${COMMITTED_HI}" || -z "${CURRENT_LO}" ||
          -z "${COMMITTED_CLASS}" || -z "${CURRENT_CLASS}" ]]; then
      echo "check.sh: FAIL: cannot parse stats block from perf JSON" >&2
      exit 1
    fi
    # CI gate: the fresh interval must overlap (or beat) the committed
    # one.  Disjointly above it = a real allocation regression, not
    # noise.
    if ! awk -v lo="${CURRENT_LO}" -v hi="${COMMITTED_HI}" \
        'BEGIN { exit !(lo <= hi) }'; then
      echo "check.sh: FAIL: interpreter allocs/request CI disjointly" \
           "regressed: fresh lo ${CURRENT_LO} > committed hi ${COMMITTED_HI}" \
           "(BENCH_interp.json)" >&2
      exit 1
    fi
    if [[ "$(class_rank "${CURRENT_CLASS}")" -gt \
          "$(class_rank "${COMMITTED_CLASS}")" ]]; then
      echo "check.sh: FAIL: interpreter warmup class degraded:" \
           "${CURRENT_CLASS} vs committed ${COMMITTED_CLASS}" >&2
      exit 1
    fi
    echo "check.sh: micro_interp counters deterministic; steady CI lo ${CURRENT_LO} vs committed hi ${COMMITTED_HI}, class ${CURRENT_CLASS}"
  else
    echo "check.sh: micro_interp counters deterministic (no BENCH_interp.json snapshot)"
  fi
fi

# Concurrent-serving smoke: the load harness's deterministic counters
# (served/shed, per-index observables digest, placement digest, snapshot
# count) must be byte-identical across client thread counts -- host
# threads move wall-clock time, never an observable -- and must match
# the committed BENCH_server.json snapshot (which is the --quick
# workload; host-time percentiles in it are reported, never gated).
if [[ "${CHECK_SERVER:-1}" == "1" ]]; then
  # --stats on both runs: the counters byte-compare below then also
  # proves the multi-seed stats sweep is thread-count invariant.
  "${BUILD_DIR}/bench/server_load" --quick --threads 1 \
    --stats seeds=5,iters=30 \
    --counters "${TMP_DIR}/serve-t1.counters" >/dev/null
  "${BUILD_DIR}/bench/server_load" --quick --threads 4 \
    --stats seeds=5,iters=30 \
    --counters "${TMP_DIR}/serve-t4.counters" >/dev/null
  if ! cmp -s "${TMP_DIR}/serve-t1.counters" "${TMP_DIR}/serve-t4.counters"; then
    echo "check.sh: FAIL: server_load deterministic counters differ across --threads 1/4" >&2
    diff "${TMP_DIR}/serve-t1.counters" "${TMP_DIR}/serve-t4.counters" >&2 || true
    exit 1
  fi
  SERVER_SNAPSHOT="${REPO_DIR}/BENCH_server.json"
  if [[ -f "${SERVER_SNAPSHOT}" ]]; then
    # Warmup-class gate: the serving curve's class must not degrade
    # versus the committed snapshot (warmup is expected; slowdown or
    # inconsistent would mean the JIT ramp no longer converges).
    SRV_COMMITTED_CLASS="$(class_of "${SERVER_SNAPSHOT}")"
    SRV_CURRENT_CLASS="$(sed -n 's/.*worst_class=\([a-z]*\).*/\1/p' \
                         "${TMP_DIR}/serve-t4.counters" | head -1)"
    if [[ -n "${SRV_COMMITTED_CLASS}" && -n "${SRV_CURRENT_CLASS}" &&
          "$(class_rank "${SRV_CURRENT_CLASS}")" -gt \
          "$(class_rank "${SRV_COMMITTED_CLASS}")" ]]; then
      echo "check.sh: FAIL: server_load warmup class degraded:" \
           "${SRV_CURRENT_CLASS} vs committed ${SRV_COMMITTED_CLASS}" >&2
      exit 1
    fi
    field_of() { sed -n 's/.*"'"$2"'": "\{0,1\}\([0-9a-fx]*\)"\{0,1\}[,}].*/\1/p' "$1"; }
    for FIELD in served shed obs_digest placement_digest snapshots_published; do
      WANT="$(field_of "${SERVER_SNAPSHOT}" "${FIELD}")"
      GOT="$(sed -n 's/.*\b'"${FIELD/snapshots_published/snapshots}"'=\([0-9a-f]*\).*/\1/p' \
             "${TMP_DIR}/serve-t4.counters")"
      if [[ -z "${WANT}" || -z "${GOT}" || "${WANT}" != "${GOT}" ]]; then
        echo "check.sh: FAIL: server_load ${FIELD} = '${GOT}' differs from" \
             "committed BENCH_server.json ('${WANT}')" >&2
        exit 1
      fi
    done
    echo "check.sh: server_load counters deterministic across threads and match BENCH_server.json"
  else
    echo "check.sh: server_load counters deterministic across threads (no BENCH_server.json snapshot)"
  fi
fi

# Package-lifecycle gate: per generated program, the merged package's
# bytes must be identical for either seeder arrival order, the delta
# against a sibling release must reconstruct exactly, and the merged
# package must pass the consumer's strict lint.  Then the full
# staleness-under-drift sweep re-runs; it is virtual-clock deterministic,
# so its JSON must byte-match the committed BENCH_package.json.
if [[ "${CHECK_PACKAGE:-1}" == "1" ]]; then
  "${BUILD_DIR}/bench/package_lifecycle" --check 100 1
  PACKAGE_SNAPSHOT="${REPO_DIR}/BENCH_package.json"
  # Same --stats spec the committed snapshot was generated with
  # (bench/run_bench.sh --package): the byte-compare covers the stats
  # block and the per-age warmup-class columns too.
  "${BUILD_DIR}/bench/package_lifecycle" --json "${TMP_DIR}/package.json" \
    --stats seeds=3,iters=60 >/dev/null
  if [[ -f "${PACKAGE_SNAPSHOT}" ]]; then
    if ! cmp -s "${TMP_DIR}/package.json" "${PACKAGE_SNAPSHOT}"; then
      echo "check.sh: FAIL: drift sweep differs from committed BENCH_package.json" >&2
      diff "${TMP_DIR}/package.json" "${PACKAGE_SNAPSHOT}" >&2 || true
      exit 1
    fi
    echo "check.sh: package lifecycle clean; drift sweep matches BENCH_package.json"
  else
    echo "check.sh: package lifecycle clean (no BENCH_package.json snapshot)"
  fi
fi

if [[ "${CHECK_SANITIZE:-0}" == "1" ]]; then
  "${REPO_DIR}/ci/sanitize.sh"
fi
if [[ "${CHECK_TSAN:-0}" == "1" ]]; then
  JUMPSTART_SANITIZE=thread "${REPO_DIR}/ci/sanitize.sh"
fi

echo "check.sh: OK"

#!/usr/bin/env bash
# Builds and runs the full test suite under a sanitizer set.
#
# Usage: ci/sanitize.sh [build-dir]
#
#   ci/sanitize.sh                            # ASan+UBSan in build-asan/
#   JUMPSTART_SANITIZE=thread ci/sanitize.sh  # TSan in build-tsan/
#   JUMPSTART_SANITIZE=thread-safety ci/sanitize.sh
#                     # clang static -Wthread-safety analysis (compile
#                     # only, -Werror) against src/support/ThreadSafety.h
#                     # annotations, in build-threadsafety/.  No-op
#                     # (prints a skip notice) when CXX is gcc, which
#                     # has no such analysis.
#
# Each sanitizer set lives in its own tree so it never clobbers the
# regular build/ (or each other).  Any sanitizer report is fatal:
# -fno-sanitize-recover=all is set by the JUMPSTART_SANITIZE cmake
# option, so a finding aborts the offending test and fails ctest.
#
# The suite includes the bench harnesses' snapshot checks, so the
# interpreter, concurrent-serving and package-lifecycle harnesses run
# instrumented too (server_load at --threads 1 and 4).
#
# The thread set exists for the host compile pool (support::ThreadPool:
# the lowering and layout fan-out inside Jit::runJitWork, and the
# runWarmupSweep fan-out over independent servers, which fig4 shares
# with its servers' CompilePool) and for the concurrent-serving window,
# where client threads serve() while the compile thread publishes
# translation snapshots (ServerConcurrencyFixture's publication stress
# test publishes hundreds).  On top of the full test suite it runs the
# fig4_warmup --threads sweep and byte-compares the exports, so a data
# race that *changes output* fails twice -- once under TSan, once on
# the diff.

set -euo pipefail

REPO_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZERS="${JUMPSTART_SANITIZE:-address,undefined}"
case "${SANITIZERS}" in
  thread) DEFAULT_BUILD_DIR="${REPO_DIR}/build-tsan" ;;
  thread-safety) DEFAULT_BUILD_DIR="${REPO_DIR}/build-threadsafety" ;;
  *) DEFAULT_BUILD_DIR="${REPO_DIR}/build-asan" ;;
esac
BUILD_DIR="${1:-${DEFAULT_BUILD_DIR}}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# thread-safety is a static analysis, not a runtime sanitizer: a clean
# clang build with -Wthread-safety promoted to an error IS the result,
# so there is nothing to execute afterwards.  gcc has no equivalent
# analysis; the annotations compile away there, so the mode is an
# explicit no-op rather than a false green.
if [[ "${SANITIZERS}" == "thread-safety" ]]; then
  if ! "${CXX:-c++}" --version 2>/dev/null | grep -qi clang; then
    echo "sanitize.sh: thread-safety analysis needs clang (CXX=${CXX:-c++} is not); skipping"
    exit 0
  fi
  cmake -S "${REPO_DIR}" -B "${BUILD_DIR}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DJUMPSTART_SANITIZE=thread-safety
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  echo "sanitize.sh: -Wthread-safety analysis clean"
  exit 0
fi

cmake -S "${REPO_DIR}" -B "${BUILD_DIR}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DJUMPSTART_SANITIZE="${SANITIZERS}"

cmake --build "${BUILD_DIR}" -j "${JOBS}"

# halt_on_error makes findings fail the run even in code paths that
# would otherwise keep going; ASan's detect_leaks stays on by default.
export ASAN_OPTIONS="halt_on_error=1:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export TSAN_OPTIONS="halt_on_error=1:abort_on_error=1:second_deadlock_stack=1"

# The five tier-2 sweeps (conformance_sweep, serve_sweep, stats_sweep,
# exttsp_sweep, cache_sweep) are excluded: sanitizer overhead makes them
# many minutes slow.  ci/check.sh does not run them either (it runs
# `ctest -L tier1`); only a plain `ctest` in the uninstrumented build
# does.
ctest --test-dir "${BUILD_DIR}" -LE tier2 --output-on-failure -j "${JOBS}"

if [[ "${SANITIZERS}" == "thread" ]]; then
  TMP_DIR="$(mktemp -d)"
  trap 'rm -rf "${TMP_DIR}"' EXIT
  for THREADS in 1 2 8; do
    "${BUILD_DIR}/bench/fig4_warmup" --export "${TMP_DIR}/t${THREADS}" \
      --threads "${THREADS}" >/dev/null
  done
  for SUFFIX in metrics.jsonl trace.jsonl chrome.json; do
    for THREADS in 2 8; do
      if ! cmp -s "${TMP_DIR}/t1.${SUFFIX}" "${TMP_DIR}/t${THREADS}.${SUFFIX}"; then
        echo "sanitize.sh: FAIL: fig4_warmup ${SUFFIX} differs at --threads ${THREADS}" >&2
        exit 1
      fi
    done
  done
  echo "sanitize.sh: fig4_warmup exports byte-identical under TSan for --threads 1/2/8"
fi

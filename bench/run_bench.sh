#!/usr/bin/env bash
# Runs a perf harness and writes its snapshot: by default the
# interpreter throughput benchmark (bench/micro_interp: requests/sec,
# allocations and inline-cache counters of the one interpreter engine,
# plus the proven-facts ablation); with --server the concurrent-serving
# load harness (bench/server_load); with --package the drift-sweep
# lifecycle harness (bench/package_lifecycle); with --all every snapshot
# in sequence.
#
# Usage: bench/run_bench.sh [--server|--package|--all] [--quick]
#                           [--json PATH] [--counters PATH] [--threads N]
#                           [--stats SPEC] [--build-dir DIR]
#
#   bench/run_bench.sh                  # full run, rewrites ./BENCH_interp.json
#   bench/run_bench.sh --quick          # 10x fewer requests; writes nothing
#                                       # unless --json/--counters are given
#   bench/run_bench.sh --server         # rewrites ./BENCH_server.json (always
#                                       # the --quick workload: its
#                                       # deterministic fields depend on
#                                       # the request count, and the
#                                       # tier-1 check re-runs --quick)
#   bench/run_bench.sh --package        # rewrites ./BENCH_package.json (the
#                                       # full staleness-under-drift sweep)
#   bench/run_bench.sh --all            # rewrites all three snapshots; exits
#                                       # nonzero if ANY bench failed (each
#                                       # binary's exit code is checked
#                                       # individually -- one bad bench never
#                                       # yields a green run)
#   bench/run_bench.sh --stats seeds=8,iters=40   # override the stats sweep
#
# Snapshot runs always include the multi-seed `--stats` sweep, so every
# committed BENCH_*.json carries a `stats` block (warmup classes,
# steady-state confidence interval, per-seed changepoints).  A bare
# `--stats` makes each harness use the spec its committed snapshot was
# generated with; the stats sub-runs use fixed workload sizes
# independent of --quick.
#
# This script is the one writer of the snapshots, and each harness's
# `--check-against SNAPSHOT` is the one reader: tier-1 tests re-run the
# harnesses and fail unless every deterministic block they render (the
# `stats` blocks, server_load's `deterministic` line, the whole package
# file) appears in the committed file byte for byte.  Wall-clock fields
# are host-dependent and never checked.  A change that moves a
# deterministic field reruns this script and says why.  BENCH_*.json is
# gitignored except the committed snapshots, so scratch runs never dirty
# the tree.

set -euo pipefail

REPO_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${REPO_DIR}/build"
JOBS="$(nproc 2>/dev/null || echo 4)"
QUICK=""
JSON_PATH=""
COUNTERS_PATH=""
MODE="interp"
THREADS=""
STATS_SPEC=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK="--quick"; shift ;;
    --server) MODE="server"; shift ;;
    --package) MODE="package"; shift ;;
    --all) MODE="all"; shift ;;
    --threads) THREADS="$2"; shift 2 ;;
    --json) JSON_PATH="$2"; shift 2 ;;
    --counters) COUNTERS_PATH="$2"; shift 2 ;;
    --stats) STATS_SPEC="$2"; shift 2 ;;
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    *) echo "usage: $0 [--server|--package|--all] [--quick] [--json PATH]" \
            "[--counters PATH] [--threads N] [--stats SPEC] [--build-dir DIR]" >&2
       exit 2 ;;
  esac
done

# Runs one bench binary with the stats sweep (the committed spec unless
# --stats overrides it), checking its exit code explicitly: a failing
# bench must fail the script even when more benches follow (--all).
# Returns the binary's status so --all can accumulate failures.
run_target() {
  local target="$1"; shift
  cmake --build "${BUILD_DIR}" --target "${target}" -j "${JOBS}" >/dev/null
  local status=0
  "${BUILD_DIR}/bench/${target}" "$@" --stats ${STATS_SPEC:+"${STATS_SPEC}"} \
    || status=$?
  if [[ "${status}" -ne 0 ]]; then
    echo "run_bench.sh: FAIL: ${target} exited with status ${status}" >&2
  fi
  return "${status}"
}

run_interp() {
  local args=()
  [[ -n "${QUICK}" ]] && args+=("${QUICK}")
  local json="${JSON_PATH}"
  # Full runs default to rewriting the committed snapshot.
  if [[ -z "${QUICK}" && -z "${json}" ]]; then
    json="${REPO_DIR}/BENCH_interp.json"
  fi
  [[ -n "${json}" ]] && args+=(--json "${json}")
  [[ -n "${COUNTERS_PATH}" ]] && args+=(--counters "${COUNTERS_PATH}")
  run_target micro_interp "${args[@]}"
  if [[ -n "${json}" ]]; then
    echo "run_bench.sh: wrote ${json}"
  fi
}

run_server() {
  # The committed server snapshot is always the --quick workload (see
  # usage above); a bare --server run rewrites it.
  local json="${JSON_PATH:-${REPO_DIR}/BENCH_server.json}"
  local args=(--quick --json "${json}" --threads "${THREADS:-4}")
  [[ -n "${COUNTERS_PATH}" ]] && args+=(--counters "${COUNTERS_PATH}")
  run_target server_load "${args[@]}"
  echo "run_bench.sh: wrote ${json}"
}

run_package() {
  local json="${JSON_PATH:-${REPO_DIR}/BENCH_package.json}"
  local args=(--json "${json}")
  [[ -n "${QUICK}" ]] && args+=("${QUICK}")
  run_target package_lifecycle "${args[@]}"
  echo "run_bench.sh: wrote ${json}"
}

cmake -S "${REPO_DIR}" -B "${BUILD_DIR}" >/dev/null

case "${MODE}" in
  interp) run_interp ;;
  server) run_server ;;
  package) run_package ;;
  all)
    # Run every bench even after a failure, then report: per-binary exit
    # codes are individually checked and any nonzero fails the run.
    FAILED=()
    run_interp || FAILED+=(micro_interp)
    run_server || FAILED+=(server_load)
    run_package || FAILED+=(package_lifecycle)
    if [[ "${#FAILED[@]}" -gt 0 ]]; then
      echo "run_bench.sh: FAIL: ${FAILED[*]}" >&2
      exit 1
    fi
    ;;
esac

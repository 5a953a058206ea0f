#!/usr/bin/env bash
# Runs `jsvm jit FILE` with one host thread and with four.  Passes only
# when both runs exit 0 and print the same summary: the host compile pool
# may move wall-clock time, never a translation, a code byte or a unit of
# virtual cost.
#
# Usage: check_jsvm_jit.sh JSVM FILE

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 JSVM FILE" >&2
  exit 2
fi
JSVM="$1"
FILE="$2"

run() {
  local OUT STATUS
  set +e
  OUT="$("${JSVM}" jit "${FILE}" --threads "$1" 2>&1)"
  STATUS=$?
  set -e
  if [[ ${STATUS} -ne 0 ]]; then
    echo "check_jsvm_jit.sh: jsvm jit ${FILE} --threads $1: exit ${STATUS}" >&2
    printf '%s\n' "${OUT}" | head -5 >&2
    exit 1
  fi
  printf '%s\n' "${OUT}"
}

ONE="$(run 1)"
FOUR="$(run 4)"
if [[ "${ONE}" != "${FOUR}" ]]; then
  echo "check_jsvm_jit.sh: ${FILE}: --threads 1 and 4 differ" >&2
  diff <(printf '%s\n' "${ONE}") <(printf '%s\n' "${FOUR}") >&2 || true
  exit 1
fi
printf '%s\n' "${ONE}"
echo "check_jsvm_jit.sh: ${FILE}: identical at --threads 1 and 4"

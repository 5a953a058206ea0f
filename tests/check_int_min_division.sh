#!/usr/bin/env bash
# Runs a one-line program that divides INT64_MIN by -1 through `jsvm run`.
# The hardware division traps on that pair (exit 136, SIGFPE); the VM
# defines it instead, wrapping as Sub does.  Passes only when jsvm exits 0
# and prints the defined result.
#
# Usage: check_int_min_division.sh mod|div JSVM
#   mod  $x % $y with $x = INT64_MIN and $y = -1, printing 0
#   div  $x / $y with $x = INT64_MIN and $y = -1, printing INT64_MIN

set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 mod|div JSVM" >&2
  exit 2
fi
SHAPE="$1"
JSVM="$2"
# 2^62 * 2 wraps to INT64_MIN; the source has no literal past INT64_MAX.
MIN='$x = 4611686018427387904 * 2;'
case "${SHAPE}" in
  mod) BODY="${MIN} \$y = 0 - 1; return \$x % \$y;"; WANT='-> 0 ' ;;
  div) BODY="${MIN} \$y = 0 - 1; return \$x / \$y;"
       WANT='-> -9223372036854775808 ' ;;
  *)
    echo "check_int_min_division.sh: unknown shape '${SHAPE}'" >&2
    exit 2
    ;;
esac

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
SRC="${TMP_DIR}/int_min_${SHAPE}.hack"
printf 'function main() { %s }\n' "${BODY}" > "${SRC}"

set +e
OUT="$("${JSVM}" run "${SRC}" 2>&1)"
STATUS=$?
set -e

if [[ ${STATUS} -ne 0 ]]; then
  echo "check_int_min_division.sh: jsvm run on ${SHAPE}: exit ${STATUS}, want 0"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
if [[ "${OUT}" != "${WANT}"* ]]; then
  echo "check_int_min_division.sh: jsvm run on ${SHAPE}: printed '${OUT}', want '${WANT}...'"
  exit 1
fi
echo "check_int_min_division.sh: ${SHAPE}: ${OUT}"

#!/usr/bin/env bash
# Generates a mini-Hack file nested far past the parser's depth cap and
# runs one frontend CLI on it.  Passes only when the tool exits with
# STATUS, its documented status for source that fails to compile, and
# reports the parser's nesting error.  A crash (exit 139 on a stack
# overflow) or any other status fails.  The inputs are generated here so
# no 100k-term file is checked in.
#
# Usage: check_deep_source.sh parens|chain STATUS TOOL [ARGS...]
#   parens  main returns 10,000 nested parentheses
#   chain   main returns a 100,000-term "1 + 1 + ..." chain
# The generated file is appended to TOOL's arguments.

set -euo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 parens|chain STATUS TOOL [ARGS...]" >&2
  exit 2
fi
SHAPE="$1"
WANT="$2"
shift 2

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
SRC="${TMP_DIR}/deep_${SHAPE}.hack"

case "${SHAPE}" in
  parens)
    {
      printf 'function main() { return '
      printf '(%.0s' $(seq 10000)
      printf '1'
      printf ')%.0s' $(seq 10000)
      printf '; }\n'
    } > "${SRC}"
    ;;
  chain)
    {
      printf 'function main() { return 1'
      printf ' + 1%.0s' $(seq 99999)
      printf '; }\n'
    } > "${SRC}"
    ;;
  *)
    echo "check_deep_source.sh: unknown shape '${SHAPE}'" >&2
    exit 2
    ;;
esac

set +e
OUT="$("$@" "${SRC}" 2>&1)"
STATUS=$?
set -e

if [[ ${STATUS} -ne ${WANT} ]]; then
  echo "check_deep_source.sh: $* on ${SHAPE}: exit ${STATUS}, want ${WANT}"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
if ! grep -q "nesting deeper than" <<< "${OUT}"; then
  echo "check_deep_source.sh: $* on ${SHAPE}: exit ${WANT} without the nesting error"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
echo "check_deep_source.sh: $* on ${SHAPE}: nesting error, exit ${WANT}"

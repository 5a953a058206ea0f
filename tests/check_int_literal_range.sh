#!/usr/bin/env bash
# Runs one frontend CLI on a one-line program whose integer literal lies
# past INT64_MAX.  std::strtoll saturates such a literal to INT64_MAX, so
# the lexer must reject it.  Passes only when the tool exits with STATUS,
# its documented status for source that fails to compile, and reports
# the lexer's range error.
#
# Usage: check_int_literal_range.sh STATUS TOOL [ARGS...]
# The generated file is appended to TOOL's arguments.

set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 STATUS TOOL [ARGS...]" >&2
  exit 2
fi
WANT="$1"
shift

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
SRC="${TMP_DIR}/int_literal_range.hack"
printf 'function main() { return 99999999999999999999999; }\n' > "${SRC}"

set +e
OUT="$("$@" "${SRC}" 2>&1)"
STATUS=$?
set -e

if [[ ${STATUS} -ne ${WANT} ]]; then
  echo "check_int_literal_range.sh: $*: exit ${STATUS}, want ${WANT}"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
if ! grep -q "integer literal out of range" <<< "${OUT}"; then
  echo "check_int_literal_range.sh: $*: exit ${WANT} without the range error"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
echo "check_int_literal_range.sh: $*: range error, exit ${WANT}"

#!/usr/bin/env bash
# Runs one frontend CLI on the one-line program
# `function main() { return EXPR; }`, where EXPR holds a lexer error: a
# number literal out of range (std::strtoll saturates an integer past
# INT64_MAX, std::strtod turns a float past DBL_MAX into infinity) or a
# lone '&' or '|'.  Passes only when the tool exits with STATUS, its
# documented status for source that fails to compile, and prints exactly
# one line, the lexer's error MESSAGE: nothing the parser makes of the
# error token is reported after it.
#
# Usage: check_lexer_error.sh EXPR MESSAGE STATUS TOOL [ARGS...]
# The generated file is appended to TOOL's arguments.

set -euo pipefail

if [[ $# -lt 4 ]]; then
  echo "usage: $0 EXPR MESSAGE STATUS TOOL [ARGS...]" >&2
  exit 2
fi
EXPR="$1"
MESSAGE="$2"
WANT="$3"
shift 3

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
SRC="${TMP_DIR}/lexer_error.hack"
printf 'function main() { return %s; }\n' "${EXPR}" > "${SRC}"

set +e
OUT="$("$@" "${SRC}" 2>&1)"
STATUS=$?
set -e

if [[ ${STATUS} -ne ${WANT} ]]; then
  echo "check_lexer_error.sh: $*: exit ${STATUS}, want ${WANT}"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
if [[ "$(wc -l <<< "${OUT}")" -ne 1 ]] ||
   ! grep -qF "${MESSAGE}" <<< "${OUT}"; then
  echo "check_lexer_error.sh: $*: output is not the one line '${MESSAGE}'"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
echo "check_lexer_error.sh: $*: ${MESSAGE}, exit ${WANT}"

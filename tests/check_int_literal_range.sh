#!/usr/bin/env bash
# Runs one frontend CLI on a one-line program that returns LITERAL, a
# number literal out of range (std::strtoll saturates an integer past
# INT64_MAX, std::strtod turns a float past DBL_MAX into infinity), so the
# lexer must reject it.  Passes only when the tool exits with STATUS, its
# documented status for source that fails to compile, and the first line
# it prints is the lexer's error MESSAGE.
#
# Usage: check_int_literal_range.sh LITERAL MESSAGE STATUS TOOL [ARGS...]
# The generated file is appended to TOOL's arguments.

set -euo pipefail

if [[ $# -lt 4 ]]; then
  echo "usage: $0 LITERAL MESSAGE STATUS TOOL [ARGS...]" >&2
  exit 2
fi
LITERAL="$1"
MESSAGE="$2"
WANT="$3"
shift 3

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT
SRC="${TMP_DIR}/literal_range.hack"
printf 'function main() { return %s; }\n' "${LITERAL}" > "${SRC}"

set +e
OUT="$("$@" "${SRC}" 2>&1)"
STATUS=$?
set -e

if [[ ${STATUS} -ne ${WANT} ]]; then
  echo "check_int_literal_range.sh: $*: exit ${STATUS}, want ${WANT}"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
if ! head -n 1 <<< "${OUT}" | grep -qF "${MESSAGE}"; then
  echo "check_int_literal_range.sh: $*: first line is not '${MESSAGE}'"
  printf '%s\n' "${OUT}" | head -5
  exit 1
fi
echo "check_int_literal_range.sh: $*: ${MESSAGE}, exit ${WANT}"

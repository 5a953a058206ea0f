#!/usr/bin/env bash
# Runs a CLI on a malformed command line.  Passes only when it exits 2,
# the CLIs' status for a usage error, prints its usage message on
# standard error and writes nothing to standard output: a bad flag value
# must stop the tool before it does any work.
#
# Usage: check_usage_error.sh TOOL [ARGS...]

set -euo pipefail

if [[ $# -lt 1 ]]; then
  echo "usage: $0 TOOL [ARGS...]" >&2
  exit 2
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

set +e
"$@" > "${TMP_DIR}/out" 2> "${TMP_DIR}/err"
STATUS=$?
set -e

if [[ ${STATUS} -ne 2 ]] || [[ -s "${TMP_DIR}/out" ]] ||
   ! grep -q "^usage: " "${TMP_DIR}/err"; then
  echo "check_usage_error.sh: $*: exit ${STATUS}, want 2 with the usage" \
       "message and no output"
  head -5 "${TMP_DIR}/out" "${TMP_DIR}/err"
  exit 1
fi
echo "check_usage_error.sh: $*: usage error, exit 2"

#!/usr/bin/env bash
# Conformance-digest check: run the differential conformance sweep over
# 50 generated programs (seed 7, the smoke config matrix) and byte-diff
# its summary line -- run counts, mismatches and the sweep digest, which
# covers every cell's observables and translation placement -- against
# the checked-in golden.  This pins the digest across runs and across
# changes, so any diff is either nondeterminism, a regression or an
# intentional model change (regenerate with:
#   <jsvm> fuzz --programs 50 --seed 7 > tests/golden/conformance.txt).
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: check_conformance.sh <jsvm-binary> <conformance.txt>" >&2
  exit 2
fi
BIN="$1"
GOLDEN="$2"

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

# A mismatch exits nonzero; the summary line below still shows it.
"${BIN}" fuzz --programs 50 --seed 7 > "${TMP_DIR}/fresh.txt" || true

if ! cmp -s "${TMP_DIR}/fresh.txt" "${GOLDEN}"; then
  echo "golden mismatch: conformance sweep summary differs from ${GOLDEN}" >&2
  diff "${GOLDEN}" "${TMP_DIR}/fresh.txt" >&2 || true
  exit 1
fi
echo "golden ok: conformance sweep matches ${GOLDEN}"

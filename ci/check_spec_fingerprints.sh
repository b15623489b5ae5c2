#!/usr/bin/env bash
# Checks the shipped experiment specs against their pinned fingerprints.
#
# Runs every line of ci/spec_fingerprints.txt through `btrsim --spec` and
# fails when a printed experiment fingerprint differs from its pin, when a
# run fails, or when a spec under examples/specs/ has no pin.
#
# Usage:
#   ci/check_spec_fingerprints.sh [BTRSIM]   # default: build/example_btrsim
set -euo pipefail
cd "$(dirname "$0")/.."

BTRSIM="${1:-build/example_btrsim}"
PINS=ci/spec_fingerprints.txt
failed=0

while read -r spec want; do
  case "${spec}" in
    '' | '#'*) continue ;;
  esac
  code=0
  out=$("${BTRSIM}" --spec "examples/specs/${spec}.btrx" 2>&1) || code=$?
  # A single experiment prints "experiment fingerprint: X"; a sweep prints
  # its combined fingerprint in the spec_sweep BENCH_JSON row.
  got=$(printf '%s\n' "${out}" | sed -n \
    -e 's/^experiment fingerprint: \([0-9a-f]*\)$/\1/p' \
    -e 's/^BENCH_JSON {"bench":"spec_sweep".*"fingerprint":"\([0-9a-f]*\)".*/\1/p' | tail -n 1)
  if [[ "${code}" -ne 0 ]]; then
    echo "FAIL ${spec}: btrsim exited ${code}"
    failed=1
  elif [[ "${got}" != "${want}" ]]; then
    echo "FAIL ${spec}: fingerprint ${got:-missing}, pinned ${want}"
    failed=1
  else
    echo "ok   ${spec}: ${got}"
  fi
done < "${PINS}"

for path in examples/specs/*.btrx; do
  spec=$(basename "${path}" .btrx)
  if ! grep -Eq "^${spec}[[:space:]]" "${PINS}"; then
    echo "FAIL ${spec}: no pin in ${PINS}"
    failed=1
  fi
done

exit "${failed}"

#!/usr/bin/env bash
# Test runner with tiering. Mirrors .github/workflows/ci.yml for
# environments without GitHub Actions.
#
#   ci/run_tests.sh          # tier1: fast unit/integration tests (every push)
#   ci/run_tests.sh --full   # tier1 + tier2 (randomized / equivalence /
#                            # determinism sweeps; scheduled CI and local runs)
#
# Tiers are ctest LABELS assigned in CMakeLists.txt (BTR_TIER2_TESTS). After
# the tests come CI's paper-claim checks (E1, E3, E7's gossip rollout,
# planner scalability and incremental replanning, E8, E13 and bench_format,
# each of which exits non-zero when its claim fails), then the shipped
# specs' experiment fingerprints are checked against their pins
# (ci/check_spec_fingerprints.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

LABEL_ARGS=(-L tier1)
if [[ "${1:-}" == "--full" ]]; then
  LABEL_ARGS=()
fi

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure --no-tests=error "${LABEL_ARGS[@]}" -j
build/bench_replication_cost
build/bench_recovery_time
build/bench_plan_delta
build/bench_transition_bound
build/bench_dissemination
build/bench_planner_scalability
build/bench_format --reps=1
ci/check_spec_fingerprints.sh build/example_btrsim

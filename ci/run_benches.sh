#!/usr/bin/env bash
# Perf harness: builds Release, runs the bench binaries on a small smoke
# preset, and emits machine-readable BENCH_runtime.json at the repo root so
# every PR has a recorded perf trajectory.
#
# Usage:
#   ci/run_benches.sh                  # smoke preset (CI: fast, keeps binaries honest)
#   ci/run_benches.sh --full           # E7 preset, more reps (perf work: real numbers)
#   ci/run_benches.sh --sweep-service  # + sweep_service row (btrsim --bench-service)
#   ci/run_benches.sh --dissemination  # + gossip rollout rows
#                                      #   (latency + bytes-on-bus vs fleet size,
#                                      #   and rollout latency vs pace_fraction)
#   ci/run_benches.sh --scenarios      # + scenario-family rows (coverage vs
#                                      #   churn rate on the mobile convoy)
#   ci/run_benches.sh --format         # + strategy_format row (v4 image vs
#                                      #   v2 text: blob/patch bytes, parse-
#                                      #   vs-map install time, report-fp
#                                      #   equality across strategy sources)
#
# The JSON is a single object:
#   {
#     "preset": "...",
#     "rows": [ {bench, preset, variant, periods, events, wall_ms,
#                events_per_sec, fingerprint}, ... ]
#   }
# Fingerprints are seed-stable report digests: a changed fingerprint for an
# unchanged seed means a behavior change, not just a perf change.
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=smoke
REPS=2
SWEEP_SERVICE=0
DISSEMINATION=0
SCENARIOS=0
FORMAT=0
for arg in "$@"; do
  case "${arg}" in
    --full)
      PRESET=e7
      REPS=5
      ;;
    --sweep-service)
      SWEEP_SERVICE=1
      ;;
    --dissemination)
      DISSEMINATION=1
      ;;
    --scenarios)
      SCENARIOS=1
      ;;
    --format)
      FORMAT=1
      ;;
    *)
      echo "unknown option: ${arg}" >&2
      exit 2
      ;;
  esac
done

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
BENCH_TARGETS=(bench_sim_throughput bench_planner_scalability bench_plan_delta example_btrsim)
if [[ "${DISSEMINATION}" == "1" ]]; then
  BENCH_TARGETS+=(bench_dissemination)
fi
if [[ "${SCENARIOS}" == "1" ]]; then
  BENCH_TARGETS+=(bench_scenarios)
fi
if [[ "${FORMAT}" == "1" ]]; then
  BENCH_TARGETS+=(bench_format)
fi
cmake --build build-bench -j "$(nproc)" --target "${BENCH_TARGETS[@]}"

OUT=BENCH_runtime.json
# bench_sim_throughput emits the sequential rows plus the sim_parallel
# scaling curve (shards 1/2/4/8 of the same run, with host_cores and a
# cross-shard fingerprint-equality check baked into the bench itself).
ROWS=$(./build-bench/bench_sim_throughput "--preset=${PRESET}" "--reps=${REPS}" \
  | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
# Incremental-replanning rows (E7 addendum): full-vs-incremental rebuild
# time on single-edit streams, with a byte-identical serialization check.
PLANNER_ROWS=$(./build-bench/bench_planner_scalability --incremental-only \
  | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
if [[ -n "${PLANNER_ROWS}" ]]; then
  ROWS="${ROWS},
    ${PLANNER_ROWS}"
fi
# Install-traffic rows (E7 addendum): per-node install bytes and simulated
# install latency of the gossip rollout after a single edit, against the
# naive full-blob-to-every-node baseline (computed; see README "Strategy
# distribution").
INSTALL_ROWS=$(./build-bench/bench_plan_delta --install-only \
  | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
if [[ -n "${INSTALL_ROWS}" ]]; then
  ROWS="${ROWS},
    ${INSTALL_ROWS}"
fi
# Spec sweep row (E7 addendum): the declarative sweep runner expands
# examples/specs/e7_sweep.btrx into seeded runs; its aggregate fingerprint
# pins the whole experiments-as-data path (parse -> scenario -> lifecycle
# -> report), so a silent behavior change in any layer shows up here.
# btrsim exits nonzero when a run violates Definition 3.1 — that is an
# experiment outcome, not a harness failure, so don't let pipefail kill
# the script before the JSON is written; the row still records it.
SWEEP_ROWS=$( (./build-bench/example_btrsim --spec examples/specs/e7_sweep.btrx || \
  echo "spec sweep exited $? (Definition 3.1 violation or failed run)" >&2) \
  | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
if [[ -n "${SWEEP_ROWS}" ]]; then
  ROWS="${ROWS},
    ${SWEEP_ROWS}"
fi
# Sweep-service row (--sweep-service): the experiment service runs the
# expanded e7_sweep fleet through {cache on, cache off} x {--jobs 1, 4}.
# The row records the cache economics (cold vs warm wall, hit ratio) and
# asserts the combined experiment fingerprint is identical across all four
# corners — the cache and the job lanes are speed knobs, never semantics
# knobs. btrsim exits nonzero on fingerprint divergence; like the sweep
# row above, record it without killing the harness.
if [[ "${SWEEP_SERVICE}" == "1" ]]; then
  SERVICE_ROWS=$( (./build-bench/example_btrsim --spec examples/specs/e7_sweep.btrx \
    --bench-service || \
    echo "sweep service exited $? (fingerprint divergence or failed pass)" >&2) \
    | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
  if [[ -n "${SERVICE_ROWS}" ]]; then
    ROWS="${ROWS},
    ${SERVICE_ROWS}"
  fi
fi

# Dissemination rows (--dissemination): the staged convoy edit gossiped
# out at each fleet size, heartbeats ON — rollout latency, nodes
# installed, and control-class bytes on the shared bus (the suppression /
# leaf-slice economy made measurable).
if [[ "${DISSEMINATION}" == "1" ]]; then
  DISSEM_ROWS=$(./build-bench/bench_dissemination "--preset=${PRESET}" \
    | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
  if [[ -n "${DISSEM_ROWS}" ]]; then
    ROWS="${ROWS},
    ${DISSEM_ROWS}"
  fi
fi

# Scenario-family rows (--scenarios): the mobile-convoy churn sweep —
# coverage (fraction of node-time on an exactly-covered mode) vs churn
# rate, with the beyond-f fallback counters. Fingerprints pin the whole
# degradation path: a changed fingerprint for an unchanged seed means the
# nearest-covered fallback behaved differently, not just slower.
if [[ "${SCENARIOS}" == "1" ]]; then
  SCENARIO_ROWS=$(./build-bench/bench_scenarios "--preset=${PRESET}" \
    | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
  if [[ -n "${SCENARIO_ROWS}" ]]; then
    ROWS="${ROWS},
    ${SCENARIO_ROWS}"
  fi
fi

# Strategy-format row (--format): v4 binary images vs v2 text — blob and
# E7-edit patch bytes in both serializations, parse-vs-map install wall
# clock, and the cross-source report-fingerprint equality assertion
# (planned / v2-loaded / v4-mapped runs must serialize identically; the
# bench exits nonzero on divergence — record it, don't kill the harness).
if [[ "${FORMAT}" == "1" ]]; then
  FORMAT_ROWS=$( (./build-bench/bench_format || \
    echo "format bench exited $? (report divergence or failed pass)" >&2) \
    | sed -n 's/^BENCH_JSON //p' | paste -sd, -)
  if [[ -n "${FORMAT_ROWS}" ]]; then
    ROWS="${ROWS},
    ${FORMAT_ROWS}"
  fi
fi

{
  echo '{'
  echo "  \"preset\": \"${PRESET}\","
  echo '  "rows": ['
  echo "    ${ROWS}"
  echo '  ]'
  echo '}'
} > "${OUT}"

echo "wrote ${OUT}:"
cat "${OUT}"

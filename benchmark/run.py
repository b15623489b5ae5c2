#!/usr/bin/env python3
"""btr_bench: the one command that builds, runs and checks the benchmark.

Run from the repository root:

  python3 benchmark/run.py                       # every workload, untraced
  python3 benchmark/run.py --workload fault_sweep --seed 3
  python3 benchmark/run.py --workload replan_convoy --trace 1   # per-layer run
  python3 benchmark/run.py --smoke               # tiny sizes + metric self-check

The first call configures and builds btr_bench in Release under
build-btr_bench/ (CMake, from benchmark/CMakeLists.txt); later calls
rebuild only what changed. Each workload runs in its own process and
measures for BENCHMARK.json's run_seconds; --seconds is accepted only with
that value, so every run measures the same length. The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}, holding the end_to_end metrics of BENCHMARK.json (--trace 0) or
its per_layer metrics (--trace 1). The exit code is non-zero on any failure.
"""

import argparse
import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_DIR = REPO / "build-btr_bench"
BASELINE = BENCH_DIR / "baseline.json"
WORKLOADS = ["steady_avionics", "fault_sweep", "replan_convoy", "rollout_convoy"]
HELD_OUT_SEED = 2  # confirms claims; never used to make them
# The per-layer metrics a workload's traced run does not emit, because it
# never calls the layer: they read 0. Any other missing name is an error,
# and so is a listed name the run did emit.
UNEXERCISED = {
    "steady_avionics": ["planner.rebuild_*", "patch.*", "fmt.*", "spec.*",
                        "install.k1_partial_ratio", "recovery_ms_max", "detection_ms_p50",
                        "rollout_sim_ms_p50", "install_bytes_per_node", "self_ms.delta",
                        "self_ms.patch", "self_ms.fmt", "self_ms.sweep", "self_ms.spec"],
    "fault_sweep": ["sim.shard_wall_ratio", "runtime.dispatch_residual_ms", "planner.rebuild_*",
                    "patch.*", "fmt.*", "install.k1_partial_ratio", "rollout_sim_ms_p50",
                    "install_bytes_per_node", "self_ms.scenario", "self_ms.delta",
                    "self_ms.patch", "self_ms.fmt", "self_ms.run", "self_ms.report"],
    "replan_convoy": ["sim.*", "net.*", "dissem.*", "runtime.*", "install.*", "crypto.*",
                      "evidence.*", "monitor.*", "fmt.*", "spec.*", "recovery_ms_max",
                      "detection_ms_p50", "rollout_sim_ms_p50", "install_bytes_per_node",
                      "self_ms.fmt", "self_ms.run", "self_ms.sweep", "self_ms.spec",
                      "self_ms.report"],
    "rollout_convoy": ["runtime.dispatch_residual_ms", "evidence.*", "spec.*",
                       "recovery_ms_max", "detection_ms_p50", "self_ms.sweep", "self_ms.spec"],
}
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def threads():
    return min(4, os.cpu_count() or 1)


def build():
    """Configures (once) and builds btr_bench; returns the binary path."""
    if not (BUILD_DIR / "CMakeFiles" / "Makefile.cmake").exists():  # written on success
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _run_build_step(cmd)
    _run_build_step(["cmake", "--build", str(BUILD_DIR), "--target", "btr_bench",
                     "-j", str(threads())])
    return BUILD_DIR / "btr_bench"


def _run_build_step(cmd):
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise BenchError("build step failed: " + " ".join(cmd))


def load_contract():
    """BENCHMARK.json's run length and metric names and units by trace mode."""
    with open(REPO / "BENCHMARK.json") as f:
        contract = json.load(f)
    return {"run_seconds": contract["run_seconds"],
            0: {m["name"]: m["unit"] for m in contract["end_to_end"]},
            1: {m["name"]: m["unit"] for m in contract["per_layer"]}}


def claim_seeds(first, count):
    """`count` seeds from `first` up, skipping the held-out seed."""
    return [s for s in range(first, first + count + 1) if s != HELD_OUT_SEED][:count]


def load_pins():
    if not BASELINE.exists():
        return {}
    with open(BASELINE) as f:
        return json.load(f).get("fingerprints", {})


def run_workload(binary, workload, seed, seconds, trace, smoke=False, check=False):
    """Runs one workload in its own process and parses its records."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = BUILD_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-file", str(trace_dir / f"{workload}-seed{seed}.json")]
    if smoke:
        cmd.append("--smoke")
    if check:
        cmd.append("--check")
    try:
        proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"{workload}: btr_bench exited with {proc.returncode}")
    result = {"workload": workload, "seed": seed, "trace": trace, "metrics": {},
              "checks": [], "notes": [], "ops": None, "fingerprint": None}
    for line in proc.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "METRIC":
            name, value, unit = rest.split(" ")
            result["metrics"][name] = {"value": float(value), "unit": unit}
        elif kind == "CHECK":
            status, _, what = rest.partition(" ")
            result["checks"].append((status == "ok", what))
        elif kind == "OPS":
            attempted, failed = rest.split(" ")
            result["ops"] = (int(attempted), int(failed))
        elif kind == "FINGERPRINT":
            result["fingerprint"] = rest
        elif kind == "#":
            result["notes"].append(rest)
    if result["ops"] is None:
        raise BenchError(f"{workload}: no OPS record")
    return result


def contract_metrics(result, contract):
    """The contract's metrics for this run, validated by name and unit."""
    w = result["workload"]
    wanted = contract[result["trace"]]
    unexercised = UNEXERCISED[w] if result["trace"] else []
    out = {}
    for name, unit in wanted.items():
        got = result["metrics"].get(name)
        listed = any(fnmatch.fnmatchcase(name, p) for p in unexercised)
        if got is not None and listed:
            raise BenchError(f"{w}: metric {name} emitted, but listed as unexercised")
        if got is None and listed:
            got = {"value": 0.0, "unit": unit}
        if got is None:
            raise BenchError(f"{w}: metric {name} not emitted")
        if got["unit"] != unit or not NAME_RE.match(name) or not UNIT_RE.match(unit):
            raise BenchError(f"{w}: metric {name} has unit "
                             f"{got['unit']}, BENCHMARK.json says {unit}")
        out[name] = got
    return out


def is_correct(result):
    attempted, failed = result["ops"]
    return attempted >= 1 and failed == 0 and all(ok for ok, _ in result["checks"])


def describe(result, metrics, pins, smoke):
    """Human-readable summary of one workload run."""
    w = result["workload"]
    print(f"== {w} (seed {result['seed']}, {'traced' if result['trace'] else 'untraced'})")
    for ok, what in result["checks"]:
        print(f"  check {'ok  ' if ok else 'FAIL'} {what}")
    for note in result["notes"]:
        print(f"  {note}")
    attempted, failed = result["ops"]
    print(f"  ops attempted {attempted}, failed {failed}")
    fp = result["fingerprint"]
    pinned = pins.get(w, {}).get(str(result["seed"]))
    if result["seed"] == HELD_OUT_SEED:
        print(f"  fingerprint {fp} (held-out seed: never pinned)")
    elif smoke or pinned is None:
        print(f"  fingerprint {fp} (no pin for this seed/size)")
    elif pinned == fp:
        print(f"  fingerprint {fp} matches the pin in benchmark/baseline.json")
    else:
        print(f"  fingerprint {fp} differs from the pin {pinned}: behaviour change "
              f"(not a failure; re-pin with compare.py --record if intended)")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help=f"input seed (seed {HELD_OUT_SEED} is held out for confirming "
                             f"claims)")
    parser.add_argument("--seconds", type=float,
                        help="must equal BENCHMARK.json run_seconds, the fixed run length")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, both trace modes, metric self-check")
    parser.add_argument("--check", action="store_true",
                        help="fault_sweep: lanes cross-check on every behaviour")
    args = parser.parse_args(argv)

    try:
        contract = load_contract()
        seconds = contract["run_seconds"]
        if args.seconds is not None and args.seconds != seconds:
            raise BenchError(f"--seconds {args.seconds:g}: the run length is fixed at "
                             f"BENCHMARK.json's run_seconds, {seconds}")
        binary = build()
        pins = load_pins()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        modes = [0, 1] if args.smoke else [args.trace]
        correct, attempted, failed, combined = True, 0, 0, {}
        for w in workloads:
            for trace in modes:
                result = run_workload(binary, w, args.seed, seconds, trace,
                                      smoke=args.smoke, check=args.check)
                metrics = contract_metrics(result, contract)
                describe(result, metrics, pins, args.smoke)
                correct = correct and is_correct(result)
                attempted += result["ops"][0]
                failed += result["ops"][1]
                combined.update({f"{w}.{k}" if len(workloads) > 1 else k: v
                                 for k, v in metrics.items()})
        if args.smoke:
            print(f"smoke: every BENCHMARK.json metric emitted with a valid name and unit "
                  f"by {len(workloads)} workload(s) in both trace modes, or listed as "
                  f"unexercised")
    except BenchError as e:
        sys.stderr.write(f"btr_bench: {e}\n")
        return 1
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": combined}
    with open(BUILD_DIR / "results.json", "w") as f:
        json.dump(summary, f, indent=1)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Compares two btr_bench binaries, or records a baseline for one.

  python3 benchmark/compare.py BASE_BIN CHANGE_BIN [--workload W]
  python3 benchmark/compare.py --record benchmark/baseline.json [BIN]

Compare mode runs 10 untraced pairs per workload, each pair on its own seed
with the two sides in alternating order, and reports per workload and
end-to-end metric each side's median and quartiles. It claims a gain only
when the change wins >= 9/10 of the pairs (ties count for neither) and the
medians differ by more than the base's own quartile distance; a metric whose
spread exceeds its BENCHMARK.json bound is "unresolved" unless every change
run beats every base run.

Record mode runs two sets of 10 seeds per workload and writes medians,
quartiles, spreads and the report fingerprint of every seed (the pins
run.py checks) to the given file. BIN defaults to build-btr_bench/btr_bench,
which `python3 benchmark/run.py --smoke` builds.

Both modes skip the held-out seed, run for BENCHMARK.json's run_seconds,
and use fixed seed lists: pairs on seeds 1, 3..11, the record sets on the
same seeds and on 12..21.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # importing run.py leaves no __pycache__ behind
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (run.py: building, parsing, the metric contract)

RUNS = 10  # pairs per workload in compare mode, runs per set in record mode
PAIR_SEEDS = run.claim_seeds(1, RUNS)
RECORD_SEED_SETS = [PAIR_SEEDS, run.claim_seeds(PAIR_SEEDS[-1] + 1, RUNS)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def load_contract():
    """BENCHMARK.json's end-to-end metrics by name, and its run length."""
    with open(run.REPO / "BENCHMARK.json") as f:
        contract = json.load(f)
    return {m["name"]: m for m in contract["end_to_end"]}, contract["run_seconds"]


def one_run(binary, workload, seed, seconds):
    result = run.run_workload(binary, workload, seed, seconds, 0)
    if not run.is_correct(result):
        raise run.BenchError(f"{binary} {workload} seed {seed}: correctness check failed")
    return result


def compare(args):
    e2e, seconds = load_contract()
    workloads = args.workload or run.WORKLOADS
    for w in workloads:
        base, change = {m: [] for m in e2e}, {m: [] for m in e2e}
        for i, seed in enumerate(PAIR_SEEDS):
            sides = [(args.base, base), (args.change, change)]
            for binary, sink in (sides if i % 2 == 0 else sides[::-1]):
                result = one_run(binary, w, seed, seconds)
                for m in e2e:
                    sink[m].append(result["metrics"][m]["value"])
        print(f"== {w} ({RUNS} pairs, seeds {PAIR_SEEDS})")
        print(f"  {'metric':14s} {'base p50 [q1, q3]':>30s} {'change p50 [q1, q3]':>30s}"
              f" {'wins':>6s}  verdict")
        for m, spec in e2e.items():
            b, c = base[m], change[m]
            higher = spec["better"] == "higher"
            wins = sum(1 for x, y in zip(b, c) if (y > x if higher else y < x))
            bq, cq = quartiles(b), quartiles(c)
            gap = cq[1] - bq[1]
            better = gap > 0 if higher else gap < 0
            worse_share = (-gap if higher else gap) / bq[1] if bq[1] else 0.0
            all_better = (min(c) > max(b)) if higher else (max(c) < min(b))
            if wins >= 0.9 * RUNS and better and abs(gap) > bq[2] - bq[0]:
                verdict = "gain"
            elif spread(b) > spec["bound"] or spread(c) > spec["bound"]:
                verdict = "better in every run" if all_better else "unresolved"
            elif worse_share > spec["bound"]:
                verdict = f"REGRESSION (> {spec['bound']:.0%})"
            else:
                verdict = "no change within bound"
            print(f"  {m:14s} {bq[1]:12.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                  f" {cq[1]:12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] {wins:3d}/{RUNS}  {verdict}")


def record(args):
    e2e, seconds = load_contract()
    binary = Path(args.base or run.BUILD_DIR / "btr_bench")
    out = {"commit": args.commit or _git_commit(), "host_cores": os.cpu_count(),
           "build_type": "Release", "recorded": datetime.date.today().isoformat(),
           "seconds": seconds, "seed_sets": RECORD_SEED_SETS, "sets": {},
           "fingerprints": {}}
    for w in args.workload or run.WORKLOADS:
        sets = []
        for seeds in RECORD_SEED_SETS:
            values = {m: [] for m in e2e}
            for seed in seeds:
                result = one_run(binary, w, seed, seconds)
                out["fingerprints"].setdefault(w, {})[str(seed)] = result["fingerprint"]
                for m in e2e:
                    values[m].append(result["metrics"][m]["value"])
            sets.append({m: {"p25": quartiles(v)[0], "p50": quartiles(v)[1],
                             "p75": quartiles(v)[2], "spread": spread(v)}
                         for m, v in values.items()})
        out["sets"][w] = sets
        print(f"== {w}")
        for m, spec in e2e.items():
            s1, s2 = sets[0][m], sets[1][m]
            shift = (s2["p50"] - s1["p50"]) / s1["p50"] if s1["p50"] else 0.0
            print(f"  {m:14s} p50 {s1['p50']:11.5g} / {s2['p50']:11.5g}  shift {shift:+7.2%}"
                  f"  spread {s1['spread']:6.2%} / {s2['spread']:6.2%}"
                  f"  (bound {spec['bound']:.0%})")
    with open(args.record, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")


def _git_commit():
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=run.REPO,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--record", metavar="OUT")
    parser.add_argument("--commit")
    parser.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = parser.parse_args(argv)
    try:
        if args.record:
            record(args)
        elif args.base and args.change:
            compare(args)
        else:
            parser.error("give BASE_BIN CHANGE_BIN, or --record OUT")
    except run.BenchError as e:
        sys.stderr.write(f"compare: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]...

Runs BENCHMARK.json's command `--runs` times on each workload, each time with
another `--seed`, and prints for each metric the median of its values and the
distance between their first and third quartile as a share of that median,
beside the metric's bound. A spread within a third of the bound reads PASS,
within the bound WIDE, beyond it FAIL (set-up time is never FAIL: the driver
does not hold its spread to the bound). Exits 1 on any FAIL or incorrect run.
The `unscaled.*` rows are the same times as the clock read them, before the
reference scaling, and the reference burst itself: what the host did.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(spec, workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    started = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = done.returncode == 0 and result.get("correct") and result.get("failed") == 0
    unscaled = {
        name: float(value)
        for name, value, _unit in (l.split() for l in lines if l.startswith("unscaled."))
    }
    return result, unscaled, ok, time.monotonic() - started


def spread_of(series):
    q1, _, q3 = statistics.quantiles(series, n=4)
    return (q3 - q1) / statistics.median(series)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bad = False
    print(f"| workload | metric | median | spread | bound | | ({args.runs} seeds from {args.first_seed})")
    print("|---|---|---|---|---|---|")
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        host = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, unscaled, ok, wall = run(spec, workload, seed)
            walls.append(wall)
            if not ok:
                print(f"{workload} --seed {seed}: incorrect or failed run", file=sys.stderr)
                bad = True
                continue
            for name, series in values.items():
                series.append(result["metrics"][name]["value"])
            for name, value in unscaled.items():
                host.setdefault(name, []).append(value)
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            if len(series) < 2:
                continue
            median = statistics.median(series)
            spread = spread_of(series)
            verdict = "PASS" if spread <= metric["bound"] / 3 else "WIDE"
            if spread > metric["bound"] and metric["name"] != "setup_s":
                verdict, bad = "FAIL", True
            print(
                f"| {workload} | {metric['name']} | {median:.6g} {metric['unit']} "
                f"| {spread:.4f} | {metric['bound']} | {verdict} |"
            )
        for name, series in host.items():
            if len(series) >= 2:
                print(
                    f"| {workload} | {name} | {statistics.median(series):.6g} "
                    f"| {spread_of(series):.4f} | | |"
                )
        print(f"| {workload} | wall per run | {statistics.median(walls):.1f} s | | | |", flush=True)
        for name, series in values.items():
            print(f"{workload} {name}: " + " ".join(f"{v:.6g}" for v in series), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run workloads repeatedly on one commit and report each metric's spread.

    python3 perfbench/steadiness.py [--workload NAME ...] [--runs 10]
                                    [--first-seed 1] [--trace 0|1]
                                    [--seconds S] [--json out.json]

Each run is one perfbench/run.py process with its own seed. For every
metric the report gives the median, the quartiles (Python's
statistics.quantiles(values, n=4)), min/max and the spread: the
inter-quartile distance as a share of the median. End-to-end metrics
also show their bound from BENCHMARK.json and whether the spread stays
under a third of it, the margin the bounds are set by; setup_s
included. Exits 1 when any spread does not.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        sys.exit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / abs(q2) if q2 else float("inf")}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--json", help="also write the summary here")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary, steady = {}, True
    for w in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, walls = [], []
        for i in range(args.runs):
            res, wall = run_once(w, args.first_seed + i, args.seconds,
                                 args.trace)
            walls.append(wall)
            if not res["correct"]:
                sys.exit(f"{w} seed {args.first_seed + i}: output check failed")
            runs.append(res["metrics"])
            print(f"{w} seed {args.first_seed + i} ({wall:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        summary[w] = {}
        print(f"\n{w}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, wall time per run "
              f"{statistics.mean(walls):.1f} s mean, {max(walls):.1f} s max")
        print(f"  {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
        for name in runs[0]:
            s = summarize([r[name]["value"] for r in runs])
            summary[w][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                ok = s["spread"] < bound / 3
                steady = steady and ok
                flag = "ok" if ok else "NOISY"
            print(f"  {name:30} {s['median']:12.6g} {s['q1']:12.6g} "
                  f"{s['q3']:12.6g} {s['min']:12.6g} {s['max']:12.6g} "
                  f"{s['spread']:8.4f} {bound if bound is not None else '':>6} "
                  f"{flag}")
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()

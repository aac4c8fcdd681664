#!/usr/bin/env python3
"""Pin each workload's output digest for a range of seeds.

    python3 perfbench/pin.py [--workload NAME ...] [--seeds 0-99]

Builds like run.py, runs perfbench_runner with --digest-only for every
input seed (run.py maps --seed onto 0..run.INPUT_SEEDS-1) and
merges the digests into perfbench/pinned.json. The digest covers what a
seed's run must reproduce: the final Q-table and modelled TimeBreakdown
of a training session (lake-kernel, taxi-sync), every job's Q-table and
the schedule (fleet-preempt), the greedy answers of the served table
(serve-mixed). Re-pin only when a change is meant to move modelled
results, and say so in the change.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

PINNED = run.HERE / "pinned.json"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=run.WORKLOADS)
    p.add_argument("--seeds", default=f"0-{run.INPUT_SEEDS - 1}",
                   help="inclusive range a-b")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    runner = run.build()
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for w in args.workload or run.WORKLOADS:
        table = pinned.setdefault(w, {})
        for seed in range(lo, hi + 1):
            proc = subprocess.run(
                [runner, "--workload", w, "--seed", str(seed), "--seconds",
                 "0", "--trace", "0", "--digest-only", "1"],
                capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: runner exit {proc.returncode}\n"
                         f"{proc.stderr}")
            table[str(seed)] = json.loads(proc.stdout)["digest"]
            print(f"{w} seed {seed}: {table[str(seed)]}", flush=True)
        pinned[w] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the repository's libraries and the benchmark runner from source
(Release) under $CARGO_TARGET_DIR, default .bench_build, then runs the
runner: one process for a traced run, several in a row otherwise.
Prints a run manifest, every metric by name with its unit, the
per-layer self-time table of a traced run, and as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
runs carry the end-to-end metrics of BENCHMARK.json, traced runs the
per-layer ones. Exits 1 when an output check fails, including a digest
that differs from the one pinned in perfbench/pinned.json.

The inputs come from the input seed, --seed modulo INPUT_SEEDS, and
every input seed has a pinned digest, so every run is checked against
one; a missing pin is a failed check.

Extra options, for the benchmark's own tools:
    --pinned <path>      pinned digests to check against
    --cmake-arg <arg>    extra argument for configuring the repository
                         (repeatable; e.g. --cmake-arg=-DSWIFTRL_BATCH_EXEC=ON, best
                         with a separate CARGO_TARGET_DIR)
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fleet-preempt is runnable but not one of BENCHMARK.json's workloads:
# its serial FleetScheduler::run calls run at the speed of one vCPU of
# the shared host, which flips by ~1.6x for seconds to minutes, so its
# op_ms_p50 jumped between two speeds from one 10-run set to the next.
# taxi-sync's traced run times the fleet's layers instead.
WORKLOADS = ("lake-kernel", "taxi-sync", "fleet-preempt", "serve-mixed")
INPUT_SEEDS = 100
# An untraced run is several runner processes in a row; the
# end-to-end metrics come from their pooled samples. Every process runs
# its ops back to back in one long-lived process, so drift from op to
# op within a process shows in the figures, while no single process's
# luck decides them.
#
# Training processes run a fixed number of whole sessions each and are
# started one after another while the run's seconds last. In every
# process the 4th and 5th lake-kernel sessions run about 2x slower than
# the others (the simulator's heap reuse across sessions; gone under
# MALLOC_ARENA_MAX=1), so a fixed count per process fixes the share of
# slow rounds in the figures. A count bounded by time made that share,
# and with it work_per_s, swing with the host's speed.
SESSIONS = {"lake-kernel": 6, "taxi-sync": 4}
MIN_PROCESSES = 2
# Fleet and serving processes: this many, each for its share of
# --seconds.
PROCESSES = {"fleet-preempt": 8, "serve-mixed": 8}
# The name of work_per_s on each workload.
WORK_NAMES = {"lake-kernel": "updates_per_s", "taxi-sync": "updates_per_s",
              "fleet-preempt": "jobs_per_s", "serve-mixed": "queries_per_s"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        f.flush()
        rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-30:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"build step failed ({cmd[0]} exit {rc}); log in {log}")


def build(cmake_args=()):
    """Configure and build the repository libraries and the runner;
    returns the runner's path. Serialised by a lock file."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {HERE.name}/ (looked in {ROOT})")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    repo_build, bench_build = out / "swiftrl", out / "perfbench"
    log = out / "build.log"
    jobs = str(max(1, os.cpu_count() or 1))
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configured every time, so requested options always apply.
        run_logged(["cmake", "-S", ROOT, "-B", repo_build,
                    "-DCMAKE_BUILD_TYPE=Release", *cmake_args], log)
        run_logged(["cmake", "--build", repo_build, "-j", jobs, "--target",
                    "swiftrl_core", "swiftrl_fleet", "swiftrl_serving"], log)
        run_logged(["cmake", "-S", HERE, "-B", bench_build,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DSWIFTRL_SOURCE_DIR={ROOT}",
                    f"-DSWIFTRL_BUILD_DIR={repo_build}"], log)
        run_logged(["cmake", "--build", bench_build, "-j", jobs], log)
    return bench_build / "perfbench_runner"


def input_seed(seed):
    return seed % INPUT_SEEDS


def run_runner(runner, workload, seed, seconds, trace, spans=None,
               sessions=0):
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans:
        cmd += ["--spans", spans]
    if sessions:
        cmd += ["--sessions", str(sessions)]
    limit = seconds + 60
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        fail(f"runner did not finish within {limit} s")
    sys.stderr.write(proc.stderr)
    try:
        return proc.returncode, json.loads(proc.stdout)
    except json.JSONDecodeError:
        fail(f"runner exit {proc.returncode} without a result:\n{proc.stdout}")


def run_processes(runner, args, seed_in, spans):
    """Run the runner processes of one benchmark run, one after
    another; returns their (exit code, result) pairs."""
    def run(seconds, sessions=0):
        return run_runner(runner, args.workload, seed_in, seconds,
                          args.trace, spans, sessions)

    if args.trace:
        return [run(args.seconds)]
    if args.workload in PROCESSES:
        n = PROCESSES[args.workload]
        return [run(args.seconds / n) for _ in range(n)]
    # Whole processes while the seconds last: stop when another one
    # would end nearer past the time than this one ends before it.
    results, start = [], time.monotonic()
    while True:
        results.append(run(args.seconds, SESSIONS[args.workload]))
        elapsed = time.monotonic() - start
        if (len(results) >= MIN_PROCESSES and
                elapsed + elapsed / len(results) / 2 >= args.seconds):
            return results


def quantile(values, q):
    """Linear-interpolated quantile, as the runner computes it."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def pooled_metrics(results):
    """The end-to-end metrics over the raw samples of every process."""
    setup = [x for r in results for x in r["pool"]["setup_s"]]
    ops = [x for r in results for x in r["pool"]["op_s"]]
    units = sum(r["pool"]["work_units"] for r in results)
    secs = sum(r["pool"]["work_s"] for r in results)
    values = {
        "setup_s": (quantile(setup, 0.5), "s"),
        "work_per_s": (units / secs, "1/s"),
        "op_ms_p50": (quantile(ops, 0.5) * 1e3, "ms"),
        "op_ms_p90": (quantile(ops, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (max(r["pool"]["peak_rss_mb"] for r in results), "MB"),
    }
    return [{"name": n, "value": v, "unit": u} for n, (v, u) in values.items()]


def merged_detail(results):
    """Each layer figure over the processes: counts of samples summed,
    everything else the median."""
    by_name = {}
    for r in results:
        for m in r["detail"]:
            by_name.setdefault(m["name"], (m["unit"], []))[1].append(m["value"])
    out = []
    for name, (unit, vals) in by_name.items():
        vals = [v for v in vals if v is not None]
        value = (sum(vals) if name.startswith("samples.")
                 else quantile(vals, 0.5) if vals else None)
        out.append({"name": name, "value": value, "unit": unit})
    return out


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def print_self_times(spans_path):
    rows = json.loads(Path(spans_path).read_text())["self_time"]
    layers = {}
    print(f"\nself time per span (traced ops; spans in {spans_path})")
    print(f"  {'span':28} {'count':>8} {'total s':>10} {'self s':>10}")
    for r in sorted(rows, key=lambda r: -r["self_s"]):
        print(f"  {r['name']:28} {r['count']:>8} {r['total_s']:>10.4f} "
              f"{r['self_s']:>10.4f}")
        layer = r["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + r["self_s"]
    total = sum(layers.values()) or 1.0
    print("self time per layer")
    for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:12} {s:10.4f} s  {100 * s / total:5.1f}%")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--pinned", default=str(HERE / "pinned.json"))
    p.add_argument("--cmake-arg", action="append", default=[])
    args = p.parse_args()

    runner = build(args.cmake_arg)
    spans = None
    if args.trace:
        spans = build_dir() / "out" / f"{args.workload}-seed{args.seed}.spans.json"
        spans.parent.mkdir(parents=True, exist_ok=True)
    seed_in = input_seed(args.seed)
    results = run_processes(runner, args, seed_in, spans)
    procs = len(results)
    failures = []
    for rc, r in results:
        failures += r["failures"]
        if rc != 0 and not r["failures"]:
            failures.append(f"runner exit {rc}")
    results = [r for _, r in results]
    res = results[-1]

    pinned = json.loads(Path(args.pinned).read_text()).get(args.workload, {})
    want = pinned.get(str(seed_in))
    digests = sorted({r["digest"] for r in results})
    if want is None:
        failures.append(f"no pinned digest for input seed {seed_in}")
    elif digests != [want]:
        failures.append(f"digest {', '.join(digests)} != pinned {want} "
                        f"for input seed {seed_in}")
    metrics = res["metrics"] if args.trace else pooled_metrics(results)
    detail = merged_detail(results)
    if not args.trace:
        alias = WORK_NAMES[args.workload]
        detail = [m for m in detail if m["name"] != alias]
        detail.insert(0, dict(metrics[1], name=alias))
    expected = expected_metrics(args.trace)
    got = {m["name"]: m for m in metrics}
    detail = [m for m in detail if m["name"] not in got]
    for name, unit in expected.items():
        m = got.get(name)
        if m is None or m["unit"] != unit or m["value"] is None:
            failures.append(f"metric {name} [{unit}] missing or not finite")
    if set(got) - set(expected):
        failures.append(f"unexpected metrics {sorted(set(got) - set(expected))}")
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    manifest = dict(res["manifest"], commit=git_commit(),
                    workload=args.workload, trace=args.trace,
                    input_seed=seed_in, processes=procs,
                    digest=res["digest"], digest_pinned=want)
    print("manifest")
    for k, v in manifest.items():
        print(f"  {k} = {v}")
    print("metrics" + (" (traced run: per-layer)" if args.trace
                       else " (untraced run: end-to-end)"))
    for m in metrics:
        print(f"  {m['name']} = {m['value']} {m['unit']}")
    if procs > 1:
        print(f"layer figures (median over the {procs} processes; "
              "samples.* summed)")
    for m in detail:
        print(f"  {m['name']} = {m['value']} {m['unit']}")
    print(f"  error_rate = {failed / max(1, attempted)} frac "
          f"({failed} failed of {attempted} ops)")
    if spans:
        print_self_times(spans)
    for f in failures:
        print(f"CHECK FAILED: {f}")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if correct else max(1, failed),
        "metrics": {n: {"value": got[n]["value"], "unit": got[n]["unit"]}
                    for n in expected if n in got},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Compare two SwiftRL result files: bench outputs or metrics exports.

Usage:
    tools/bench_compare.py [--throughput] [--min-speedup R] \\
        BEFORE.json AFTER.json

Bench mode — each input is a raw ``bench/perf_sim_throughput`` output
(``{"bench": ..., "workloads": [...]}``) or a checked-in combined
record (``{"before": {...}, "after": {...}}``), from which the
``before`` file contributes its ``before`` run and the ``after`` file
its ``after`` run — so the tool also works when pointed twice at the
repository's own ``BENCH_sim_throughput.json``. Workloads are matched
by ``name``. For every pair the tool prints the wall-clock times, the
speedup, and verifies that the modelled outputs
(``modelled_max_cycles``, ``sim_ops``, ``dma_bytes``) are identical —
a perf change must never move a modelled number.

Metrics mode — when both inputs are ``swiftrl-metrics-v1`` documents
(``swiftrl_cli --metrics``), the tool first checks the two manifests
describe the same workload shape (refusing to diff incomparable
runs), then diffs every modelled counter — the ``pim_*`` / ``rl_*``
instruction-mix, DMA, round, and fault counters — exactly, and
reports straggler-ratio and core-cycle histogram drift alongside.

Throughput gate — with ``--throughput`` (bench mode only) the tool
additionally fails when any common workload's host wall-clock
*regresses* beyond tolerance: the per-workload speedup
(``before.wall_sec / after.wall_sec``) must be at least
``--min-speedup`` (default 0.9, i.e. up to 10% slack for timer
noise). Raise the bar (e.g. ``--min-speedup 1.2``) to assert an
optimisation actually pays off; lower it to gate a fresh run against
rows recorded on another host, as the CI perf-smoke job does against
the smoke rows of ``BENCH_sim_throughput.json``.

Exit status is 0 when every modelled quantity agrees (and, under
``--throughput``, no workload regressed), 1 on drift or regression,
2 on unusable/incomparable inputs. Stdlib only.
"""

import json
import pathlib
import sys

MODELLED_KEYS = ("modelled_max_cycles", "sim_ops", "dma_bytes")

METRICS_SCHEMA = "swiftrl-metrics-v1"

# Manifest fields that must agree for two metrics files to be
# comparable at all (same modelled experiment).
MANIFEST_IDENTITY = (
    "mode", "environment", "workload", "cores", "tasklets",
    "episodes", "tau", "transitions", "generations", "actors",
    "refresh_period", "weighted_aggregation", "alpha", "gamma",
    "epsilon", "collect_seed", "train_seed",
)


def load_workloads(path, role):
    """Return {name: record} from a raw or combined bench file."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if "workloads" not in data and role in data:
        data = data[role]
    if "workloads" not in data and "full" in data:
        data = data["full"]
    runs = data.get("workloads", [])
    if not runs:
        sys.exit(f"{path}: no workloads found (expected a "
                 "perf_sim_throughput output)")
    return {w["name"]: w for w in runs}


def load_json(path):
    return json.loads(pathlib.Path(path).read_text(encoding="utf-8"))


def metric_map(doc, kind):
    """{(name, labels...): record} for one metric kind array."""
    out = {}
    for rec in doc.get(kind, []):
        key = (rec["name"],) + tuple(sorted(rec["labels"].items()))
        out[key] = rec
    return out


def metric_label(key):
    name, *labels = key
    if labels:
        rendered = ",".join(f'{k}="{v}"' for k, v in labels)
        return f"{name}{{{rendered}}}"
    return name


def hist_mean(rec):
    return rec["sum"] / rec["count"] if rec["count"] else 0.0


def compare_metrics(path_a, path_b, doc_a, doc_b):
    """Diff two swiftrl-metrics-v1 documents; return exit status."""
    man_a = doc_a.get("manifest", {})
    man_b = doc_b.get("manifest", {})
    incomparable = [k for k in MANIFEST_IDENTITY
                    if man_a.get(k) != man_b.get(k)]
    if incomparable:
        for k in incomparable:
            print(f"manifest mismatch: {k}: {man_a.get(k)!r} vs "
                  f"{man_b.get(k)!r}", file=sys.stderr)
        print("the two metrics files describe different runs; "
              "refusing to diff", file=sys.stderr)
        return 2

    drift = 0

    # Every counter in these files is modelled (instruction mix, DMA
    # bytes, launches, rounds, faults): exact equality required.
    counters_a = metric_map(doc_a, "counters")
    counters_b = metric_map(doc_b, "counters")
    keys = sorted(set(counters_a) | set(counters_b))
    width = max((len(metric_label(k)) for k in keys), default=8)
    print(f"{'counter':<{width}}  {'before':>14}  {'after':>14}")
    for key in keys:
        va = counters_a.get(key, {}).get("value")
        vb = counters_b.get(key, {}).get("value")
        mark = "" if va == vb else "  MISMATCH"
        if va != vb:
            drift += 1
        print(f"{metric_label(key):<{width}}  {va!s:>14}  {vb!s:>14}"
              f"{mark}")

    # Histograms carry the load-balance shape; their bucket counts are
    # modelled too. Report drift as mean shift, fail on any change.
    hists_a = metric_map(doc_a, "histograms")
    hists_b = metric_map(doc_b, "histograms")
    for key in sorted(set(hists_a) | set(hists_b)):
        ha, hb = hists_a.get(key), hists_b.get(key)
        if ha is None or hb is None:
            print(f"{metric_label(key)}: only in "
                  f"{path_a if hb is None else path_b}")
            drift += 1
            continue
        same = (ha["counts"] == hb["counts"]
                and ha["sum"] == hb["sum"])
        if not same:
            drift += 1
        print(f"{metric_label(key)}: mean {hist_mean(ha):.6g} -> "
              f"{hist_mean(hb):.6g} "
              f"({'identical' if same else 'MISMATCH'})")

    if drift:
        print(f"{drift} modelled metric(s) drifted — the cost model "
              "contract is broken", file=sys.stderr)
        return 1
    print("all modelled metrics identical")
    return 0


def parse_args(argv):
    """Split argv into (positional paths, throughput, min_speedup)."""
    throughput = False
    min_speedup = 0.9
    paths = []
    rest = argv[1:]
    while rest:
        arg = rest.pop(0)
        if arg == "--throughput":
            throughput = True
        elif arg == "--min-speedup":
            if not rest:
                sys.exit("--min-speedup needs a value")
            try:
                min_speedup = float(rest.pop(0))
            except ValueError:
                sys.exit("--min-speedup needs a number")
        elif arg.startswith("--"):
            sys.exit(f"unknown option {arg}")
        else:
            paths.append(arg)
    return paths, throughput, min_speedup


def main(argv):
    paths, throughput, min_speedup = parse_args(argv)
    if len(paths) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    doc_a = load_json(paths[0])
    doc_b = load_json(paths[1])
    a_metrics = doc_a.get("schema") == METRICS_SCHEMA
    b_metrics = doc_b.get("schema") == METRICS_SCHEMA
    if a_metrics != b_metrics:
        sys.exit("cannot mix a metrics export with a bench output")
    if a_metrics:
        if throughput:
            sys.exit("--throughput applies to bench outputs, not "
                     "metrics exports")
        return compare_metrics(paths[0], paths[1], doc_a, doc_b)

    before = load_workloads(paths[0], "before")
    after = load_workloads(paths[1], "after")

    common = [name for name in before if name in after]
    if not common:
        sys.exit("no workloads in common between the two files")

    width = max(len(name) for name in common)
    print(f"{'workload':<{width}}  {'before':>9}  {'after':>9}  "
          f"{'speedup':>8}  modelled")
    mismatches = 0
    regressions = 0
    for name in common:
        b, a = before[name], after[name]
        speedup = b["wall_sec"] / a["wall_sec"] if a["wall_sec"] else 0.0
        identical = all(b.get(k) == a.get(k) for k in MODELLED_KEYS)
        if not identical:
            mismatches += 1
        slow = throughput and speedup < min_speedup
        if slow:
            regressions += 1
        print(f"{name:<{width}}  {b['wall_sec']:>8.4f}s  "
              f"{a['wall_sec']:>8.4f}s  {speedup:>7.2f}x  "
              f"{'identical' if identical else 'MISMATCH'}"
              f"{'  REGRESSION' if slow else ''}")

    only_before = sorted(set(before) - set(after))
    only_after = sorted(set(after) - set(before))
    for name in only_before:
        print(f"{name}: only in {paths[0]}")
    for name in only_after:
        print(f"{name}: only in {paths[1]}")

    status = 0
    if mismatches:
        print(f"{mismatches} workload(s) changed modelled outputs — "
              "the cost model contract is broken", file=sys.stderr)
        status = 1
    if regressions:
        print(f"{regressions} workload(s) below the {min_speedup:g}x "
              "throughput bar — host wall-clock regressed",
              file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))

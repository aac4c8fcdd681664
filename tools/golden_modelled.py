#!/usr/bin/env python3
"""Golden gate for the modelled outputs of the experiment harnesses.

Usage:
    tools/golden_modelled.py --bin-dir BUILD/bench [--update] \\
        [--bench-src bench] [--golden tests/golden/modelled.json]

Runs every harness in ``bench/`` except the host-speed ones
(``perf_*``) and the google-benchmark suite (``micro_kernels``), at the
flags the ``paper`` ctest gates use (``bench/CMakeLists.txt``). From
each harness's stdout it drops the lines tagged as host wall-clock
(``kWallTag`` in ``bench/bench_common.hh``), appends the exit status,
and compares the SHA-256 of the rest against the golden file.

Everything a harness prints outside the tagged lines is modelled time,
a modelled count or a Q-table digest, and must not move unless the cost
model or the training semantics are meant to change. A perf change
that moves a hash is a bug in the perf change.

``--update`` rewrites the golden file from the current build instead
of checking it. Only a change that is meant to move modelled numbers
may do that, and it says in CHANGES.md which harness moved and why.

Exit status: 0 when every hash matches (or after ``--update``), 1 on
any mismatch, missing or stale entry, 2 on unusable inputs. Stdlib
only.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_TAG = "[wall] "
# The strong-scaling gates run on a reduced dataset in ctest; the other
# harnesses run at their defaults.
ARGS = {
    "fig5_scaling_frozenlake": ["--transitions", "50000"],
    "fig6_scaling_taxi": ["--transitions", "50000"],
}


def harnesses(bench_src):
    """Every gated harness, by name, from the bench sources."""
    names = sorted(p.stem for p in bench_src.glob("*.cc"))
    return [n for n in names
            if not n.startswith("perf_") and n != "micro_kernels"]


def modelled_hash(binary, args):
    """SHA-256 of the harness's untagged stdout plus its exit status."""
    proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, check=False)
    kept = [line for line in proc.stdout.splitlines()
            if not line.startswith(WALL_TAG)]
    kept.append(f"exit {proc.returncode}")
    digest = hashlib.sha256("\n".join(kept).encode()).hexdigest()
    return digest, proc.returncode, proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True, type=Path,
                    help="directory holding the built harnesses")
    ap.add_argument("--bench-src", type=Path, default=ROOT / "bench")
    ap.add_argument("--golden", type=Path,
                    default=ROOT / "tests" / "golden" / "modelled.json")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from this build")
    opts = ap.parse_args()

    names = harnesses(opts.bench_src)
    if not names:
        print(f"golden: no harness sources in {opts.bench_src}",
              file=sys.stderr)
        return 2
    golden = {}
    if not opts.update:
        try:
            golden = json.loads(opts.golden.read_text())["harnesses"]
        except (OSError, ValueError, KeyError) as e:
            print(f"golden: cannot read {opts.golden}: {e}",
                  file=sys.stderr)
            return 2

    current = {}
    bad = 0
    for name in names:
        binary = opts.bin_dir / name
        if not binary.is_file():
            print(f"golden: harness {binary} is not built",
                  file=sys.stderr)
            return 2
        args = ARGS.get(name, [])
        digest, status, stderr = modelled_hash(binary, args)
        current[name] = {"args": args, "sha256": digest}
        if opts.update:
            print(f"{name}: {digest} (exit {status})")
            continue
        want = golden.get(name)
        if want is None:
            print(f"MISSING {name}: no golden hash (new harness? "
                  "run with --update)")
            bad += 1
        elif want != current[name]:
            print(f"CHANGED {name} {' '.join(args)}: "
                  f"{want.get('sha256')} -> {digest} (exit {status})")
            if stderr.strip():
                print(stderr.rstrip())
            bad += 1
        else:
            print(f"ok      {name}")
    for name in sorted(set(golden) - set(current)):
        print(f"STALE   {name}: golden entry for a harness that is gone")
        bad += 1

    if opts.update:
        opts.golden.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "about": "SHA-256 of each bench harness's stdout with the "
                     "host wall-clock lines dropped; written by "
                     "tools/golden_modelled.py --update",
            "harnesses": current,
        }
        opts.golden.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"golden: wrote {len(current)} hashes to {opts.golden}")
        return 0
    if bad:
        print(f"golden: {bad} harness(es) moved; modelled outputs "
              "changed")
        return 1
    print(f"golden: {len(current)} harnesses match")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Proves that a wrong or missing pinned digest makes a run exit non-zero,
that a seed beyond the pinned range is still checked against a pin,
that every metric BENCHMARK.json names is printed with its unit (and
every layer figure each workload promises), and that the benchmark
refuses to run without the repository's sources. Runs are short (--seconds 0.5); the
first one builds. Work files go under the benchmark's build directory.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Figures each workload prints besides the contract metrics, by mode.
NAMED = {
    "lake-kernel": (
        ["updates_per_s", "drift.slowest_session_ratio", "error_rate"],
        ["rlcore.collect_s", "pimsim.system_build_ms", "swiftrl.begin_ms",
         "pimsim.kernel_ms_p50", "swiftrl.sync_ms_p50", "pimsim.sim_ops",
         "pimsim.dma_bytes", "pimsim.launches", "pimsim.ns_per_sim_op",
         "swiftrl.sync_gb_per_s_computed", "split.covered_frac"]),
    "taxi-sync": (
        ["updates_per_s", "drift.slowest_session_ratio", "error_rate"],
        ["pimsim.kernel_ms_p50", "swiftrl.sync_ms_p50",
         "split.covered_frac", "fleet.call_ms_p50", "fleet.grants",
         "fleet.preemptions", "fleet.comm_rounds", "fleet.ms_per_grant",
         "swiftrl.checkpoint_ms", "swiftrl.restore_ms"]),
    # Runnable, though not one of BENCHMARK.json's workloads.
    "fleet-preempt": (
        ["jobs_per_s", "fleet.grants", "fleet.preemptions",
         "fleet.comm_rounds", "fleet.ms_per_grant", "error_rate"],
        ["swiftrl.checkpoint_ms", "swiftrl.restore_ms"]),
    "serve-mixed": (
        ["queries_per_s", "op_ms_p99", "serving.build_ms",
         "serving.queries_per_batch", "serving.timeout_batch_frac",
         "serving.single_ms_p50", "serving.batch16_ms_p50", "error_rate"],
        []),
}


def bench(*extra, cwd=run.ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=900)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class PerfbenchSelfTest(unittest.TestCase):
    workdir = run.build_dir() / "selftest"

    @classmethod
    def setUpClass(cls):
        cls.workdir.mkdir(parents=True, exist_ok=True)

    def test_wrong_pinned_digest_fails(self):
        bad = self.workdir / "pinned-wrong.json"
        bad.write_text(json.dumps({"serve-mixed": {"7": "0" * 16}}))
        proc = bench("--workload", "serve-mixed", "--seed", "7", "--seconds",
                     "0.5", "--trace", "0", "--pinned", str(bad))
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("CHECK FAILED: digest", proc.stdout)
        self.assertFalse(last_json(proc.stdout)["correct"])

    def test_missing_pin_fails(self):
        bad = self.workdir / "pinned-missing.json"
        bad.write_text(json.dumps({"serve-mixed": {"8": "0" * 16}}))
        proc = bench("--workload", "serve-mixed", "--seed", "7", "--seconds",
                     "0.5", "--trace", "0", "--pinned", str(bad))
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("CHECK FAILED: no pinned digest", proc.stdout)
        self.assertFalse(last_json(proc.stdout)["correct"])

    def test_seed_beyond_pinned_range_is_checked(self):
        seed = 7 + 3 * run.INPUT_SEEDS
        pinned = json.loads((BENCH / "pinned.json").read_text())
        proc = bench("--workload", "serve-mixed", "--seed", str(seed),
                     "--seconds", "0.5", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("  input_seed = 7\n", proc.stdout)
        self.assertIn(f"  digest_pinned = {pinned['serve-mixed']['7']}\n",
                      proc.stdout)

    def test_every_metric_printed_with_unit(self):
        for workload, (plain_names, traced_names) in NAMED.items():
            for trace, key, names in ((0, "end_to_end", plain_names),
                                      (1, "per_layer", traced_names)):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3",
                                 "--seconds", "0.5", "--trace", str(trace))
                    self.assertEqual(proc.returncode, 0,
                                     proc.stdout + proc.stderr)
                    res = last_json(proc.stdout)
                    self.assertTrue(res["correct"])
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(res["metrics"]), set(want))
                    for name, unit in want.items():
                        self.assertEqual(res["metrics"][name]["unit"], unit)
                        self.assertIn(f"  {name} = ", proc.stdout)
                    for name in names:
                        self.assertIn(f"  {name} = ", proc.stdout)

    def test_refuses_without_repository_sources(self):
        lone = self.workdir / "lone"
        shutil.rmtree(lone, ignore_errors=True)
        shutil.copytree(BENCH, lone / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", lone)
        proc = bench("--workload", "serve-mixed", "--seed", "1", "--seconds",
                     "1", "--trace", "0", cwd=lone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)
        shutil.rmtree(lone)


if __name__ == "__main__":
    unittest.main()

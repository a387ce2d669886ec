"""The benchmark's own tests: every workload at a smoke size.

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds gpures and perfbench (about a minute from
clean); the rest take a few seconds each.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
WORKLOADS = ["dense-campaign", "fleet-noisy", "store-replay", "watch-drain"]

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload, trace, *extra, cwd=ROOT, script=BENCH / "run.py"):
    p = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    return p


def result(p):
    lines = p.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["manifest"]


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertEqual(doc["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in doc["workloads"]], WORKLOADS)
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, run.PER_LAYER)
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for m in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("higher", "lower"))


class SmokeTest(unittest.TestCase):
    def check_printed(self, p, units):
        res, manifest = result(p)
        self.assertEqual(p.returncode, 0, p.stderr[-3000:])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(res["metrics"]), set(units))
        for name, unit in units.items():
            self.assertEqual(res["metrics"][name]["unit"], unit)
            self.assertIsInstance(res["metrics"][name]["value"], (int, float))
            # The readable table names every metric with its unit too.
            self.assertRegex(p.stderr, rf"(?m)^  {re.escape(name)} +\S+ +{re.escape(unit)}(?=\s|$)")
        for key in ("host", "git_rev", "source_sha256", "seed", "workers", "corpus"):
            self.assertIn(key, manifest)
        self.assertEqual(set(manifest["corpus"]), {"bytes", "lines", "xid_lines", "jobs", "records", "sha256"})
        return res

    def test_every_workload_prints_every_metric_and_passes_its_checks(self):
        for wl in WORKLOADS:
            for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=wl, trace=trace):
                    res = self.check_printed(bench(wl, trace), units)
                    self.assertTrue(res["correct"])
                    self.assertEqual(res["failed"], 0)
                    self.assertGreater(res["attempted"], 1)
                    if trace == 0:
                        self.assertTrue(all(m["value"] > 0 for m in res["metrics"].values()))

    def test_traced_layers_follow_the_workload(self):
        m = {}
        for wl in WORKLOADS:
            res, _ = result(bench(wl, 1))
            m[wl] = {k: v["value"] for k, v in res["metrics"].items()}
        dense = m["dense-campaign"]
        times = {k: v for k, v in dense.items() if k.endswith("_s") and not k.startswith("trace.")}
        self.assertEqual(max(times, key=times.get), "logscan.extract_s")
        self.assertEqual(
            [m["store-replay"][k] for k in run.PER_LAYER if k.startswith("logscan.") and not k.endswith("_s")],
            [0] * 5,
        )
        self.assertGreater(m["store-replay"]["store.records_read"], 0)
        noisy = m["fleet-noisy"]
        self.assertLessEqual(noisy["logscan.xid_lines"], 0.05 * noisy["logscan.lines"])
        self.assertGreater(m["watch-drain"]["watch.episodes"], 0)
        self.assertEqual(m["watch-drain"]["watch.late_dropped"], 0)
        # Layers a workload does not reach are called on empty input: a
        # measured fixed cost, never a constant 0.
        for wl in WORKLOADS:
            for k, v in m[wl].items():
                if k.endswith("_s") and k != "trace.unattributed_s":
                    self.assertGreater(v, 0, f"{wl} {k}")

    def test_a_wrong_reference_digest_counts_as_failed(self):
        for wl in WORKLOADS:
            with self.subTest(workload=wl):
                p = bench(wl, 0, "--wrong-reference")
                self.assertEqual(p.returncode, 0, p.stderr[-3000:])
                res, _ = result(p)
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertIn("differs from the reference", p.stderr)

    def test_host_speed_probe_repeats_its_checksum(self):
        target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
        _, perfbench = run.build(target if target.is_absolute() else ROOT / target)
        outs = {
            threads: {
                subprocess.run([str(perfbench), "calib", "--threads", str(threads), "--rounds", "1"],
                               capture_output=True, text=True, check=True).stdout
                for _ in range(2)
            }
            for threads in (1, 2)
        }
        self.assertEqual([len(o) for o in outs.values()], [1, 1])
        self.assertNotEqual(outs[1], outs[2])

    def test_refuses_to_run_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=str(Path(tmp) / ".bench_build"))
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dense-campaign", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env,
            )
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()

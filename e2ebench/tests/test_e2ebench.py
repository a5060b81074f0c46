#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 e2ebench/tests/test_e2ebench.py

They build the benchmark (as e2ebench/run.py does) and run it, mostly in
its --tiny mode; the Fig. 1 / Fig. 2 reproduction check runs one full
dense-sweep pass (about ten seconds).
"""

import csv
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (e2ebench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BINARY = None


def bench(workload, *extra, seed=1):
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--tiny"] + list(extra),
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=ROOT)
    lines = proc.stdout.splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def printed_metrics(lines):
    """name -> value of the human-readable end-to-end lines."""
    start = lines.index("end-to-end:")
    out = {}
    for line in lines[start + 1:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("FAILED"):
            out[parts[0]] = parts[1]
    return out


def spans(lines):
    return int(next(l for l in lines if l.startswith("spans recorded:"))
               .split(":")[1])


class E2eBench(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        global BINARY
        os.chdir(ROOT)
        BINARY = run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_metric_names_and_sets(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layer = {m["name"] for m in self.spec["per_layer"]}
        for w in run.WORKLOADS:
            for trace, want in (("0", e2e), ("1", layer)):
                code, lines, res = bench(w, "--trace", trace)
                self.assertEqual(code, 0, w)
                self.assertTrue(res["correct"], w)
                self.assertEqual(set(res["metrics"]), want, (w, trace))
                for name, m in res["metrics"].items():
                    self.assertRegex(name, NAME)
                    self.assertRegex(m["unit"], UNIT)
                for name in printed_metrics(lines):
                    self.assertRegex(name, NAME)

    def test_untraced_run_records_no_spans(self):
        for w in run.WORKLOADS:
            _, lines, _ = bench(w, "--trace", "0")
            self.assertEqual(spans(lines), 0, w)
            _, lines, _ = bench(w, "--trace", "1")
            self.assertGreater(spans(lines), 0, w)

    def test_modeled_metrics_bit_identical(self):
        wall = {"setup_s", "wall_s", "peak_rss_mb"}
        for w in run.WORKLOADS:
            _, a_lines, a = bench(w, seed=7)
            _, b_lines, b = bench(w, seed=7)
            self.assertEqual(a["metrics"]["sim_s"], b["metrics"]["sim_s"], w)
            pa, pb = printed_metrics(a_lines), printed_metrics(b_lines)
            for name in pa:
                if name in wall:
                    continue
                self.assertEqual(pa[name], pb[name], (w, name))

    def test_held_out_seed(self):
        for w in run.WORKLOADS:
            code1, lines1, r1 = bench(w, seed=1)
            code2, lines2, r2 = bench(w, seed=982451653)
            self.assertEqual((code1, code2), (0, 0), w)
            self.assertEqual(set(r1["metrics"]), set(r2["metrics"]), w)
            self.assertEqual(set(printed_metrics(lines1)),
                             set(printed_metrics(lines2)), w)
            self.assertEqual(printed_metrics(lines2)["fail_frac"], "0", w)

    def test_tiny_workloads_finish_quickly(self):
        for w in run.WORKLOADS:
            proc = subprocess.run(
                [BINARY, "--workload", w, "--seconds", "0", "--tiny"],
                stdout=subprocess.DEVNULL, timeout=30, cwd=ROOT)
            self.assertEqual(proc.returncode, 0, w)

    def test_false_family_requests_are_counted_as_failures(self):
        # Whether a false family match ends at the iteration limit depends
        # on the instance; the tiny mix of seed 2 has two that do.
        code, lines, res = bench("service-mix", "--false-family", seed=2)
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertTrue(any("false-family" in l for l in lines))

    def test_dense_sweep_reproduces_fig1_fig2(self):
        proc = subprocess.run(
            [BINARY, "--workload", "dense-sweep", "--seed", "1",
             "--seconds", "0"],
            stdout=subprocess.PIPE, text=True, timeout=170, cwd=ROOT)
        self.assertEqual(proc.returncode, 0)
        lines = proc.stdout.splitlines()
        rows = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 7 and parts[0].isdigit():
                rows[int(parts[0])] = parts
        with open(os.path.join(ROOT, "bench_results",
                               "fig1_runtime_vs_size.csv")) as f:
            fig1 = {int(r["m=n"]): r for r in csv.DictReader(f)}
        for m in (256, 512, 1024):
            self.assertEqual(int(rows[m][1]), int(fig1[m]["iters"]), m)
            for col, key in ((2, "gpu revised [ms]"),
                             (4, "cpu revised [ms]"),
                             (5, "cpu tableau [ms]")):
                self.assertAlmostEqual(float(rows[m][col]),
                                       float(fig1[m][key]),
                                       delta=1e-4 * float(fig1[m][key]))
        printed = printed_metrics(lines)
        self.assertEqual(printed["crossover_m"], "512")
        self.assertAlmostEqual(float(printed["speedup_max"]), 2.14,
                               delta=0.005)


if __name__ == "__main__":
    unittest.main()

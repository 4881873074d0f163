#!/usr/bin/env python3
"""Smoke test of the repository benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

It builds the benchmark through run.py, then checks that:
  * a smoke-length run of every workload, traced and untraced, ends its
    output with the result line and reports every metric BENCHMARK.json
    names, with that metric's unit, and no failed operation;
  * the simulated values (DUT IPC, CPI stack, MPKI, sampled IPC error)
    repeat exactly across two runs of one seed, between the traced and
    the untraced run, and between 1 and 4 sampled workers or campaign
    threads.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
WORKLOADS = ("cosim", "sampled", "campaign")
SEED = 3


def setUpModule():
    sys.dont_write_bytecode = True
    sys.path.insert(0, HERE)
    import run
    run.build()


def run_py(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "0", "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True,
        timeout=900)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sim(workload, trace=0, workers=4):
    """The binary's simulated values for a one-round run."""
    proc = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(SEED), "--seconds",
         "0", "--trace", str(trace), "--workers", str(workers)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0, out["failures"]
    return out["sim"]


class Contract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    out = run_py(w, trace)
                    self.assertEqual(set(out),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {k: m["unit"] for k, m in out["metrics"].items()}
                    self.assertEqual(got, want)
                    if not trace:
                        for k, m in out["metrics"].items():
                            self.assertGreater(m["value"], 0, k)


class SimulatedValuesRepeat(unittest.TestCase):
    def test_sim_keys(self):
        s = sim("sampled")
        for k in ("dut.ipc", "sample.ipc_err_pct", "dut.cpi.retiring",
                  "dut.cpi.frontend", "dut.cpi.bad_spec",
                  "dut.cpi.backend_mem", "dut.cpi.backend_core"):
            self.assertIn(k, s)

    def test_two_runs_and_traced_untraced(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                first = sim(w)
                self.assertEqual(first, sim(w))
                self.assertEqual(first, sim(w, trace=1))

    def test_worker_count(self):
        for w in ("sampled", "campaign"):
            with self.subTest(workload=w):
                self.assertEqual(sim(w, workers=1), sim(w, workers=4))


if __name__ == "__main__":
    unittest.main(verbosity=2)

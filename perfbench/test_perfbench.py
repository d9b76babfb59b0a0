#!/usr/bin/env python3
"""The benchmark's own tests, on tiny sizes of every workload.

    python3 perfbench/test_perfbench.py        # from the repository root

Checks that every metric BENCHMARK.json names is printed with its unit, that
one seed run twice gives identical simulated figures and digest, that another
seed changes the digest, that a tampered output is counted as a failure, that
the traced run reports every per-layer metric and a loadable trace, and that
a checkout without the simulator's sources fails without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The ten end-to-end metrics every workload's full report carries.
ALL_END_TO_END = ["wall_s", "setup_s", "peak_rss_mb", "fail_frac",
                  "requests_per_s", "sim_cycles_per_s", "sim_cycles",
                  "sim_goodput_rps", "sim_p50_us", "sim_tail_us"]
SIM_METRICS = ["sim_cycles", "sim_goodput_rps", "sim_p50_us", "sim_tail_us"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace=0, tamper=False, cwd=ROOT, check=True):
    """Run the harness on a tiny workload; returns (full report, summary)."""
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--trace", str(trace), "--size", "tiny"]
    if tamper:
        command.append("--tamper")
    done = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if not check:
        return done
    if done.returncode != 0:
        raise AssertionError("%s failed:\n%s" % (command, done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    maxDiff = None

    def check_summary(self, summary, section):
        self.assertEqual(set(summary), {"correct", "attempted", "failed",
                                        "metrics"})
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in summary["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in summary["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report, summary = bench(workload, 1)
                self.check_summary(summary, "end_to_end")
                self.assertTrue(summary["correct"], report["problems"])
                self.assertGreaterEqual(summary["attempted"], 1)
                self.assertEqual(summary["failed"], 0)
                e2e = report["end_to_end"]
                self.assertEqual(set(e2e), set(ALL_END_TO_END))
                for name in ALL_END_TO_END:
                    self.assertTrue(e2e[name]["unit"], name)
                self.assertEqual(e2e["fail_frac"]["value"], 0)
                for name in ("wall_s", "setup_s", "peak_rss_mb",
                             "requests_per_s", "sim_cycles_per_s",
                             "sim_cycles"):
                    self.assertGreater(e2e[name]["value"], 0, name)
                serving = workload.startswith("serving")
                for name in ("sim_goodput_rps", "sim_p50_us", "sim_tail_us"):
                    self.assertEqual(e2e[name]["value"] is not None, serving,
                                     name)
                prov = report["provenance"]
                for key in ("compiler", "flags", "build_type", "sanitizer",
                            "nproc", "hardware_concurrency", "worker_threads",
                            "loadavg_start", "loadavg_end", "git_sha",
                            "git_dirty", "source_sha256"):
                    self.assertIn(key, prov)
                self.assertTrue(report["timing_valid"])

                again, _ = bench(workload, 1)
                self.assertEqual(again["digest"], report["digest"])
                for name in SIM_METRICS:
                    self.assertEqual(again["end_to_end"][name]["value"],
                                     e2e[name]["value"], name)

                other, _ = bench(workload, 2)
                self.assertNotEqual(other["digest"], report["digest"])

                tampered, tampered_summary = bench(workload, 1, tamper=True)
                self.assertFalse(tampered_summary["correct"])
                self.assertGreater(tampered_summary["failed"], 0)
                self.assertGreater(tampered["end_to_end"]["fail_frac"]["value"],
                                   0)

                traced, traced_summary = bench(workload, 1, trace=1)
                self.check_summary(traced_summary, "per_layer")
                self.assertTrue(traced_summary["correct"], traced["problems"])
                self.assertEqual(traced["digest"], report["digest"])
                for name in SIM_METRICS:
                    self.assertEqual(traced["end_to_end"][name]["value"],
                                     e2e[name]["value"], name)
                with open(os.path.join(ROOT, traced["trace_file"])) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(any(e["ph"] == "X" for e in events))
                self.check_layers(workload, traced["per_layer"])

    def check_layers(self, workload, layers):
        """The layers each workload exists to exercise report work."""
        value = {name: m["value"] for name, m in layers.items()}
        for name in ("graph.generate_s", "sim.cycles", "noc.flit_hops",
                     "dram.requests", "pe.tasks", "core.runs"):
            self.assertGreater(value[name], 0, name)
        if workload == "cluster_shard4":
            for name in ("cluster.chip_runs_s", "cluster.parallel_speedup",
                         "cluster.cut_edges", "cluster.halo_bytes"):
                self.assertGreater(value[name], 0, name)
            self.assertLess(value["cluster.replay_frac"], 1)
        if workload.startswith("serving"):
            for name in ("serving.run_s", "serving.generated",
                         "cluster.dispatches"):
                self.assertGreater(value[name], 0, name)
        if workload == "serving_burst":
            self.assertGreater(value["cluster.cache_hit_frac"], 0.9)
        if workload == "serving_dynamic":
            self.assertLess(value["cluster.cache_hit_frac"], 0.5)
            for name in ("workload.generate_s", "workload.mutations",
                         "workload.queries"):
                self.assertGreater(value[name], 0, name)

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("chip_zoo", 1, cwd=bare, check=False)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()

#!/usr/bin/env python3
"""Compare the perf harness's simulated-statistics digests with the committed
golden values in tests/data/perfbench_digests.json.

    python3 scripts/check_digests.py                 # tiny sizes, every seed
    python3 scripts/check_digests.py --size full     # the full-size runs too
    python3 scripts/check_digests.py --write         # regenerate the file

Run from anywhere; paths resolve from the repository root. Each check runs
`python3 perfbench/run.py --workload <w> --seed <s> --seconds 0 --size <size>`
and compares the run's digest, sim_cycles and fail_frac with the file. A
digest names every simulated statistic of a run, so a speed-only change must
leave all of them unchanged; a change that means to move the model
regenerates the file with --write and says why.

Floating-point results may differ between compilers, so a mismatch under a
compiler other than the one that wrote the file is reported but does not
fail. Exit status: 0 when every compared run matches (or the compiler
differs), 1 on a mismatch, 2 when a run fails.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "data", "perfbench_digests.json")
SEEDS = (1, 7)
SIZES = ("tiny", "full")


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(workload, seed, size):
    """One harness run; returns its full report."""
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--size", size]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-3000:])
        print("check_digests: %s failed" % " ".join(command[1:]),
              file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-2])


def entry(report):
    e2e = report["end_to_end"]
    return {"workload": report["workload"], "seed": report["seed"],
            "size": report["size"], "digest": report["digest"],
            "sim_cycles": e2e["sim_cycles"]["value"],
            "fail_frac": e2e["fail_frac"]["value"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", choices=["tiny", "full", "all"],
                        default="tiny", help="which committed runs to check")
    parser.add_argument("--write", action="store_true",
                        help="run tiny and full sizes and rewrite the file")
    args = parser.parse_args()

    if args.write:
        runs, compiler = [], None
        for workload in workloads():
            for size in SIZES:
                for seed in SEEDS:
                    report = run(workload, seed, size)
                    compiler = report["provenance"]["compiler"]
                    runs.append(entry(report))
                    print("%-16s %-4s seed %d  %s" % (workload, size, seed,
                                                      report["digest"]))
        with open(GOLDEN, "w") as f:
            json.dump({"schema": "aurora.perfbench_digests.v1",
                       "compiler": compiler, "runs": runs}, f, indent=2)
            f.write("\n")
        print("wrote " + os.path.relpath(GOLDEN, ROOT))
        return

    with open(GOLDEN) as f:
        golden = json.load(f)
    sizes = SIZES if args.size == "all" else (args.size,)
    mismatches, compiler = 0, None
    for want in golden["runs"]:
        if want["size"] not in sizes:
            continue
        report = run(want["workload"], want["seed"], want["size"])
        compiler = report["provenance"]["compiler"]
        got = entry(report)
        diff = [key for key in ("digest", "sim_cycles", "fail_frac")
                if got[key] != want[key]]
        status = "ok" if not diff else "MISMATCH " + ", ".join(
            "%s %s != %s" % (key, got[key], want[key]) for key in diff)
        print("%-16s %-4s seed %d  %s  %s" % (want["workload"], want["size"],
                                              want["seed"], got["digest"],
                                              status))
        mismatches += bool(diff)
    if not mismatches:
        print("check_digests: all runs match")
        return
    if compiler != golden["compiler"]:
        print("check_digests: %d run(s) differ, but the digests were written "
              "by %s and this build uses %s; not failing"
              % (mismatches, golden["compiler"], compiler))
        return
    print("check_digests: %d run(s) differ from %s"
          % (mismatches, os.path.relpath(GOLDEN, ROOT)))
    sys.exit(1)


if __name__ == "__main__":
    main()

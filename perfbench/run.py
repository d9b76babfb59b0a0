#!/usr/bin/env python3
"""Aurora simulator perf harness: build from source, run one workload, report.

    python3 perfbench/run.py --workload chip_zoo --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
simulator's libraries and the `perfbench` binary into .bench_build/ (an
optimised RelWithDebInfo build, never a sanitizer build); later runs only
re-check that build. The binary's full report (provenance, every metric with
its unit, clock and notes, the simulated-statistics digest) is printed as one
JSON line, and the last stdout line is the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are BENCHMARK.json's end_to_end list, or its per_layer list
with --trace 1. A missing source tree, a failed build, a failed run or a
metric missing from the binary's report exits non-zero without a summary.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; this leaves room for start-up and the build
# check.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure once, then let the build tool re-check every source."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                      "-j", str(cpus())])
        # Keep the compiler's temporary files inside the checkout too.
        tmp = os.path.join(BUILD_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True, env=env)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build step failed: " + " ".join(step))


def git_provenance():
    """Commit and dirty flag when the tree is a git checkout, else nulls.
    Git is not asked at all outside one, so it never searches the parent
    directories."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
        if sha.returncode != 0 or status.returncode != 0:
            return None, None
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None, None


def source_digest():
    """sha256 over the simulator's and the benchmark's source files, so a
    result names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def summary(report, spec, trace):
    """The contract's last line: exactly the metrics BENCHMARK.json lists."""
    section = "per_layer" if trace else "end_to_end"
    measured = report.get(section, {})
    metrics = {}
    for entry in spec[section]:
        m = measured.get(entry["name"])
        if m is None:
            fail("perfbench did not report %s metric %s" % (section, entry["name"]), 3)
        if m["unit"] != entry["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (entry["name"], m["unit"], entry["unit"]), 3)
        if m["value"] is None:
            fail("metric %s has no valid value: %s"
                 % (entry["name"], report.get("timing_invalid_reason") or
                    "not defined on this workload"), 3)
        metrics[entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload BENCHMARK.json names")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the benchmark's own tests")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one output before the checks (tests)")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (spec_path, e))

    started = time.monotonic()
    build()
    sha, dirty = git_provenance()
    command = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
               "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
               "--size=" + args.size]
    if args.tamper:
        command.append("--tamper")
    trace_out = None
    if args.trace:
        trace_out = os.path.join(ROOT, ".bench_build", "traces",
                                 "%s-%d.json" % (args.workload, args.seed))
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        command.append("--trace-out=" + trace_out)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("perfbench exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no report", 3)

    prov = report["provenance"]
    prov["git_sha"] = sha
    prov["git_dirty"] = dirty
    prov["source_sha256"] = source_digest()
    prov["harness_seconds"] = round(time.monotonic() - started, 3)
    if trace_out:
        report["trace_file"] = os.path.relpath(trace_out, ROOT)
        print("host-span trace: " + report["trace_file"], file=sys.stderr)
    result = summary(report, spec, args.trace)
    print(json.dumps(report))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

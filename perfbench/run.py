#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the measuring program (perfbench/maskbench.cc against ../src) in
an optimized build, then runs one workload and prints, as the last line
of stdout, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json; with --trace 1 they are the per-layer metrics.

    python3 perfbench/run.py --workload hotloop --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the repository root. Build outputs and scratch files go to
$CARGO_TARGET_DIR (default .bench_build) under the current directory.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("hotloop", "fig11", "persist")
SETUP_PROBES = 11
RUN_DEADLINE_S = 170.0
BUILD_DEADLINE_S = 850.0

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def log(msg):
    print("[run.py] " + msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure and build maskbench; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_DEADLINE_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed: %s" % err)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log("build step failed: " + " ".join(cmd))
            return None
    binary = os.path.join(out, "maskbench")
    return binary if os.path.exists(binary) else None


def metric_spec():
    """End-to-end and per-layer metric names/units from BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def provenance(build_info):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], text=True,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        rev = "none"
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_rev": rev,
        "source_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": build_info.get("compiler"),
        "build_type": build_info.get("build_type"),
        "workers": build_info.get("workers"),
    }


def setup_seconds(binary, args):
    """Process start to first simulated cycle, median of several launches.

    The probe prints its CLOCK_MONOTONIC instant on reaching the first
    cycle; time.monotonic_ns reads the same clock here.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic_ns()
        proc = subprocess.run([binary, "--workload", args.workload,
                               "--seed", str(args.seed), "--probe-setup"],
                              stdout=subprocess.PIPE, text=True, timeout=60)
        if proc.returncode != 0:
            return None
        for line in proc.stdout.splitlines():
            if line.startswith("first_cycle_ns "):
                samples.append((int(line.split()[1]) - t0) / 1e9)
    return statistics.median(samples) if len(samples) == SETUP_PROBES else None


def run_workload(binary, args, deadline):
    """Run one workload; returns the result object or None on failure."""
    e2e, per_layer = metric_spec()
    wanted = per_layer if args.trace else e2e

    setup = None
    if not args.trace:
        setup = setup_seconds(binary, args)
        if setup is None:
            log("setup probe failed")
            return None

    workdir = os.path.join(build_dir(), "run-%s-%d" % (args.workload,
                                                      os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("%s exceeded its deadline" % args.workload)
        return None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("maskbench exited with %d" % proc.returncode)
        return None
    info = json.loads(lines[-1])
    produced = info["metrics"]
    if setup is not None:
        produced["setup_s"] = {"value": setup, "unit": "s"}

    metrics = {}
    for name, unit in wanted.items():
        m = produced.get(name)
        if m is None or m["unit"] != unit or not math.isfinite(m["value"]):
            log("metric %s missing or malformed: %r" % (name, m))
            return None
        metrics[name] = {"value": m["value"], "unit": unit}
    extra = sorted(set(produced) - set(wanted))
    if extra:
        log("metrics not named in BENCHMARK.json: %s" % ", ".join(extra))
        return None

    print(json.dumps({"workload": args.workload,
                      "digest": info["digest"],
                      "passes": info["passes"],
                      "provenance": provenance(info)}))
    return {"correct": info["failed"] == 0,
            "attempted": int(info["attempted"]),
            "failed": int(info["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny simulation windows (self-test only)")
    args = parser.parse_args()
    start = time.monotonic()

    binary = build()
    if binary is None:
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        args.workload = workload
        # A first build may take long; the measurement keeps its own
        # deadline so a run never exceeds it once built.
        deadline = max(start, time.monotonic() - 5.0) + RUN_DEADLINE_S
        result = run_workload(binary, args, deadline)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

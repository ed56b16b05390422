#!/usr/bin/env python3
"""Self-test of the repository benchmark in tiny-window mode.

For every workload it runs perfbench/run.py untraced and traced with
seed 1, and untraced with seed 2, then checks that:

  * every metric named in BENCHMARK.json for that mode is emitted
    exactly once, with its unit and a finite value, and no other;
  * end-to-end metrics are never zero;
  * every run reports correct=true, failed=0 and attempted >= 1;
  * the second seed changes the simulated-output digest.

    python3 perfbench/selftest.py          # from the repository root

Exits 0 when every check passes.
"""

import json
import math
import subprocess
import sys

WORKLOADS = ("hotloop", "fig11", "persist")


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    dupes = sorted({k for k in keys if keys.count(k) > 1})
    if dupes:
        raise ValueError("duplicate keys: " + ", ".join(dupes))
    return dict(pairs)


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError("%s exited %d" % (" ".join(cmd),
                                             proc.returncode))
    info = json.loads(lines[-2], object_pairs_hook=no_duplicates)
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    return info, result


def check(workload, seed, trace, spec, errors):
    where = "%s seed=%d trace=%d" % (workload, seed, trace)
    try:
        info, result = run(workload, seed, trace)
    except (RuntimeError, ValueError) as err:
        errors.append("%s: %s" % (where, err))
        return None
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append("%s: result keys %s" % (where, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0:
        errors.append("%s: checks failed (%r)" % (where, result))
    if result.get("attempted", 0) < 1:
        errors.append("%s: nothing attempted" % where)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        errors.append("%s: metric names differ from BENCHMARK.json: "
                      "missing %s, extra %s" % (
                          where, sorted(set(names) - set(metrics)),
                          sorted(set(metrics) - set(names))))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            errors.append("%s: %s unit %r, want %r" % (
                where, m["name"], got.get("unit"), m["unit"]))
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s: %s value %r" % (where, m["name"], value))
        elif not trace and value == 0:
            errors.append("%s: end-to-end %s is zero" % (where, m["name"]))
    return info["digest"]


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []
    for workload in WORKLOADS:
        first = check(workload, 1, 0, spec, errors)
        check(workload, 1, 1, spec, errors)
        second = check(workload, 2, 0, spec, errors)
        if first is not None and first == second:
            errors.append("%s: seed 2 left the digest unchanged" % workload)
        print("selftest %s: digests %s / %s" % (workload, first, second),
              flush=True)
    for e in errors:
        print("FAIL " + e)
    print("selftest: %s" % ("ok" if not errors else
                            "%d failure(s)" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

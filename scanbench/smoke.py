#!/usr/bin/env python3
"""Smoke check for the scan benchmark itself.

    python3 scanbench/smoke.py

Runs every workload named in BENCHMARK.json at minimal size, once with
--trace 0 and once with --trace 1, and fails unless each run passes its
correctness gate and prints exactly the metrics BENCHMARK.json names for
that mode, each with its declared unit and a finite value.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(workload, trace, expected):
    cmd = [sys.executable, os.path.join(ROOT, "scanbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0.5",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=300)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return [f"{where}: no output"]
    result = json.loads(lines[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correctness gate failed")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (isinstance(attempted, int) and attempted >= 1):
        errors.append(f"{where}: attempted={attempted!r}")
    if not (isinstance(failed, int) and 0 <= failed <= (attempted or 0)):
        errors.append(f"{where}: failed={failed!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r} != {unit!r}")
        value = m.get("value")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            errors.append(f"{where}: {name} value {value!r} is not finite")
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in modes.items():
            errors += check_run(workload, trace, expected)
            print(f"smoke: {workload} --trace {trace} done", file=sys.stderr)
    for e in errors:
        print(f"smoke: FAIL {e}", file=sys.stderr)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()

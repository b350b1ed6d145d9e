#!/usr/bin/env python3
"""Self-test of the EventMP benchmark.

    python3 perfbench/selftest.py [--seconds 2]

Runs a short smoke of every workload in BENCHMARK.json through run.py,
untraced and traced, and checks for each run that:
  * the last line of its output is the result object, with every metric
    BENCHMARK.json declares for that mode (end-to-end or per-layer) and
    the declared unit, and nothing else;
  * every end-to-end value is a positive finite number;
  * verification passed: correct is true, failed is 0 and the exit code 0;
  * the result file records the seed and the provenance.
Exits 0 when every run passes.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check_run(spec, workload, trace, seconds, seed):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    errors = []
    if proc.returncode != 0:
        errors.append(f"exit code {proc.returncode}")
    try:
        result = json.loads(proc.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        return errors + ["last line is not a JSON object"], proc
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append("verification failed")
    if result.get("failed") != 0:
        errors.append(f"failed = {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted = {result.get('attempted')}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        errors.append(f"metric names differ: missing "
                      f"{sorted(set(want) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append(f"{name}: unit {m.get('unit')} != {unit}")
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            errors.append(f"{name}: value {v!r}")
        elif not trace and v <= 0:
            errors.append(f"{name}: end-to-end value {v} is not positive")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    path = ((target if target.is_absolute() else ROOT / target) / "perfbench"
            / "results" / f"{workload}-seed{seed}-trace{trace}.json")
    if not path.is_file():
        errors.append(f"result file {path} not written")
    else:
        record = json.loads(path.read_text())
        if record.get("seed") != seed or "provenance" not in record:
            errors.append("result file lacks seed or provenance")
        if "provenance.cpu_model" not in record.get("info", {}):
            errors.append("result file lacks the host description")
    return errors, proc


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=2.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors, proc = check_run(spec, w["name"], trace, args.seconds,
                                     args.seed)
            status = "ok" if not errors else "FAIL"
            print(f"{status:4} {w['name']:10} trace={trace}", flush=True)
            for e in errors:
                print("     ", e)
            if errors:
                failures += 1
                sys.stdout.write(proc.stdout[-2000:])
                sys.stdout.write(proc.stderr[-2000:])
    print("selftest:",
          "passed" if failures == 0 else f"{failures} run(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

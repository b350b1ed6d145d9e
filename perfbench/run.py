#!/usr/bin/env python3
"""EventMP benchmark: build, run and check one workload.

    python3 perfbench/run.py --workload echo|edt|dispatch --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (and the EventMP
libraries it links) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs one workload and checks its outputs. Prints
the program's report, then as its last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics named in
BENCHMARK.json when --trace 0, the per-layer metrics when --trace 1. A
per-layer metric the workload does not exercise reports 0.

The full result (every metric, sample counts, stage tables, host noise and
provenance) is written to <build>/results/<workload>-seed<N>-trace<T>.json,
and a traced run also writes its spans next to it as .spans.tsv.

Exit codes: 0 verified, 1 a check failed, 2 bad arguments, 3 the sources
or the build are missing.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
# Runnable on request but not listed in BENCHMARK.json: `dispatch` stalls
# on a known runtime defect (METHOD.md, "Known defect") and reports it.
DIAGNOSTIC_WORKLOADS = ("dispatch",)


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout need
    not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        paths = [base] if base.is_file() else sorted(
            p for p in base.rglob("*") if p.is_file())
        for p in paths:
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "evmp_perfbench", "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        log("perfbench: BENCHMARK.json not found at", spec_path)
        return 3
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    workloads += list(DIAGNOSTIC_WORKLOADS)
    if args.workload not in workloads:
        log("perfbench: unknown workload", args.workload, "- expected one of",
            workloads)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        log("perfbench: --seconds must be positive and --seed non-negative")
        return 2
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: EventMP sources (src/) not found under", ROOT)
        return 3

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    t_build = time.monotonic()
    if not build(build_dir):
        log("perfbench: build failed")
        return 3
    build_s = time.monotonic() - t_build
    binary = build_dir / "evmp_perfbench"

    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(results / f"{stem}.spans.tsv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("perfbench: program printed no result (exit code",
            proc.returncode, ")")
        sys.stdout.write(proc.stdout)
        return 1
    report = lines[:-1]

    # Every declared metric, with its declared unit.
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = full["metrics"]
    metrics = {}
    problems = list(full.get("failures", []))
    for m in declared:
        name, unit = m["name"], m["unit"]
        got = measured.get(name)
        if got is None:
            if args.trace:
                metrics[name] = {"value": 0.0, "unit": unit}
                continue
            problems.append(f"metric {name} missing")
            continue
        if got["unit"] != unit:
            problems.append(f"metric {name} has unit {got['unit']}, "
                            f"BENCHMARK.json says {unit}")
        value = got["value"]
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
            value = 0.0
        elif not args.trace and value <= 0:
            problems.append(f"metric {name} is {value}, expected > 0")
        metrics[name] = {"value": value, "unit": unit}

    correct = (bool(full.get("correct")) and proc.returncode == 0
               and not problems)
    attempted = int(full.get("attempted", 0))
    failed = int(full.get("failed", 0))
    if attempted < 1:
        correct = False
        attempted = max(attempted, 1)
        problems.append("no operation attempted")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "problems": problems,
        "metrics": measured,
        "info": full.get("info", {}),
        "provenance": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "build_dir": str(build_dir.relative_to(ROOT))
            if build_dir.is_relative_to(ROOT) else str(build_dir),
            "build_s": build_s,
        },
    }
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for line in report:
        print(line)
    print(f"fail_frac: {failed / attempted:.6g} ({failed} of {attempted})")
    for p in problems:
        print("problem:", p)
    print(f"result file: {results / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

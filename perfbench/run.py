#!/usr/bin/env python3
"""Repository benchmark: build halosim from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator libraries
plus the perfbench driver) with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the workload, checks the report
against BENCHMARK.json and prints, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are the end-to-end metrics, with --trace 1 the per-layer ones
(a per-layer metric a workload does not exercise reads 0).

Every result is stamped with its provenance (nproc, dispatched ISA,
compiler, build type, commit or source digest) on the detail line and in
the run history; a run whose stamp differs from the previous run of the
same workload is flagged on stderr, since its numbers do not compare.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the simulator and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def load_benchmark():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path} not found")
    bench = json.loads(path.read_text())
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for name in names:
        if not NAME_RE.match(name):
            fail(f"self-check: bad metric name {name!r} in BENCHMARK.json")
    unmapped = {m["name"] for m in bench["per_layer"]} - set(layer_map["metrics"])
    if unmapped:
        fail(f"self-check: per-layer metrics without a layer map: {sorted(unmapped)}")
    return bench


def check_metrics(report, expected, trace):
    """The report must carry exactly the metric set of its mode, with the
    declared units; end-to-end values must be finite and nonzero."""
    units = {m["name"]: m["unit"] for m in expected}
    metrics = report["metrics"]
    for name, m in metrics.items():
        if not NAME_RE.match(name):
            fail(f"self-check: bad metric name {name!r}")
        if name not in units:
            fail(f"self-check: metric {name!r} is not declared in BENCHMARK.json")
        if m["unit"] != units[name]:
            fail(f"self-check: {name} has unit {m['unit']!r}, "
                 f"BENCHMARK.json says {units[name]!r}")
    out = {}
    for name, unit in units.items():
        if name in metrics:
            value = metrics[name]["value"]
        elif trace:
            value = 0  # layer not exercised by this workload
        else:
            fail(f"self-check: end-to-end metric {name} missing")
        if not trace and not (value > 0 and value < float("inf")):
            fail(f"self-check: end-to-end metric {name} = {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def flag_provenance(history_path, record):
    """Append the record; flag (not gate) a stamp change against the
    previous run of the same workload and mode."""
    previous = None
    if history_path.exists():
        for line in history_path.read_text().splitlines():
            try:
                r = json.loads(line)
            except json.JSONDecodeError:
                continue
            if r.get("workload") == record["workload"] and r.get("trace") == record["trace"]:
                previous = r
    if previous is not None and previous.get("stamp") != record["stamp"]:
        diff = {k: [previous["stamp"].get(k), v] for k, v in record["stamp"].items()
                if previous["stamp"].get(k) != v}
        print(f"perfbench: note: provenance differs from the previous "
              f"{record['workload']} run {diff}; comparison flagged, not gated",
              file=sys.stderr)
    with history_path.open("a") as f:
        f.write(json.dumps(record) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r} (one of {workloads})")

    out_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(out_dir / "perfbench")
    env = dict(os.environ, PERFBENCH_WORK_DIR=str(out_dir / "perfbench-work"))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(BENCH_DIR / "data")]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {result.returncode}")
    report = json.loads(lines[-1])

    expected = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = check_metrics(report, expected, args.trace)
    stamp = dict(report["provenance"], commit=commit(), source=source_digest())
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "stamp": stamp, "correct": report["correct"],
              "failures": report["failures"], "details": report["details"],
              "metrics": {k: v["value"] for k, v in metrics.items()}}
    flag_provenance(out_dir / "perfbench-history.jsonl", record)
    print("perfbench-detail: " + json.dumps(
        {k: record[k] for k in ("stamp", "failures", "details")}))
    for failure in report["failures"]:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the dpsp serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
dpsp libraries and the benchmark binary from source (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build); later runs only re-check the
build. Stdout carries the derived seeds and a summary; its last line is the
result object, whose metric names are checked against BENCHMARK.json. A traced
run also leaves its spans in <build dir>/perfbench/traces/<workload>.jsonl.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("hld-bulk", "small-batch", "update-replicated")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail("no dpsp sources here; run from the root of a checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "dpsp_perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "dpsp_perfbench")


def expected_metrics(root, trace):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    expected = expected_metrics(root, args.trace)
    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    work_dir = os.path.join(build_dir, "runs",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    spans = os.path.join(work_dir, "spans.jsonl")
    if args.trace and os.path.isfile(spans):
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        # One file per workload, the latest traced run's: a closed-loop
        # small-batch run records about a million spans.
        shutil.move(spans, os.path.join(traces, f"{args.workload}.jsonl"))
    shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result line")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got)}, "
             f"expected {sorted(expected)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()

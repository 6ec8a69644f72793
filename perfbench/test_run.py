#!/usr/bin/env python3
"""Self-test of the serving benchmark: validates BENCHMARK.json and makes a
short run of every workload, untraced and traced, checking the result line.

    python3 perfbench/test_run.py [--seconds 2]

Run from the root of a checkout (it builds through perfbench/run.py). Exits
non-zero on the first violation.
"""

import argparse
import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
METRIC_KEYS = {"name", "unit", "better"}


def check(condition, message):
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def validate_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= len(spec["paths"]) <= 16, "paths count")
    for path in spec["paths"]:
        check(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", path)
              and not path.startswith("/") and ".." not in path.split("/"),
              f"path {path!r}")
    check(1 <= len(spec["command"]) <= 32
          and all(len(a) <= 200 for a in spec["command"]), "command")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(NAME.match(w["name"]), f"workload name {w['name']!r}")
        check(0 < len(w["why"]) <= 200 and "\n" not in w["why"],
              f"why of {w['name']}")
    check(1 <= len(spec["end_to_end"]) <= 16, "end_to_end count")
    check(1 <= len(spec["per_layer"]) <= 128, "per_layer count")
    for m in spec["end_to_end"]:
        check(set(m) == METRIC_KEYS | {"bound"}, f"metric keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == METRIC_KEYS, f"metric keys {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]), f"metric name {m['name']!r}")
        check(UNIT.match(m["unit"]), f"unit of {m['name']}")
        check(m["better"] in ("higher", "lower"), f"better of {m['name']}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower", "setup_s metric")
    check(setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s has the largest bound")
    check(len(json.dumps(spec)) <= 64 * 1024, "file size")


def check_run(spec, workload, trace, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    label = f"{workload} trace={trace}"
    check(proc.returncode == 0, f"{label}: exit {proc.returncode}\n"
          f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys")
    check(result["correct"] is True, f"{label}: correctness checks")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{label}: attempted")
    check(result["failed"] == 0, f"{label}: {result['failed']} failed")
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{label}: metric names")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"}, f"{label}: {m['name']} keys")
        check(got["unit"] == m["unit"], f"{label}: unit of {m['name']}")
        check(isinstance(got["value"], (int, float)),
              f"{label}: value of {m['name']}")
        if not trace:
            check(got["value"] > 0, f"{label}: {m['name']} is 0")
    print(f"ok: {label}, {result['attempted']} operations")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    validate_spec(spec)
    print("ok: BENCHMARK.json")
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace, args.seconds)


if __name__ == "__main__":
    main()

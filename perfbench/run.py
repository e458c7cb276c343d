#!/usr/bin/env python3
"""Builds and runs the hydra-aa benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The C++ program hydra_perfbench is built from
source into .bench_build/perfbench on every call (a no-op when nothing
changed) and run for one workload. Its result line is checked against
BENCHMARK.json: the metrics must be exactly the end_to_end ones (--trace 0)
or the per_layer ones (--trace 1), with the declared units. The last line of
standard output is that JSON result. Exit status: that of hydra_perfbench
(0 ok, 1 an output check failed), or 2 when the build, the run or the result
check fails, with no result line.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench" / "hydra_perfbench"
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open(ROOT / "BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no library sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BINARY.parent),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BINARY.parent), "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))


def check_result(result, expected):
    """Returns the problems with a hydra_perfbench result; `expected` maps each
    metric name that must be present to its unit."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys must be exactly {sorted(RESULT_KEYS)}"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(expected) - set(metrics)):
        problems.append(f"metric {name} is missing")
    for name in sorted(set(metrics) - set(expected)):
        problems.append(f"metric {name} is not declared in BENCHMARK.json")
    for name in sorted(set(expected) & set(metrics)):
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append(f"metric {name} must have exactly value and unit")
            continue
        if m["unit"] != expected[name]:
            problems.append(f"metric {name} has unit {m['unit']}, declared {expected[name]}")
        value = m["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
    return problems


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def run_binary(workload, seed, seconds, trace):
    """Runs the built hydra_perfbench; returns (exit code, stdout lines)."""
    work = BUILD / "work" / workload
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work),
           "--spans-out", str(work / f"spans-s{seed}-t{trace}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def benchmark(args):
    spec = load_spec()
    build()
    code, lines = run_binary(args.workload, args.seed, args.seconds, args.trace)
    result = parse_result(lines)
    if code not in (0, 1) or result is None:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"hydra_perfbench exited {code} without a result line")
    problems = check_result(result, expected_metrics(spec, args.trace))
    print("\n".join(lines[:-1]))
    if problems:
        fail("result check failed: " + "; ".join(problems))
    print(lines[-1])
    return code


def self_test():
    """The benchmark's own checks: the result check rejects a result that
    misses a metric, and specs the oracle must reject, on validity and on
    liveness, fail the run."""
    spec = load_spec()
    ok = True

    def expect(cond, what):
        nonlocal ok
        print(("ok   " if cond else "FAIL ") + what)
        ok = ok and cond

    e2e = expected_metrics(spec, 0)
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {name: {"value": 1.5, "unit": unit} for name, unit in e2e.items()}}
    expect(not check_result(good, e2e), "a complete result passes the result check")
    for name in e2e:
        partial = json.loads(json.dumps(good))
        del partial["metrics"][name]
        expect(bool(check_result(partial, e2e)), f"a result without {name} is rejected")
    wrong_unit = json.loads(json.dumps(good))
    next(iter(wrong_unit["metrics"].values()))["unit"] = "furlongs"
    expect(bool(check_result(wrong_unit, e2e)), "a metric with another unit is rejected")

    build()
    # Outliers beyond ts: every party decides, on outputs the oracle rejects.
    # Silent parties beyond ts: no honest party can decide.
    for workload, what in (("selftest-over-ts", "the over-threshold outlier run"),
                           ("selftest-silent-over-ts", "the over-threshold silent run")):
        code, lines = run_binary(workload, 1, 1, 1)
        result = parse_result(lines)
        expect(result is not None and not check_result(result, expected_metrics(spec, 1)),
               f"{what} prints a well-formed result")
        if result is None or "metrics" not in result:
            continue
        fail_ratio = result["metrics"].get("fail_ratio", {}).get("value", 0)
        expect(code == 1, f"{what} exits 1")
        expect(result.get("correct") is False, f"{what} is not correct")
        expect(fail_ratio > 0, f"{what} has fail_ratio {fail_ratio} > 0")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", args.workload) or ".." in args.workload:
        parser.error(f"--workload {args.workload!r} is not a workload name")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())

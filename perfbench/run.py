#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The Rust package next to this file is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build), then
run with the same arguments. Its output is passed through once the last
line has been checked against BENCHMARK.json: the keys of the result
object, and the metric names and units of the chosen mode. The exit code
is the benchmark's, or 1 when the build, the run or that check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def command_output(argv, cwd=None):
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def git_revision():
    top = command_output(["git", "rev-parse", "--show-toplevel"], cwd=ROOT)
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return command_output(["git", "rev-parse", "HEAD"], cwd=ROOT) or "unknown"


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not a JSON result"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        return f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", default=0, type=int, choices=[0, 1])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if built.returncode != 0:
        fail("build failed")

    env["PERFBENCH_RUSTC"] = command_output(["rustc", "-V"]) or "unknown"
    env["PERFBENCH_GIT_REV"] = git_revision()
    run = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--trace-dir", os.path.join(target, "perfbench-traces"),
    ]
    try:
        done = subprocess.run(run, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run did not finish: {e}")
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    problem = check_result(lines[-1], args.trace == 1)
    if problem is not None:
        sys.stderr.write(done.stdout)
        fail(problem)
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 10 --trace 0

The first run configures and compiles perfbench/ (which compiles src/)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later
runs only re-check the build. The benchmark's checker test runs after
every build. The last line of standard output is the benchmark's JSON
result; the exit code is non-zero if the build failed, the checker test
failed, or any answer was wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lookup", "similarity", "refresh")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
                      "perfbench", "perfbench_checker_test"]):
        return False
    return run_quiet([os.path.join(build_dir, "perfbench_checker_test")])


def source_fingerprint():
    """git sha when the checkout is a repository, and a digest of the
    sources the benchmark compiles either way."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "none"
    except (OSError, subprocess.TimeoutExpired):
        sha = "none"
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"git_sha": sha, "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ tree next to perfbench/; nothing to build")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        log("perfbench: build or checker test failed")
        return 1

    run_dir = os.path.join(build_dir, "runs", "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", run_dir]
    try:
        result = subprocess.run(cmd, capture_output=True, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(result.stderr)
    lines = result.stdout.splitlines()
    if result.returncode not in (0, 1) or not lines:
        sys.stdout.write(result.stdout)
        log("perfbench: run failed with code %d" % result.returncode)
        return 1

    try:
        parsed = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(result.stdout)
        log("perfbench: the run printed no result")
        return 1
    source = source_fingerprint()
    record = {"source": source, "detail": lines[:-1], "result": parsed}
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)
    for line in lines[:-1]:
        print(line)
    print("source %s" % json.dumps(source))
    print(lines[-1], flush=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())

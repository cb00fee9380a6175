#!/usr/bin/env python3
"""Build and run the powai benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload benign_steady --seed 1 --seconds 10 --trace 0

--workload all runs every workload of BENCHMARK.json in turn. The first
call configures and builds perfbench/CMakeLists.txt (the powai library
from src/ plus the benchmark program) in .bench_build/perfbench; later
calls reuse that build. Any further arguments (--smoke,
--setup-reps N, --plant-corrupt K) are passed to the program unchanged.
The program's standard output is forwarded; its last line is the JSON
result. The exit code is the program's: 0 only when every correctness
check passed.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "powai_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full source checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = [["cmake", "--build", BUILD, "-j", "4"]]
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                             "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            except OSError as exc:
                fail(f"cannot run {step[0]}: {exc}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = parser.parse_known_args()

    build()
    workloads = [args.workload]
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    commit = source_id()
    status = 0
    for workload in workloads:
        command = [BINARY, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--commit", commit] + extra
        if args.trace == 1:
            spans_dir = os.path.join(ROOT, ".bench_build", "spans")
            os.makedirs(spans_dir, exist_ok=True)
            command += ["--spans", os.path.join(
                spans_dir, f"{workload}-seed{args.seed}.jsonl")]
        sys.stdout.flush()
        try:
            done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()

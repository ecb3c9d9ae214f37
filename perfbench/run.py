#!/usr/bin/env python3
"""Replay benchmark of the online scheduler.

Builds the library sources and the benchmark program (CMakeLists.txt in
this directory) into .bench_build/perfbench under the checkout root, or
under $CARGO_TARGET_DIR when set, then runs one workload:

    python3 perfbench/run.py --workload steady_pairs --seed 1 \\
        --seconds 25 --trace 0

The last line of standard output is the JSON result (see main.cpp).
With --trace 1 the spans of the traced run are written to
<build dir>/spans-<workload>-<seed>.json. Exits non-zero when the build
fails (printing no result) and when the run fails or an output check
does (printing "correct": false).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_JOBS = min(4, os.cpu_count() or 1)


def build_dir() -> pathlib.Path:
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(directory: pathlib.Path) -> pathlib.Path:
    """Configures (once) and builds the benchmark; returns its path."""
    steps = []
    if not (directory / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(directory),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(directory), "--target", "perfbench",
                  "-j", str(BUILD_JOBS)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return directory / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans",
                    str(directory / f"spans-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=170, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: the run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        print("perfbench: the run printed nothing", file=sys.stderr)
        return run.returncode or 1
    print(lines[-1])
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        print("perfbench: the run printed no result", file=sys.stderr)
        return run.returncode or 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())

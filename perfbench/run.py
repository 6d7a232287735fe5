#!/usr/bin/env python3
"""Build and run the hdham end-to-end serve benchmark.

    python3 perfbench/run.py --workload classify_text|search_large|topk_update|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds hdham_server and the perfbench
binary from this source tree into $CARGO_TARGET_DIR (default
.bench_build), then runs it; its last stdout line is the
result JSON. Build output goes to stderr. Exits non-zero on a build
failure or a wrong answer.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure (once) and build the two targets; True on success."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--parallel", "4",
                  "--target", "perfbench", "hdham_server"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--corrupt-reply", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("run.py: no hdham source tree next to perfbench/",
              file=sys.stderr)
        return 2
    work = os.path.relpath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    build_dir = os.path.join(work, "perfbench")
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--server", os.path.join(build_dir, "hdham", "tools",
                                    "hdham_server"),
           "--work-dir", work,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--scale", args.scale]
    if args.corrupt_reply:
        cmd.append("--corrupt-reply")
    sys.stdout.flush()
    # Replace this process, so a signal sent to it reaches the binary
    # (whose server child then dies with it).
    os.execv(cmd[0], cmd)


if __name__ == "__main__":
    sys.exit(main())

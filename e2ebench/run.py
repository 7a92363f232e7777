#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload daemon_day --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. The build tree is $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench); build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the repository's sources are not there to build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, stderr=sys.stderr, check=True)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no src/ next to the benchmark; run from a full "
              "checkout", file=sys.stderr)
        return 2
    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(out_root):
        out_root = os.path.join(ROOT, out_root)
    build_dir = os.path.join(out_root, "e2ebench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2
    work_dir = os.path.join(out_root, f"e2ebench-run-{os.getpid()}")
    cmd = [os.path.join(build_dir, "e2ebench"), *sys.argv[1:],
           "--work-dir", work_dir]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

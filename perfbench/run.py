#!/usr/bin/env python3
"""Builds the benchmark program (optimised) and runs one workload.

Usage, from the repository root:
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lives in $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is reused by later runs. Build output goes to stderr; the program's last
stdout line is the JSON result. Exits non-zero, printing no result, when the
repository sources are missing or the build fails.
"""
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per checkout; later runs find it up to date.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(
            ["cmake", "--build", build_dir, "--target", "cannikin_perfbench",
             "-j", jobs],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "cannikin_perfbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: repository sources not found under " + ROOT,
              file=sys.stderr)
        return 2
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, base) if not os.path.isabs(base) else base
    try:
        binary = build(os.path.join(base, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 3
    out_dir = os.path.join(base, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    # The program runs in the foreground and is waited for: no process
    # outlives this script.
    return subprocess.run([binary, "--out-dir", out_dir] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

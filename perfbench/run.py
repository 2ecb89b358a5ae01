#!/usr/bin/env python3
"""Builds and runs the DMI serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload dmi_open --seed 1 --seconds 10 --trace 0

Workloads: dmi_open, gui_closed, swap_under_load (see perfbench/layer_map.json).
The first call configures and compiles the repository's src/ libraries plus
the benchmark into the build directory ($CARGO_TARGET_DIR, else .bench_build);
later calls rebuild incrementally. Build output goes to stderr. The benchmark's
own report goes to stdout; its last line is the JSON result. The exit code is
the benchmark's, or 1 if the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "dmi_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            print(f"perfbench: cannot run {step[0]}: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 1
    binary = os.path.join(build_dir, "dmi_perfbench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

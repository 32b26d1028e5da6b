#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload validate-hw --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test --seed 1989

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. The exit code is
the benchmark's: 0 only when every output check passed.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
SOURCE_DIRS = ("src", "perfbench")


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in SOURCE_DIRS:
        for dirpath, dirnames, filenames in sorted(os.walk(top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    if not os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt")):
        print("run.py: run from the repository root", file=sys.stderr)
        return 2
    out = build_dir()
    if not build(out):
        print("run.py: build failed", file=sys.stderr)
        return 1
    command = [os.path.join(out, "swcc_bench"), *sys.argv[1:],
               "--reference-dir", os.path.join("perfbench", "reference"),
               "--out-dir", os.path.join(out, "run"),
               "--commit", source_id()]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the repo benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <offline_batch|camera_streams|burst_onboard>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (which builds the repository's libraries with the
repository's own build files) into .bench_build/perfbench; later runs only
let the build tool confirm nothing changed. Build output goes to standard
error, so the last line of standard output is the benchmark's JSON result.
Exits non-zero, without a result, when the sources or the build are missing.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no repository sources next to perfbench/ "
              "(need CMakeLists.txt and src/)", file=sys.stderr)
        return None
    if shutil.which("cmake") is None:
        print("perfbench: cmake not found", file=sys.stderr)
        return None
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    done = subprocess.run(["cmake", "--build", BUILD, "--target", target,
                           "-j", JOBS], stdout=sys.stderr)
    if done.returncode != 0:
        return None
    return os.path.join(BUILD, target)


def main():
    binary = build("itask_perfbench")
    if binary is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

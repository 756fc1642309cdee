#!/usr/bin/env python3
"""Builds the Faro benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload faro-day --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

The benchmark binary (a CMake project in this directory that compiles
../src) is built on first use into .bench_build at the repository root, or
into the directory CARGO_TARGET_DIR names. Build output goes to stderr; the binary's own last
stdout line is the JSON result. Exits non-zero, without a result, when the
repository's sources are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark binary; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "faro_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(out, "faro_perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Faro sources at %s/src; run from a full checkout" % ROOT,
              file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # The benchmark binary writes its span files under the repository root.
    os.chdir(ROOT)
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + sys.argv[1:])
    return 2  # not reached


if __name__ == "__main__":
    sys.exit(main())

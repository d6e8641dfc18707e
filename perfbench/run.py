#!/usr/bin/env python3
"""Builds the tlbmap benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload paper_8t --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then incremental); every argument is passed to the
driver, whose last stdout line is the JSON result. Exits non-zero without
a result when the build fails, e.g. when the library sources are missing.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.path.dirname(HERE), ".bench_build", "perfbench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "tlbmap_perfbench")


def main():
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())

"""Build the benchmark driver from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The driver (perfbench/*.ml) is built with dune into .bench_build/ in
the checkout, with the shared dune cache off, and then replaces this
process, so its exit code and standard output are the run's.  Build
output goes to standard error.
"""

import os
import subprocess
import sys

BUILD_DIR = os.path.abspath(os.path.join(".bench_build", "_build"))
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a checkout of the repository")
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled", "./perfbench/bench.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: the build failed")
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()

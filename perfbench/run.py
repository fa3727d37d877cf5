#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the simulator sources under src/ plus the driver) into
.bench_build/ with CMake; later calls only rebuild what changed. Build
output goes to standard error, so the last line of standard output is
the driver's result object. The exit status is the driver's: 0 when
every correctness gate passed, 1 when one failed, 2 on bad arguments.
"""

import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
# The driver forks one child per run; past this many seconds the whole
# process group is killed and the call fails.
DRIVER_TIMEOUT_S = 170


def build():
    """Configure (once) and build the driver; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    driver = subprocess.Popen([str(BUILD / "perfbench")] + sys.argv[1:],
                              start_new_session=True)
    try:
        return driver.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.wait()
        print(f"perfbench: no result within {DRIVER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

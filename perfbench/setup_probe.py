"""Time one benchmark set-up in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD SEED SMALL WORKDIR

Set-up is the import of dsfusion and its CLI, the workload's input build
and its warm-up; the import of the benchmark's own modules and the
reference computation are not part of it.  Prints the seconds taken.
Nothing is imported before the clock starts, so dsfusion's import pays for
every module it pulls in.
"""

import time

_start = time.perf_counter()

import os  # noqa: E402  (already loaded by site; costs nothing)
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import dsfusion.cli  # noqa: E402, F401

_imported = time.perf_counter()

from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    name, seed, small, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    t0 = time.perf_counter()
    workload = WORKLOADS[name](seed, small, Path(workdir))
    workload.warm_up()
    print((_imported - _start) + (time.perf_counter() - t0))


if __name__ == "__main__":
    main()

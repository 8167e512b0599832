"""Time the benchmark's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports evdispatch from the checkout's ``src`` and generates the
workload's day set, then prints the seconds that took. ``run.py`` starts
this several times per run and reports the median as ``setup_s``.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import evdispatch  # noqa: F401  (timed: the import is part of set-up)
    from workloads import WORKLOADS, generate_day_set

    generate_day_set(WORKLOADS[sys.argv[1]], int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()

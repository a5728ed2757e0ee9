"""Print the seconds a fresh process spends importing bregmanqn and
building one workload's inputs, before its first solve, and the mean
seconds of a fixed reference loop timed once before and once after it.

    python3 bench/setup_probe.py <workload> <seed>

On a shared machine the speed of a whole process drifts by tens of
percent over seconds to minutes, and the pure-Python reference loop slows
down with the set-up.  run.py starts this probe several times and reports
the median of set-up s * REFERENCE_S / reference s: the set-up time on a
machine on which the loop takes REFERENCE_S.
"""

import sys
from pathlib import Path
from time import perf_counter

REFERENCE_S = 0.11  # about the loop's time where the benchmark was written


def reference_loop():
    """Seconds for a fixed amount of interpreter work."""
    start = perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return perf_counter() - start


def main(workload, seed):
    before = reference_loop()
    start = perf_counter()
    import bregmanqn
    import workloads

    workloads.build_cases(bregmanqn, workload, int(seed))
    setup = perf_counter() - start
    print(setup, (before + reference_loop()) / 2)


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main(*sys.argv[1:])

"""The calibration kernel, run by run.py in a process of its own.

    python3 bench/calibrate.py      # one line in, one kernel time out

For each line read from standard input it times the kernel, best of five,
and prints the time in seconds.  A line that holds a CPU number first
moves the process to that CPU: run.py sends the CPU its workload last ran
on, so that the kernel measures the speed of the CPU the workload gets.
It exits at the end of its input.  The
kernel uses neither the library nor its inputs: an interpreter loop, an
IFFT over 4 MB and a long Bessel series, the three kinds of work the
workloads do.  Running it in its own process keeps its buffers out of the
workload's peak RSS.
"""

import os
import sys
import time

import numpy as np
from scipy import special


def kernel_seconds(x: np.ndarray, orders: np.ndarray) -> float:
    """Best of five timings of the kernel, in seconds."""
    best = float("inf")
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(60_000):
            acc += i * i % 7
        float(np.max(np.abs(np.fft.ifft(x, axis=1)) ** 2))
        for _ in range(2):
            float(np.sum(special.ive(orders, 1.5e6)))
        best = min(best, time.perf_counter() - t)
    return best


def main() -> int:
    x = np.random.default_rng(0).standard_normal((128, 2048)) + 0j
    orders = np.arange(6000)
    for line in sys.stdin:
        if line.strip():
            os.sched_setaffinity(0, {int(line)})
        print(repr(kernel_seconds(x, orders)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

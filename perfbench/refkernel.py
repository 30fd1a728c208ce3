"""Reference kernel: a fixed piece of work that tracks the machine's speed.

    python3 perfbench/refkernel.py

For each line read on standard input, runs the kernel once and prints its
wall seconds.  The kernel never touches the splitannulus package, so no
change to the program moves it; its time moves only with the machine.
``run.py`` keeps one such process per run and scales job times by it.

Its three parts follow the three kinds of drift seen on a shared 2-vCPU
VM: numpy arithmetic on arrays that fit the per-core L2 cache, on arrays
that live in the shared L3 cache (as the ~1M-node arrays of ``action``
do), and a pure-Python loop (as in ``verify``).  Every array is allocated
once, so the kernel's cost does not depend on allocator state.  It runs
in its own process so that its arrays do not count in the benchmark's
peak RSS.
"""

import sys
import time

import numpy as np


def main():
    rng = np.random.default_rng(0)
    a = rng.random(300_000)
    b, c = np.empty_like(a), np.empty_like(a)
    big = rng.random(1_000_000)
    big_b, big_c = np.empty_like(big), np.empty_like(big)
    for _ in sys.stdin:
        t = time.perf_counter()
        for _ in range(20):
            np.exp(a, out=b)
            np.multiply(b, a, out=b)
            np.sqrt(a, out=c)
            np.add(b, c, out=b)
        for _ in range(6):
            np.multiply(big, 1.0001, out=big_b)
            np.add(big_b, big, out=big_c)
            np.multiply(big_c, big_b, out=big_b)
        s = 0
        for i in range(200_000):
            s += i * i % 7
        print(time.perf_counter() - t, flush=True)


if __name__ == "__main__":
    main()

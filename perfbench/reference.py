"""A fixed CPU-bound load that measures how fast the host runs right now.

The benchmark keeps this script running as one child for the whole run and
asks it for a load before the first CLI job of each round and after the jobs
(see harness.py); it divides each round's wall time by the mean time of
the round's loads. The load mixes the kinds of work the CLI does, in about
equal parts: Python loops over nested lists (the Latin-square sampler), small
numpy calls inside a Python loop (the RCB sampler and the per-assignment
path) and vector work on a medium array (the batch kernels and the
aggregation). It imports numpy and nothing of randova, so no change to the
package moves its time.

    python3 perfbench/reference.py   # one load per line on stdin; prints its seconds
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np


def load() -> float:
    """Run the fixed work; return a checksum of it."""
    rng = np.random.default_rng(0)
    cube = [[[(i + j + k) % 8 for k in range(8)] for j in range(8)] for i in range(8)]
    x = rng.normal(20.0, 15.0, size=100_000)
    total = 0.0
    for _ in range(3000):
        for plane in cube:
            for row in plane:
                total += row.index(7) + sum(v for v in row if v & 1)
    for _ in range(12000):
        total += float(np.stack([rng.permutation(5) for _ in range(4)])[0, 0])
    for _ in range(130):
        total += float(np.sort(x * 1.0001)[-1]) + float((x * x).sum())
    return total


class Reference:
    """The load in a long-lived child process; close() stops it."""

    def __init__(self) -> None:
        self._child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True)

    def time(self) -> float:
        """Seconds one load took."""
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        reply = self._child.stdout.readline()
        if not reply:
            raise RuntimeError("the reference load process exited")
        return float(reply)

    def close(self) -> None:
        self._child.stdin.close()
        self._child.wait()
        self._child.stdout.close()

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        start = perf_counter()
        load()
        print(perf_counter() - start, flush=True)

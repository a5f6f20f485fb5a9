"""Machine-speed controls: fixed work that never calls the library.

On a shared machine the same code runs up to twice as slow for minutes at
a time, and pure-Python code slows more than NumPy code. A run therefore
times a control block of the right kind just before each of its blocks:

* ``python``: an interpreter-bound loop of list lookups, shifts and xors,
  for the scalar hash paths;
* ``numpy``: a gather and xor over an 8 MiB key array, for every other
  block (the batch hash paths and the Monte Carlo engine are NumPy work
  over working sets beyond L2).

A block's time is scaled by ``REFERENCE_S`` over a median of controls of
its kind, so a figure reads as the time on a machine where one control
block takes ``REFERENCE_S``. Python code follows the machine's phases
closely, so a Python block takes the median of the last three controls
before it. A NumPy block takes the median of all the run's NumPy
controls: per block, that control added more noise than it removed, but
over a run it still follows the phases. A change to the library moves the
block but not the control, so it still shows; a slower phase of the
machine moves both. The raw figures are reported beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010
WINDOW = {"python": 3, "numpy": None}  # controls per factor; None: the whole run


class Controls:
    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self._table = [int(v) for v in gen.integers(0, 1 << 63, size=256, dtype=np.uint64)]
        self._keys = [int(v) for v in gen.integers(0, 1 << 32, size=4096, dtype=np.uint64)]
        self._np_table = gen.integers(0, 1 << 63, size=256, dtype=np.uint64)
        self._np_keys = gen.integers(0, 1 << 32, size=1 << 20, dtype=np.uint64)
        self.samples: dict[str, list[float]] = {"python": [], "numpy": []}

    def _python(self) -> int:
        table, acc = self._table, 0
        for x in self._keys:
            h = 0
            for _ in range(8):
                h ^= table[x & 255]
                x = (x >> 8) ^ (h & 0xFFFFFF)
            acc ^= h
        return acc

    def _numpy(self) -> int:
        x = self._np_keys
        return int((self._np_table[(x & np.uint64(255)).astype(np.intp)] ^ (x >> np.uint64(3))).max())

    def measure(self, kind: str) -> int:
        """Time one control block of the kind; return the count so far."""
        work = self._python if kind == "python" else self._numpy
        start = time.perf_counter()
        work()
        self.samples[kind].append(time.perf_counter() - start)
        return len(self.samples[kind])

    def time_scale(self, kind: str, mark: int) -> float:
        """Factor that turns the seconds of a block timed right after control
        number ``mark`` into reference seconds."""
        window = WINDOW[kind]
        recent = self.samples[kind][max(0, mark - window):mark] if window else self.samples[kind]
        return REFERENCE_S / statistics.median(recent)

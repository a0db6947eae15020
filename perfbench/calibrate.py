"""Calibration kernel that tracks the speed of a shared host.

The host this benchmark was written on changes its effective CPU speed by
up to half within a minute (a fixed interpreter loop took 3.9 to 6.0 ms in
consecutive 8 s windows), which no run length that fits the time budget
averages out. The runner therefore times this fixed kernel after every
quarter second of operation time and scales each stretch of operations to
the reference speed (see ``Runner`` in common.py). The kernel never changes
between commits, so a change to the program moves the scaled figures as it
moves the raw ones.

The kernel exercises the interpreter the way the pure-Python layers do:
rational and big-integer arithmetic, lookups scattered over a few MB of
small objects, and the JSON, hashing and rational parsing of a small cache
document. It serves those layers and set-up. The numpy-bound Monte
Carlo workload is not scaled: a two-thread numpy kernel tracked it worse
than no kernel at all. The collector is paused while the kernel runs, so
the program's heap does not leak into the measurement.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from fractions import Fraction

# seconds per kernel call at the reference speed (2-CPU sandbox, Python
# 3.11, in a typical stretch)
REFERENCE = 6.0e-3
_BIG = Fraction(3 ** 200 + 1, 2 ** 190 * 5 ** 40)


class Calibrator:
    """Times the kernel on demand; returns host speed relative to reference."""

    def __init__(self):
        keys = [(i % 7, i % 11, i % 13, i % 17, i) for i in range(40_000)]
        self.table = {key: (Fraction(i + 1, i + 3), float(i))
                      for i, key in enumerate(keys)}
        self.order = [keys[(i * 7919) % len(keys)] for i in range(1500)]
        self.doc = {"entries": [{"j": [i % 5, i % 3], "core": f"{3 ** 40 + i}/{2 ** 60}",
                                 "half_power": 5, "two_power": 3} for i in range(150)]}
        self.samples: list[float] = []

    def _kernel(self) -> float:
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 7) * Fraction(3, 2 * i + 1) - Fraction(1, i + 7)
        for i in range(1, 40):
            acc += _BIG * Fraction(2 * i + 1, 3 ** i) - _BIG / (i + 2)
        floats = []
        for key in self.order:
            core, value = self.table[key]
            floats.append(math.sqrt(value + 1.0) * core.numerator / core.denominator)
        text = json.dumps(self.doc, sort_keys=True)
        digest = hashlib.sha256(text.encode()).digest()
        parsed = json.loads(text)
        total = sum(Fraction(entry["core"]) for entry in parsed["entries"])
        return math.fsum(floats) + float(acc) + float(total) + digest[0]

    def measure(self) -> float:
        """One kernel call; returns reference / measured time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append(dt)
        return REFERENCE / dt

"""Seeds, timing, spans and operation accounting shared by the workloads."""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

_NULL_SPAN = nullcontext()


def derive_seed(seed: int, *tags) -> int:
    """64-bit seed derived from the workload seed and a path of tags.

    The value depends only on its arguments, never on call order, so adding
    an input elsewhere does not shift the seeds of the others.
    """
    text = "/".join(str(part) for part in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


class Tracer:
    """In-memory span recorder; a disabled tracer costs one attribute read.

    A span is (name, start, end, parent index, attributes). Spans nest by
    a stack, so the self time of a span is its duration minus that of its
    direct children.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, attrs)

    def totals(self) -> dict[str, dict]:
        """Per span name: count, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += t1 - t0 - child[idx]
        return out


class _Span:
    __slots__ = ("tracer", "idx")

    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.idx = len(tracer.spans)
        tracer.spans.append([name, 0.0, 0.0, parent, attrs])

    def __enter__(self):
        self.tracer._stack.append(self.idx)
        self.tracer.spans[self.idx][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.idx][2] = time.perf_counter()
        self.tracer._stack.pop()
        return False


@dataclass
class Runner:
    """Closed-loop operation runner: times each call, counts work and failures.

    Calls are summed per throughput metric as (work, seconds), in stretches
    of about ``every`` seconds of call time. With a calibrator, a kernel is
    timed at the end of each stretch, and each stretch's seconds are scaled
    to the reference host speed by the median of the five kernel timings
    nearest to it (see calibrate.py). ``rate(metric, raw=True)`` gives the
    unscaled throughput.
    """

    tracer: Tracer
    calibrator: object = None
    every: float = 0.25
    stretches: list = field(default_factory=list)
    speeds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    _current: dict = field(default_factory=dict)
    _since: float = 0.0

    def call(self, metric: str, work: float, span: str, fn, *args, **kwargs):
        """Run one operation; returns its output, or None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span):
                out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{span}: {type(exc).__name__}: {exc}")
            return None
        dt = time.perf_counter() - t0
        acc = self._current.setdefault(metric, [0.0, 0.0])
        acc[0] += work
        acc[1] += dt
        self._since += dt
        if self._since >= self.every:
            self.end_stretch()
        return out

    def end_stretch(self):
        """Close the current stretch and time the calibration kernel."""
        if not self._current:
            return
        self.stretches.append(self._current)
        if self.calibrator is not None:
            self.speeds.append(self.calibrator.measure())
        self._current = {}
        self._since = 0.0

    def reject(self, what: str):
        """Count an operation whose output failed its check."""
        self.failed += 1
        self.errors.append(f"check: {what}")

    def rate(self, metric: str, raw: bool = False) -> float:
        self.end_stretch()
        work = seconds = 0.0
        for idx, stretch in enumerate(self.stretches):
            if metric not in stretch:
                continue
            scale = 1.0
            if self.speeds and not raw:
                scale = statistics.median(self.speeds[max(0, idx - 2):idx + 3])
            work += stretch[metric][0]
            seconds += stretch[metric][1] * scale
        return work / seconds if seconds > 0 else 0.0


def run_rounds(runner: Runner, round_fn, seconds: float) -> int:
    """Run whole rounds until ``seconds`` of wall time have passed (>= 1)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        round_fn(rounds)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            runner.end_stretch()
            return rounds

"""Coupled Monte Carlo validation of the truncated expansions.

The true iterated integral is simulated on a fine uniform grid with
left-point evaluation of every inner sum; the Gaussian draw feeding the
truncated expansion is built from the same Wiener increments, so the
per-path difference estimates the truncation error rather than independent
variance. Estimates are deterministic given the configuration seed, use
batch-means standard errors, and are safe to compute across threads
(chunks draw from disjoint seed substreams and the reduction is
order-insensitive).

Each chunk streams its Wiener labels, in sorted label order, in row blocks
of CHUNK_FLOATS // 16 floats: each block's standard normals are drawn,
scaled by sqrt(dt) and projected (``_project``, without BLAS), and every
level whose label has been drawn is folded into one running (chunk rows,
steps) buffer (``_iterated_sums``). A label's full draw is held only while
a level that needs it waits on a later label: sorted-label patterns keep
one chunk buffer per thread, (1, 2, 1) two, and single-level ones none.
Block draws give the normals of one whole-chunk draw, and each path's
values do not depend on the rows beside it, so estimates do not depend on
the block size either.

``empirical_mse`` and ``run_report`` check their table with
``coeffs.checked_table`` before any path is simulated.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .coeffs import CoeffTable, Interval, WeightSpec, checked_table
from .expansion import (CHUNK_FLOATS, GaussianDraw, IndexPattern,
                        enumerate_matchings, expansion_plan)
from .msekit import exact_mse

MIN_PATHS = 100
MIN_STEPS = 64
_N_BATCHES = 100
_BLOCK_SPLIT = 16  # row blocks per chunk: CHUNK_FLOATS // 16 floats each


@dataclass(frozen=True)
class McConfig:
    """One reproducible validation run."""

    pattern: IndexPattern
    p: int
    weights: WeightSpec
    interval: Interval
    n_paths: int = 100_000
    n_steps: int = 2048
    seed: int = 0

    def __post_init__(self):
        for name in ("p", "n_paths", "n_steps", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.weights.k != self.pattern.k:
            raise ValueError(
                f"pattern multiplicity {self.pattern.k} != weight "
                f"multiplicity {self.weights.k}")
        if self.p < 0:
            raise ValueError(f"truncation order must be nonnegative, got {self.p}")
        if self.n_paths < 2 or self.n_steps < 2:
            raise ValueError("need at least 2 paths and 2 grid steps")
        for advice in self._advisories():
            warnings.warn(advice, UserWarning, stacklevel=3)

    def _advisories(self) -> list[str]:
        # warned when built and listed in the run report
        out = []
        if self.n_paths < MIN_PATHS:
            out.append("standard error too large for a decision: fewer than "
                       f"{MIN_PATHS} paths")
        if self.n_steps < MIN_STEPS:
            out.append("discretization bias may dominate: fewer than "
                       f"{MIN_STEPS} steps")
        return out


class McEstimate(NamedTuple):
    estimate: float
    standard_error: float


def _phi_matrix(p: int, n_steps: int, interval: Interval) -> np.ndarray:
    # (n_steps, p + 1) values of the orthonormal basis at left grid points
    length = float(interval.length)
    x = 2.0 * np.arange(n_steps) / n_steps - 1.0
    van = np.polynomial.legendre.legvander(x, p)
    return van * np.sqrt((2.0 * np.arange(p + 1) + 1.0) / length)


def _project(inc: np.ndarray, phi: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Left-point sums of each basis column against each row of ``inc``.

    einsum rather than BLAS: a row's sums do not depend on the rows beside
    it or on the BLAS build, and no BLAS threads start beside the workers.
    """
    return np.einsum("...j,jk->...k", inc, phi, out=out)


class _Pool:
    """Float buffers of one thread, (rows, steps) each, one per role."""

    def __init__(self, steps: int):
        self.steps, self.buffers = steps, {}

    def take(self, role: Union[str, int], rows: int) -> np.ndarray:
        """The role's buffer cut to ``rows``; it is kept for later calls."""
        buf = self.buffers.get(role)
        if buf is None or len(buf) < rows:
            buf = self.buffers[role] = np.empty((rows, self.steps))
        return buf[:rows]


def _block_rows(n_steps: int) -> int:
    """Rows of the blocks the kernel takes from its source at a time."""
    return max(1, CHUNK_FLOATS // _BLOCK_SPLIT // n_steps)


def _stages(pattern: IndexPattern) -> tuple[list[int], list[int], set[int]]:
    """Draw order of the labels, the draw each level waits on, held labels.

    Labels are drawn in sorted order, so the time row (label 0, no draw)
    comes first. Level m waits on the latest draw among levels 0..m. A
    Wiener label that a level needs after its own draw is held in full.
    """
    order = sorted(set(pattern.labels))
    stage, at = [], 0
    for label in pattern.labels:
        at = max(at, order.index(label))
        stage.append(at)
    held = {label for label, s in zip(pattern.labels, stage)
            if label and s > order.index(label)}
    return order, stage, held


def _fold(m: int, k: int, inc: np.ndarray, run: Optional[np.ndarray],
          weight: Optional[np.ndarray], total: np.ndarray) -> None:
    """Level m of k on one row block, in place in ``run``; reads ``inc``.
    A single level (k = 1) needs no ``run``: it weights ``inc`` in place."""
    last = m == k - 1
    if m == 0:
        cur = inc if weight is None else \
            np.multiply(inc, weight, out=inc if last else run)
    else:
        # cur[:, i - m] is level m - 1's sum over the steps before i
        cur = run[:, :max(inc.shape[1] - m, 0)]
        if not last:
            np.multiply(inc[:, m:], cur, out=cur)
        if weight is not None:
            cur *= weight
    if not last:
        np.cumsum(cur, axis=1, out=run[:, :cur.shape[1]])
    elif m:
        np.einsum("ij,ij->i", inc[:, m:], cur, out=total)
    else:
        cur.sum(axis=1, out=total)


def _iterated_sums(source: Callable[[int, int, np.ndarray], None], rows: int,
                   pattern: IndexPattern, exponents: Sequence[int],
                   pool: _Pool) -> np.ndarray:
    """Left-point iterated sums of a batch of ``rows`` paths, one per row.

    ``source(label, lo, out)`` writes a label's increments for rows lo,
    lo + 1, ... into ``out``. Each Wiener label is asked for once, in row
    blocks (``_block_rows``) and in draw order (``_stages``); the time row
    again wherever a later level needs it. Every level whose label has been
    drawn is folded into one running (rows, steps) buffer as each block
    arrives; level m's sum, zero before step m, is kept shifted m steps
    left; a single level needs no running buffer, its weight is folded
    into the block. A held label's full draw stays in its own buffer. The
    weight (s - t)^q enters as step^q, so the sums still need the factor
    dt^(q_1 + ... + q_k).
    """
    labels, k, n = pattern.labels, pattern.k, pool.steps
    order, stage, held = _stages(pattern)
    weights = [np.arange(m, n, dtype=float) ** q if q else None
               for m, q in enumerate(exponents)]
    run = pool.take("run", rows) if k > 1 else None
    total = np.empty(rows)
    keep = {label: pool.take(label, rows) for label in held}
    step = _block_rows(n)
    for s, label in enumerate(order):
        levels = [m for m in range(k) if stage[m] == s]
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            inc = {key: buf[lo:hi] for key, buf in keep.items()}
            if label not in inc:
                inc[label] = pool.take("block", hi - lo)
            source(label, lo, inc[label])
            for m in levels:
                if labels[m] not in inc:  # the time row, drawn earlier
                    inc[0] = pool.take("time", hi - lo)
                    source(0, lo, inc[0])
                _fold(m, k, inc[labels[m]], run[lo:hi] if k > 1 else None,
                      weights[m], total[lo:hi])
    return total


def simulate_true_integral(path: Mapping[int, np.ndarray], w: WeightSpec,
                           pattern: IndexPattern, interval: Interval,
                           ) -> Union[float, np.ndarray]:
    """Left-point iterated sum of the integral along given increments.

    ``path`` maps each distinct label of the pattern to its increments on
    the uniform grid: Wiener rows have per-step variance dt, the time row
    (label 0) is the constant dt. Accepts a single path (1-D rows) or a
    batch (2-D rows, paths along the first axis).
    """
    batched = np.ndim(next(iter(path.values()))) == 2
    rows = {label: np.atleast_2d(np.asarray(row, dtype=float))
            for label, row in path.items()}
    n_rows, n_steps = next(iter(rows.values())).shape

    def source(label: int, lo: int, out: np.ndarray) -> None:
        out[...] = rows[label][lo:lo + len(out)]

    dt = float(interval.length) / n_steps
    out = _iterated_sums(source, n_rows, pattern, w.exponents,
                         _Pool(n_steps)) * dt ** sum(w.exponents)
    return out if batched else float(out[0])


def zetas_from_path(path: Mapping[int, np.ndarray], p: int,
                    interval: Interval) -> GaussianDraw:
    """Gaussian draw discretized from one path's increments (coupled).

    Each zeta_j is the left-point sum of phi_j against the increments, on
    the same grid as ``simulate_true_integral``, by the projection the
    Monte Carlo uses: a batch gives its draws bit for bit.
    """
    rows = {label: np.asarray(row, dtype=float) for label, row in path.items()}
    phi = _phi_matrix(p, next(iter(rows.values())).shape[-1], interval)
    return GaussianDraw(length=float(interval.length),
                        zeta={label: _project(row, phi)
                              for label, row in rows.items()})


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _chunking(cfg: McConfig) -> tuple[int, int]:
    """Paths per chunk and the number of chunks."""
    chunk = max(1, CHUNK_FLOATS // cfg.n_steps)
    return chunk, -(-cfg.n_paths // chunk)


def thread_count(cfg: McConfig, threads: Optional[int] = None) -> int:
    """``threads`` (default: the usable CPUs), capped at the chunk count."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    return min(threads or _usable_cpus(), _chunking(cfg)[1])


def peak_bytes_per_thread(cfg: McConfig) -> int:
    """Bound on one thread's arrays. The pool keeps the kernel's running
    buffer (for two or more levels), a full draw of each held label
    (``_stages``) and a row block of increments, two where the time row is
    fetched again, for the whole run. Beside them are the basis and level
    weights (k + p + 1 floats per step) and, per path, the squared
    differences, the draws and ``ExpansionPlan.values``'s arrays: the
    draws' concatenation, the two sums, and a block of gathered
    matching-term factors (k per term, CHUNK_FLOATS per chunk unless one
    orbit has more terms) with its products, beside the previous block's
    products and orbit brackets."""
    rows = min(_chunking(cfg)[0], cfg.n_paths)
    k, distinct = cfg.pattern.k, len(set(cfg.pattern.labels))
    _, stage, held = _stages(cfg.pattern)
    blocks = 1 + any(s and not label
                     for label, s in zip(cfg.pattern.labels, stage))
    terms = len(enumerate_matchings(cfg.pattern))
    block = min(max(CHUNK_FLOATS // (rows * k), terms),
                (cfg.p + 1) ** k * terms)
    per_path = (int(k > 1) + len(held)) * cfg.n_steps + (k + 3) * block \
        + 2 * (distinct * (cfg.p + 1) + 2) + 1
    per_step = blocks * min(_block_rows(cfg.n_steps), rows) + k + cfg.p + 1
    return (per_path * rows + per_step * cfg.n_steps) * 8


def empirical_mse(cfg: McConfig, table: CoeffTable, *,
                  threads: Optional[int] = None) -> McEstimate:
    """Coupled estimate of the mean-square truncation error.

    Averages (J_true - J_p)^2 over paths, where both values come from the
    same increments. Returns the mean and its batch-means standard error.
    ``threads`` defaults to the usable CPUs, capped at the number of
    chunks (``thread_count``). Each thread streams its chunks through one
    running buffer and the labels it must hold (``peak_bytes_per_thread``).
    Identical configurations produce bit-identical results regardless of
    the thread count or the BLAS build.
    """
    table = checked_table(cfg.weights, (cfg.p,) * cfg.pattern.k, table)
    labels = sorted(set(cfg.pattern.labels))
    length = float(cfg.interval.length)
    dt = length / cfg.n_steps
    root_dt = math.sqrt(dt)
    phi = _phi_matrix(cfg.p, cfg.n_steps, cfg.interval)
    scale = dt ** sum(cfg.weights.exponents)
    plan = expansion_plan(cfg.pattern, cfg.p, table)

    chunk, n_chunks = _chunking(cfg)
    threads = thread_count(cfg, threads)
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    sq = np.empty(cfg.n_paths)

    def run_chunk(idx: int, pool: _Pool):
        start = idx * chunk
        rows = min(chunk, cfg.n_paths - start)
        rng = np.random.default_rng(seeds[idx])
        zeta = {label: np.empty((rows, cfg.p + 1)) for label in labels}

        def source(label: int, lo: int, out: np.ndarray) -> None:
            if label:  # Wiener rows: in sorted label order, row block by block
                rng.standard_normal(out=out)
                out *= root_dt
            else:
                out.fill(dt)
            _project(out, phi, out=zeta[label][lo:lo + len(out)])

        j_true = _iterated_sums(source, rows, cfg.pattern,
                                cfg.weights.exponents, pool) * scale
        j_p = plan.values(zeta, length)
        sq[start:start + rows] = (j_true - j_p) ** 2

    def work(first: int):
        pool = _Pool(cfg.n_steps)
        for idx in range(first, n_chunks, threads):
            run_chunk(idx, pool)

    with ThreadPoolExecutor(max_workers=threads) as executor:
        list(executor.map(work, range(threads)))

    estimate = math.fsum(sq) / cfg.n_paths
    n_batches = min(_N_BATCHES, cfg.n_paths)
    means = [float(b.mean()) for b in np.array_split(sq, n_batches)]
    stderr = float(np.std(means, ddof=1)) / math.sqrt(n_batches)
    return McEstimate(estimate=estimate, standard_error=stderr)


def run_report(cfg: McConfig, *,
               table: Optional[CoeffTable] = None,
               threads: Optional[int] = None) -> dict:
    """Validation run as a JSON-ready report.

    Echoes the configuration, reports the empirical estimate with its
    standard error, and, for all-Wiener patterns, the exact reference and
    the z-score of the discrepancy. ``table`` is built when absent.
    """
    table = checked_table(cfg.weights, (cfg.p,) * cfg.pattern.k, table)
    est = empirical_mse(cfg, table, threads=threads)
    report = {
        "config": {
            "pattern": list(cfg.pattern.labels),
            "p": cfg.p,
            "exponents": list(cfg.weights.exponents),
            "length": str(cfg.interval.length),
            "n_paths": cfg.n_paths,
            "n_steps": cfg.n_steps,
            "seed": cfg.seed,
        },
        "estimate": est.estimate,
        "standard_error": est.standard_error,
        "exact_mse": None,
        "exact_mse_rational": None,
        "z_score": None,
        "warnings": cfg._advisories(),
    }
    if not cfg.pattern.zero_positions:
        ref = exact_mse(cfg.pattern, cfg.p, cfg.weights, cfg.interval,
                        table=table)
        report["exact_mse"] = ref.exact_mse
        report["exact_mse_rational"] = str(ref.exact_mse_rational)
        if est.standard_error > 0:
            report["z_score"] = (est.estimate - ref.exact_mse) / est.standard_error
    return report

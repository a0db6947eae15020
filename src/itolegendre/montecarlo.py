"""Coupled Monte Carlo validation of the truncated expansions.

The true iterated integral is simulated on a fine uniform grid with
left-point evaluation of every inner sum; the Gaussian draw feeding the
truncated expansion is built from the same Wiener increments, so the
per-path difference estimates the truncation error rather than independent
variance. Estimates are deterministic given the configuration seed, use
batch-means standard errors, and are safe to compute across threads
(chunks draw from disjoint seed substreams and the reduction is
order-insensitive).

Each thread keeps (chunk rows, steps) buffers for the whole run. A label's
standard normals are drawn straight into one, in sorted label order, and
projected with sqrt(dt) folded into the basis; the iterated sums then run
in place (``_iterated_sums``), with dt folded into one final factor.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .coeffs import CoeffTable, Interval, WeightSpec, coefficient_table
from .expansion import (CHUNK_FLOATS, GaussianDraw, IndexPattern,
                        enumerate_matchings, expansion_plan)
from .msekit import exact_mse

MIN_PATHS = 100
MIN_STEPS = 64
_N_BATCHES = 100


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
        if self.weights.k != self.pattern.k:
            raise ValueError(
                f"pattern multiplicity {self.pattern.k} != weight "
                f"multiplicity {self.weights.k}")
        if self.p < 0:
            raise ValueError(f"truncation order must be nonnegative, got {self.p}")
        if self.n_paths < 2 or self.n_steps < 2:
            raise ValueError("need at least 2 paths and 2 grid steps")
        if self.n_paths < MIN_PATHS:
            warnings.warn(
                f"{self.n_paths} paths is below the validated minimum of "
                f"{MIN_PATHS}; the standard error is too large for a decision",
                UserWarning, stacklevel=2)
        if self.n_steps < MIN_STEPS:
            warnings.warn(
                f"{self.n_steps} grid steps is below the validated minimum of "
                f"{MIN_STEPS}; discretization bias may dominate",
                UserWarning, stacklevel=2)


class McEstimate(NamedTuple):
    estimate: float
    standard_error: float


def _phi_matrix(p: int, n_steps: int, interval: Interval) -> np.ndarray:
    # (n_steps, p + 1) values of the orthonormal basis at left grid points
    length = float(interval.length)
    x = 2.0 * np.arange(n_steps) / n_steps - 1.0
    van = np.polynomial.legendre.legvander(x, p)
    return van * np.sqrt((2.0 * np.arange(p + 1) + 1.0) / length)


class _Pool:
    """Reusable (rows, steps) float buffers of one thread."""

    def __init__(self, rows: int, steps: int):
        self.shape, self.free = (rows, steps), []

    def take(self, rows: int) -> np.ndarray:
        return (self.free.pop() if self.free else np.empty(self.shape))[:rows]

    def give(self, buf: np.ndarray) -> None:
        self.free.append(buf.base)


def _iterated_sums(fetch: Callable[[int], np.ndarray], pattern: IndexPattern,
                   exponents: Sequence[int], pool: _Pool) -> np.ndarray:
    """Left-point iterated sums of a batch of paths, one per row.

    ``fetch(label)`` hands over a label's increments once, in a ``pool``
    buffer. The weight (s - t)^q enters as step^q, so the sums still need
    the factor dt^(q_1 + ... + q_k). Level m's running sum, zero before step
    m, is formed in place shifted m steps left, and buffers go back to the
    pool after their last level: at most (distinct labels + 1) are held.
    """
    last = {label: m for m, label in enumerate(pattern.labels)}
    rows: dict[int, np.ndarray] = {}
    for m, (label, q) in enumerate(zip(pattern.labels, exponents)):
        if label not in rows:
            rows[label] = fetch(label)
        inc = rows.pop(label) if last[label] == m else rows[label]
        n = inc.shape[1]
        if m == 0:
            run = inc
            if label in rows:  # needed again: sum a copy
                run = pool.take(len(inc))
                run[...] = inc
            cur = run
        else:
            # cur[:, i - m] is level m - 1's sum over the steps before i
            cur = run[:, :max(n - m, 0)]
            if m < pattern.k - 1:
                np.multiply(inc[:, m:], cur, out=cur)
        if q:
            cur *= np.arange(m, n, dtype=float) ** q
        if m < pattern.k - 1:
            np.cumsum(cur, axis=1, out=cur)
        elif m:
            total = np.einsum("ij,ij->i", inc[:, m:], cur)
        else:
            total = cur.sum(axis=1)
        if inc is not run and label not in rows:
            pool.give(inc)
    pool.give(run)
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
    rows = {label: np.asarray(row, dtype=float) for label, row in path.items()}
    batched = next(iter(rows.values())).ndim == 2
    n_rows, n_steps = np.atleast_2d(next(iter(rows.values()))).shape
    pool = _Pool(n_rows, n_steps)

    def fetch(label: int) -> np.ndarray:  # a copy: the kernel overwrites it
        buf = pool.take(n_rows)
        buf[...] = rows[label]
        return buf

    dt = float(interval.length) / n_steps
    out = _iterated_sums(fetch, pattern, w.exponents, pool) \
        * dt ** sum(w.exponents)
    return out if batched else float(out[0])


def zetas_from_path(path: Mapping[int, np.ndarray], p: int,
                    interval: Interval) -> GaussianDraw:
    """Gaussian draw discretized from one path's increments (coupled).

    Each zeta_j is the left-point sum of phi_j against the increments, on
    the same grid as ``simulate_true_integral``.
    """
    rows = {label: np.asarray(row, dtype=float) for label, row in path.items()}
    phi = _phi_matrix(p, next(iter(rows.values())).shape[-1], interval)
    return GaussianDraw(length=float(interval.length),
                        zeta={label: row @ phi for label, row in rows.items()})


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
    """Bound on one thread's arrays: (distinct labels + 1) chunk buffers,
    which the pool still holds while ``ExpansionPlan.values`` runs, plus
    that call's arrays per path. These are the draws, their concatenation,
    the two sums, and a block of gathered matching-term factors (k per term,
    CHUNK_FLOATS per chunk unless one orbit has more terms) with its
    products, beside the previous block's products and orbit brackets."""
    rows = min(_chunking(cfg)[0], cfg.n_paths)
    k, distinct = cfg.pattern.k, len(set(cfg.pattern.labels))
    terms = len(enumerate_matchings(cfg.pattern))
    block = min(max(CHUNK_FLOATS // (rows * k), terms),
                (cfg.p + 1) ** k * terms)
    per_path = (distinct + 1) * cfg.n_steps + (k + 3) * block \
        + 2 * (distinct * (cfg.p + 1) + 2)
    return per_path * rows * 8


def empirical_mse(cfg: McConfig, table: CoeffTable, *,
                  threads: Optional[int] = None) -> McEstimate:
    """Coupled estimate of the mean-square truncation error.

    Averages (J_true - J_p)^2 over paths, where both values come from the
    same increments. Returns the mean and its batch-means standard error.
    ``threads`` defaults to the usable CPUs, capped at the number of
    chunks (``thread_count``). Identical configurations produce
    bit-identical results regardless of the thread count.
    """
    nonzero = sorted(set(cfg.pattern.labels) - {0})
    length = float(cfg.interval.length)
    dt = length / cfg.n_steps
    phi = _phi_matrix(cfg.p, cfg.n_steps, cfg.interval)
    # raw increments: standard normals for Wiener rows, ones for the time row
    phi_w, phi_t = phi * math.sqrt(dt), phi * dt
    scale = math.prod(math.sqrt(dt) if label else dt
                      for label in cfg.pattern.labels) \
        * dt ** sum(cfg.weights.exponents)
    plan = expansion_plan(cfg.pattern, cfg.p, table)

    chunk, n_chunks = _chunking(cfg)
    threads = thread_count(cfg, threads)
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    sq = np.empty(cfg.n_paths)

    def run_chunk(idx: int, pool: _Pool):
        start = idx * chunk
        rows = min(chunk, cfg.n_paths - start)
        rng = np.random.default_rng(seeds[idx])
        pending = iter(nonzero)
        drawn: dict[int, np.ndarray] = {}
        zeta: dict[int, np.ndarray] = {}

        def fetch(label: int) -> np.ndarray:
            while label not in drawn:  # Wiener rows in sorted label order
                nxt = next(pending) if label else 0
                buf = drawn[nxt] = pool.take(rows)
                if nxt:
                    rng.standard_normal(out=buf)
                else:
                    buf.fill(1.0)
                zeta[nxt] = buf @ (phi_w if nxt else phi_t)
            return drawn.pop(label)

        j_true = _iterated_sums(fetch, cfg.pattern, cfg.weights.exponents,
                                pool) * scale
        j_p = plan.values(zeta, length)
        sq[start:start + rows] = (j_true - j_p) ** 2

    def work(first: int):
        pool = _Pool(min(chunk, cfg.n_paths), cfg.n_steps)
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
               threads: Optional[int] = None, cache_dir=None) -> dict:
    """Validation run as a JSON-ready report.

    Echoes the configuration, reports the empirical estimate with its
    standard error, and, for all-Wiener patterns, the exact reference and
    the z-score of the discrepancy.
    """
    if table is None:
        table = coefficient_table(cfg.weights, cfg.p, cache_dir=cache_dir)
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
        "warnings": [],
    }
    if cfg.n_paths < MIN_PATHS:
        report["warnings"].append(
            "standard error too large for a decision: fewer than "
            f"{MIN_PATHS} paths")
    if cfg.n_steps < MIN_STEPS:
        report["warnings"].append(
            f"discretization bias may dominate: fewer than {MIN_STEPS} steps")
    if not cfg.pattern.zero_positions:
        ref = exact_mse(cfg.pattern, cfg.p, cfg.weights, cfg.interval,
                        table=table)
        report["exact_mse"] = ref.exact_mse
        report["exact_mse_rational"] = str(ref.exact_mse_rational)
        if est.standard_error > 0:
            report["z_score"] = (est.estimate - ref.exact_mse) / est.standard_error
    return report

"""Coupled Monte Carlo validation of the truncated expansions.

The true iterated integral is simulated on a fine uniform grid with
left-point evaluation of every inner sum; the Gaussian draw feeding the
truncated expansion is built from the same Wiener increments, so the
per-path difference estimates the truncation error rather than independent
variance. Estimates are deterministic given the configuration seed, use
batch-means standard errors, and are safe to compute across threads
(chunks draw from disjoint seed substreams and the reduction is
order-insensitive).
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Union

import numpy as np

from .coeffs import CoeffValue, Interval, MultiIndex, WeightSpec, coefficient_table
from .expansion import CHUNK_FLOATS, GaussianDraw, IndexPattern, expansion_plan
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


def _exclusive_cumsum(c: np.ndarray) -> np.ndarray:
    out = np.empty_like(c)
    out[..., 0] = 0.0
    np.cumsum(c[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _iterated_sums(increments: Mapping[int, np.ndarray], w: WeightSpec,
                   pattern: IndexPattern, interval: Interval) -> np.ndarray:
    n_steps = next(iter(increments.values())).shape[-1]
    dt = float(interval.length) / n_steps
    s_rel = np.arange(n_steps) * dt
    running = None
    for level, (label, q) in enumerate(zip(pattern.labels, w.exponents)):
        c = increments[label] * s_rel ** q if q else increments[label]
        if running is not None:
            c = c * running
        if level < pattern.k - 1:
            running = _exclusive_cumsum(c)
    return c.sum(axis=-1)


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
    if not batched:
        rows = {label: row[np.newaxis, :] for label, row in rows.items()}
    out = _iterated_sums(rows, w, pattern, interval)
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


def empirical_mse(cfg: McConfig, table: Mapping[MultiIndex, CoeffValue], *,
                  threads: int = 1) -> McEstimate:
    """Coupled estimate of the mean-square truncation error.

    Averages (J_true - J_p)^2 over paths, where both values come from the
    same increments. Returns the mean and its batch-means standard error.
    Identical configurations produce bit-identical results regardless of
    the thread count.
    """
    distinct = sorted(set(cfg.pattern.labels))
    nonzero = [label for label in distinct if label != 0]
    length = float(cfg.interval.length)
    dt = length / cfg.n_steps
    phi = _phi_matrix(cfg.p, cfg.n_steps, cfg.interval)
    plan = expansion_plan(cfg.pattern, cfg.p, table)

    chunk = max(1, CHUNK_FLOATS // cfg.n_steps)
    starts = range(0, cfg.n_paths, chunk)
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(starts))
    sq = np.empty(cfg.n_paths)

    def run_chunk(idx: int, start: int):
        stop = min(start + chunk, cfg.n_paths)
        rng = np.random.default_rng(seeds[idx])
        incr = {}
        for label in nonzero:
            incr[label] = rng.standard_normal((stop - start, cfg.n_steps))
            incr[label] *= math.sqrt(dt)
        if 0 in distinct:
            incr[0] = np.full((stop - start, cfg.n_steps), dt)
        j_true = _iterated_sums(incr, cfg.weights, cfg.pattern, cfg.interval)
        zeta = {label: row @ phi for label, row in incr.items()}
        j_p = plan.values(zeta, length)
        sq[start:stop] = (j_true - j_p) ** 2

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, range(len(starts)), starts))
    else:
        for idx, start in enumerate(starts):
            run_chunk(idx, start)

    estimate = math.fsum(sq) / cfg.n_paths
    n_batches = min(_N_BATCHES, cfg.n_paths)
    means = [float(b.mean()) for b in np.array_split(sq, n_batches)]
    stderr = float(np.std(means, ddof=1)) / math.sqrt(n_batches)
    return McEstimate(estimate=estimate, standard_error=stderr)


def run_report(cfg: McConfig, *,
               table: Optional[Mapping[MultiIndex, CoeffValue]] = None,
               threads: int = 1, cache_dir=None) -> dict:
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

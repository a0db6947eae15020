"""Truncated expansions of iterated Ito integrals over Gaussian draws.

A truncated expansion is a linear combination of products of independent
standard Gaussians zeta_j^(i) (one family per Wiener component) minus
correction terms that remove the diagonal contributions. The corrections
are generated combinatorially: every partial matching of positions that
share a nonzero component label contributes a signed term, the sign being
(-1)^(number of pairs). This generator reproduces the hand-written
expansions for multiplicities 1 through 5 term by term; larger
multiplicities are produced by the same rule but are flagged experimental.

``expansion_plan`` sums the table's integer cores over the orbits of the
pattern's block permutations, through the table's shell-wise orbit
grouping that the exact error uses too, and rounds once per orbit, so
cancellations such as C(0,1) + C(1,0) = 0 hold by construction.
``realize`` and the Monte Carlo both evaluate their draws through such a
plan.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Union

import numpy as np

from .coeffs import (
    CoeffTable,
    Interval,
    MissingCoefficientError,  # raised by CoeffTable; re-exported here
    require_table,
)

CERTIFIED_MAX_K = 5
CHUNK_FLOATS = 4_194_304  # floats per work unit: paths x steps, gathers


class ExperimentalWarning(UserWarning):
    """Raised for multiplicities beyond the certified range."""


@dataclass(frozen=True)
class IndexPattern:
    """Component labels (i_1, ..., i_k) of an iterated integral.

    Label 0 denotes the time component; labels >= 1 name Wiener components.
    Only the coincidence structure matters: which positions carry equal
    nonzero labels. ``zero_positions`` is derived once per pattern and
    ``blocks``, which ``coincidence_key`` reads, on every read: a cache
    costs more than it saves on a pattern read once.
    """

    labels: tuple[int, ...]

    def __post_init__(self):
        labels = tuple(map(operator.index, self.labels))
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("pattern must have at least one position")
        if any(i < 0 for i in labels):
            raise ValueError(f"labels must be nonnegative, got {labels}")

    @classmethod
    def parse(cls, text: str) -> "IndexPattern":
        """Parse a comma-separated label list such as '1,1,2'."""
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValueError(f"cannot parse pattern {text!r}: {exc}") from exc

    @property
    def k(self) -> int:
        return len(self.labels)

    def __getstate__(self):
        # the labels alone: derived structure is not pickled
        return {"labels": self.labels}

    @cached_property
    def zero_positions(self) -> tuple[int, ...]:
        """Positions carrying the time component (0-based)."""
        return tuple(l for l, i in enumerate(self.labels) if i == 0)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Groups of positions sharing a nonzero label, singletons included."""
        seen: dict[int, list[int]] = {}
        for pos, label in enumerate(self.labels):
            if label != 0:
                seen.setdefault(label, []).append(pos)
        # a dict keeps first-occurrence order: blocks by first position
        return tuple(map(tuple, seen.values()))

    @property
    def coincidence_key(self) -> tuple[tuple[int, ...], ...]:
        """Blocks of size >= 2, ordered as in ``blocks``: a canonical key."""
        return tuple(b for b in self.blocks if len(b) > 1)


@dataclass(frozen=True)
class MatchingTerm:
    """One signed correction term: matched pairs plus free positions."""

    pairs: tuple[tuple[int, int], ...]
    free_positions: tuple[int, ...]
    sign: int


def enumerate_matchings(pattern: IndexPattern) -> list[MatchingTerm]:
    """All partial matchings within equal-nonzero-label position groups.

    Includes the empty matching (sign +1, every position free). Terms come
    out in a deterministic order.
    """
    if pattern.k > CERTIFIED_MAX_K:
        warnings.warn(
            f"matching generation for multiplicity {pattern.k} is experimental "
            f"(certified up to {CERTIFIED_MAX_K})", ExperimentalWarning,
            stacklevel=2)
    labels = pattern.labels
    terms: list[MatchingTerm] = []

    def walk(avail: tuple[int, ...], pairs: tuple[tuple[int, int], ...]):
        if not avail:
            matched = {p for pair in pairs for p in pair}
            free = tuple(l for l in range(pattern.k) if l not in matched)
            terms.append(MatchingTerm(pairs=pairs, free_positions=free,
                                      sign=-1 if len(pairs) % 2 else 1))
            return
        u, rest = avail[0], avail[1:]
        walk(rest, pairs)  # u stays free
        for idx, v in enumerate(rest):
            if labels[u] == labels[v] != 0:
                walk(rest[:idx] + rest[idx + 1:], pairs + ((u, v),))

    walk(tuple(range(pattern.k)), ())
    return terms


@dataclass(frozen=True, eq=False, slots=True)
class GaussianDraw:
    """One realization of the Gaussian families feeding an expansion.

    ``zeta[i][j]`` holds zeta_j^(i) for each distinct label i of the
    pattern. For nonzero labels the entries are independent standard
    normals; the time-component row (label 0) is deterministic,
    sqrt(length) at mode 0 and zero elsewhere.
    """

    length: float
    zeta: Mapping[int, np.ndarray] = field(repr=False)

    @property
    def truncation(self) -> int:
        return min(len(row) for row in self.zeta.values()) - 1


def sample_draw(pattern: IndexPattern, p: int, seed: int,
                interval: Union[Interval, float] = 1.0) -> GaussianDraw:
    """Reproducible draw for all labels of the pattern, modes 0..p.

    The same seed always yields the same draw. Distinct labels get
    independent rows, sampled in sorted label order.
    """
    length = float(interval.length) if isinstance(interval, Interval) \
        else float(interval)
    rng = np.random.default_rng(seed)
    zeta: dict[int, np.ndarray] = {}
    for label in sorted(set(pattern.labels)):
        if label == 0:
            row = np.zeros(p + 1)
            row[0] = math.sqrt(length)
        else:
            row = rng.standard_normal(p + 1)
        zeta[label] = row
    return GaussianDraw(length=length, zeta=zeta)


@dataclass(frozen=True, eq=False)
class ExpansionPlan:
    """The truncated expansion at order p, summed over orbits in advance.

    One entry per orbit with a nonzero core sum: its length-free
    coefficient and the signed matching terms active at one member, each
    term k columns into the concatenated zeta rows (distinct labels sorted,
    p + 1 modes each) padded by a trailing column of ones.
    """

    labels: tuple[int, ...]
    p: int
    half_power: int
    coefficients: np.ndarray  # per orbit
    bounds: np.ndarray  # per orbit, then the end: first term of each
    columns: np.ndarray  # per term
    signs: np.ndarray  # per term

    def values(self, zeta: Mapping[int, np.ndarray],
               length: float) -> np.ndarray:
        """Expansion values for a batch of draws, one row of ``zeta`` each.

        Each orbit's bracket of terms is summed before it is multiplied by
        the orbit's coefficient; gathered factors stay within CHUNK_FLOATS.
        """
        width = self.p + 1
        rows = [np.atleast_2d(zeta[label]) for label in self.labels]
        if min(row.shape[1] for row in rows) < width:
            raise ValueError(f"the draw has fewer than the {width} modes "
                             "the expansion needs")
        n = len(rows[0])
        z = np.concatenate([row[:, :width] for row in rows]
                           + [np.ones((n, 1))], axis=1)
        coef = self.coefficients * length ** (self.half_power // 2) \
            * (math.sqrt(length) if self.half_power % 2 else 1.0)
        per_block = max(1, CHUNK_FLOATS // (n * self.columns.shape[1]))
        out = np.zeros(n)
        lo, ends = 0, self.bounds
        while lo < len(coef):  # blocks of whole orbits, at least one each
            hi = max(lo + 1, int(np.searchsorted(
                ends, ends[lo] + per_block, side="right")) - 1)
            t0, t1 = ends[lo], ends[hi]
            prods = z[:, self.columns[t0:t1]].prod(axis=2) * self.signs[t0:t1]
            brackets = np.add.reduceat(prods, ends[lo:hi] - t0, axis=1)
            out += (brackets * coef[lo:hi]).sum(axis=1)
            lo = hi
        return out


def expansion_plan(pattern: IndexPattern, p: int,
                   table: CoeffTable) -> ExpansionPlan:
    """Orbit-summed plan of the truncated expansion at order p.

    Terms for j and for a block permutation of j are the same random
    variable, so the cores are summed over each orbit as exact integers
    over the table's lcm D and converted to a float once per orbit; orbits
    whose sum is exactly zero, such as every orbit but (0, 0) of an equal
    pair, are dropped. Each orbit is represented by its lexicographically
    first member with a nonzero core, in that member's order. ``table``
    must be a ``CoeffTable`` (TypeError otherwise).
    """
    require_table(table)
    k = pattern.k
    table._check_covers((p,) * k)
    terms = enumerate_matchings(pattern)
    labels = tuple(sorted(set(pattern.labels)))
    offset = [labels.index(label) * (p + 1) for label in pattern.labels]
    reps, weights, sums = table._shell_orbits(pattern.coincidence_key,
                                              range(p + 1))
    keep = np.flatnonzero(sums)
    reps = reps[keep]
    coefficients = np.array([s / table._lcm for s in sums[keep].tolist()]) \
        * 2.0 ** -table.two_power * np.sqrt(weights[keep].astype(float))
    # the matching terms active at each orbit's member, orbit by orbit
    active = np.ones((len(reps), len(terms)), dtype=bool)
    columns = np.full((len(reps), len(terms), k), len(labels) * (p + 1),
                      dtype=np.intp)
    for t, term in enumerate(terms):
        for a, b in term.pairs:
            active[:, t] &= reps[:, a] == reps[:, b]
        for slot, pos in enumerate(term.free_positions):
            columns[:, t, slot] = offset[pos] + reps[:, pos]
    signs = np.array([float(term.sign) for term in terms])
    return ExpansionPlan(
        labels=labels, p=p, half_power=table.half_power,
        coefficients=coefficients,
        bounds=np.concatenate(([0], np.cumsum(active.sum(axis=1)))),
        columns=columns[active],
        signs=np.broadcast_to(signs, active.shape)[active])


def realize(pattern: IndexPattern, p: int, table: CoeffTable,
            draw: GaussianDraw) -> float:
    """Value of the truncated expansion at truncation order p on one draw.

    A batch of one through ``expansion_plan``; draw rows may carry more
    than p + 1 modes.
    """
    plan = expansion_plan(pattern, p, table)
    return float(plan.values(draw.zeta, draw.length)[0])

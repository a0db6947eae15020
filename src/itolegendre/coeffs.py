"""Fourier-Legendre coefficients of the ordered-simplex kernel.

The kernel on [t, T]^k is the product of monomial weights (s - t)^q_l
restricted to the ordered region t_1 < ... < t_k. Its projection onto a
product of orthonormal Legendre basis functions is computed exactly by
nested antidifferentiation on [-1, 1]^k and stored scale-free: a rational
core together with sqrt, interval-power and dyadic factors. One table
therefore serves every interval length. One routine integrates every core
of a table, a single coefficient and the kernel norm.

A table is an immutable ``CoeffTable``: a read-only mapping from
multi-index to ``CoeffValue`` that knows its weights and truncation order.
It stores only the flat lexicographic list of integer numerators n_j over
one table-wide lcm D, with the half and dyadic powers every entry shares,
and builds a ``CoeffValue`` when an entry is read. On first use by the
exact error it derives, once, the prefix sums of w(j) * n_j^2 with w(j) =
prod(2 j_l + 1), so that the squared sum over any box {0..p_1} x ... x
{0..p_k} is one lookup. A block permutation keeps an entry's largest mode
s, so no orbit crosses the shell of entries of largest mode s, and one
grouping of a range of shells by orbit serves the exact error's double sum
``CoeffTable.orbit_square_sum``, a Python integer over D^2 memoized per
set of blocks and grown shell by shell, and ``expansion.expansion_plan``.

Coefficient tables can be persisted as checksummed JSON documents; see
``save_table`` / ``load_table``; a load parses each stored core "n/d" as
two integers straight into that form. The cache directory defaults to the
``COEFF_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import re
import tempfile
from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .polycore import ONE, Poly, RationalLike, legendre

MultiIndex = tuple[int, ...]

DEFAULT_DEGREE_CAP = 30
DEFAULT_EXPONENT_CAP = 5
# largest (p + 1)^k a table may have; beyond it the build would not finish
MAX_TABLE_ENTRIES = 10 ** 6
CACHE_ENV_VAR = "COEFF_CACHE_DIR"
CACHE_SCHEMA_VERSION = 1
# a stored core: an integer over a positive integer
_CORE = re.compile(r"(-?[0-9]+)/(0*[1-9][0-9]*)")


class DegreeCapError(ValueError):
    """A requested mode number, weight exponent or table size exceeds its cap."""


class CacheIntegrityError(RuntimeError):
    """A coefficient cache file is unreadable or fails its checksum."""


class MissingCoefficientError(LookupError):
    """A computation requested a coefficient absent from the table."""


@dataclass(frozen=True)
class Interval:
    """Closed time interval [t, T] with exact rational endpoints; its
    ``length`` T - t is derived once and left out of ==, hash and repr."""

    t: Fraction
    T: Fraction
    length: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "T", Fraction(self.T))
        if self.T <= self.t:
            raise ValueError(f"interval must have T > t, got [{self.t}, {self.T}]")
        object.__setattr__(self, "length", self.T - self.t)

    @classmethod
    def from_length(cls, length: Union[RationalLike, str, float]) -> "Interval":
        """Interval [0, length]; strings are parsed as exact decimals."""
        return cls(Fraction(0), Fraction(length))


@dataclass(frozen=True)
class WeightSpec:
    """Monomial weights psi_l(s) = (s - t)^q_l, one exponent per level."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(map(operator.index, self.exponents))
        object.__setattr__(self, "exponents", exps)
        if not 1 <= len(exps) <= 8:
            raise ValueError(f"multiplicity must be 1..8, got {len(exps)}")
        if any(q < 0 for q in exps):
            raise ValueError(f"weight exponents must be nonnegative, got {exps}")

    @classmethod
    def unit(cls, k: int) -> "WeightSpec":
        """All-ones weights (every exponent zero) at multiplicity k."""
        return cls((0,) * k)

    @property
    def k(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class CoeffValue:
    """Exact coefficient split into rational core and scale factors.

    The reconstructed value is

        core * prod(sqrt(f) for f in sqrt_factors)
             * length ** (half_power / 2) * 2 ** (-two_power),

    where ``length`` is the interval length T - t. For a coefficient with
    modes (j_1, ..., j_k) and weight exponents (q_1, ..., q_k) the factors
    are sqrt_factors = (2 j_l + 1), half_power = k + 2 sum(q) and
    two_power = k + sum(q).
    """

    core: Fraction
    sqrt_factors: tuple[int, ...]
    half_power: int
    two_power: int

    def value(self, interval: Union[Interval, RationalLike, float]) -> float:
        """Reconstructed floating-point value on the given interval."""
        length = float(interval.length) if isinstance(interval, Interval) \
            else float(interval)
        v = float(self.core) * 2.0 ** (-self.two_power)
        # sorted order keeps sign-flipped cores exact negations of each other
        for f in sorted(self.sqrt_factors):
            v *= math.sqrt(f)
        v *= length ** (self.half_power // 2)
        if self.half_power % 2:
            v *= math.sqrt(length)
        return v


class CoeffTable(Mapping[MultiIndex, CoeffValue]):
    """Immutable table of the (p + 1)^k coefficients of one weight spec.

    A read-only mapping from multi-index to ``CoeffValue`` that iterates in
    lexicographic order. It stores the cores only as integer numerators
    over one table-wide lcm D, in flat lexicographic order, together with
    the ``half_power`` and ``two_power`` every entry shares; a
    ``CoeffValue`` is built when an entry is read. ``numerators`` must
    hold the (p + 1)^k entries {0..p}^k in lexicographic order; the
    constructor reduces them and D by their common divisor, so equal cores
    give equal tables. The prefix sums of w(j) * n_j^2 and the grid of the
    nonzero entries, ordered by shell of largest mode, are each derived
    once, on first use; ``orbit_square_sum`` keeps, for each set of blocks,
    the double sums of the orders whose shells it has grouped. All of it
    derives from the numerators alone and never leaves the table.
    """

    def __init__(self, weights: WeightSpec, p: int,
                 numerators: Iterable[int], denominator: int):
        nums = list(numerators)
        if len(nums) != (p + 1) ** weights.k:
            raise ValueError(f"{len(nums)} numerators for a table of "
                             f"{(p + 1) ** weights.k} entries")
        if denominator < 1:
            raise ValueError(f"denominator must be positive, got {denominator}")
        g = math.gcd(denominator, *nums)
        if g > 1:
            nums, denominator = [n // g for n in nums], denominator // g
        half_power, two_power = _scale_powers(weights)
        for name, value in (("weights", weights), ("p", p),
                            ("half_power", half_power), ("two_power", two_power),
                            ("_nums", nums), ("_lcm", denominator),
                            ("_orbit_memo", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getitem__(self, j: MultiIndex) -> CoeffValue:
        try:
            modes = [operator.index(m) for m in j]
        except TypeError:
            raise KeyError(j) from None
        if not isinstance(j, tuple) or len(modes) != self.weights.k \
                or not all(0 <= m <= self.p for m in modes):
            raise KeyError(j)
        flat = 0
        for m in modes:
            flat = flat * (self.p + 1) + m
        return CoeffValue(Fraction(self._nums[flat], self._lcm),
                          tuple(2 * m + 1 for m in modes),
                          self.half_power, self.two_power)

    def __iter__(self):
        return itertools.product(range(self.p + 1), repeat=self.weights.k)

    def __len__(self) -> int:
        return len(self._nums)

    def _values(self):
        # every entry in flat order: one gcd per entry, no index arithmetic
        odd = [2 * m + 1 for m in range(self.p + 1)]
        lcm, half_power, two_power = self._lcm, self.half_power, self.two_power
        for n, factors in zip(self._nums,
                              itertools.product(odd, repeat=self.weights.k)):
            yield CoeffValue(Fraction(n, lcm), factors, half_power, two_power)

    def items(self) -> ItemsView:
        return _TableItems(self)

    def values(self) -> ValuesView:
        return _TableValues(self)

    def __eq__(self, other):
        if isinstance(other, CoeffTable):
            return (self.weights, self.p, self._lcm, self._nums) \
                == (other.weights, other.p, other._lcm, other._nums)
        return super().__eq__(other)

    def _check_covers(self, p_levels: Sequence[int]) -> None:
        # name the lexicographically first multi-index of the box that the
        # table lacks: the last level beyond p at p + 1, zeros elsewhere
        k = self.weights.k
        if min(p_levels, default=0) < 0:
            raise ValueError(
                f"truncation orders must be nonnegative: {tuple(p_levels)}")
        if len(p_levels) != k:
            missing = (0,) * len(p_levels)
        elif max(p_levels) > self.p:
            last = max(l for l, top in enumerate(p_levels) if top > self.p)
            missing = tuple(self.p + 1 if l == last else 0 for l in range(k))
        else:
            return
        raise MissingCoefficientError(
            f"coefficient table does not cover multi-index {missing}; "
            "recompute it with a large enough truncation order")

    @cached_property
    def _square_prefix(self) -> list[int]:
        # inclusive k-dimensional prefix sums of w(j) * n_j^2, flat
        side = self.p + 1
        w_of = [1]
        for _ in range(self.weights.k):
            w_of = [a * (2 * m + 1) for a in w_of for m in range(side)]
        acc = [wt * n * n for wt, n in zip(w_of, self._nums)]
        stride = 1
        for _ in range(self.weights.k):
            for lo in range(0, len(acc), stride * side):
                for i in range(lo + stride, lo + stride * side):
                    acc[i] += acc[i - stride]
            stride *= side
        return acc

    def square_sum(self, p_levels: Sequence[int]) -> tuple[int, int]:
        """Sum of w(j) * n_j^2 over the box {0..p_1} x ... x {0..p_k}, where
        C(j) = n_j / D, and D: one lookup."""
        self._check_covers(p_levels)
        return self._error_sums(p_levels, ())[0], self._lcm

    @cached_property
    def _mode_grid(self) -> tuple[np.ndarray, ...]:
        # the entries with a nonzero core, stably ordered by largest mode, so
        # lexicographic within a shell: their flat positions, modes, w(j) and
        # numerators as Python ints (object dtype), and the shell ends; rows
        # ends[s]:ends[s + 1] are the shell of largest mode s
        k = self.weights.k
        nums = np.array(self._nums, dtype=object)
        flat = np.flatnonzero(nums)
        modes = np.indices((self.p + 1,) * k, dtype=np.int64).reshape(k, -1).T
        top = modes[flat].max(axis=1)
        order = np.argsort(top, kind="stable")
        flat, modes = flat[order], modes[flat[order]]
        ends = np.searchsorted(top[order], np.arange(self.p + 2))
        return (flat, modes, np.prod(2 * modes + 1, axis=1, dtype=object),
                nums[flat], ends)

    def _orbit_groups(self, blocks: Sequence[Sequence[int]],
                      ) -> tuple[tuple[int, ...], ...]:
        # the blocks of two or more positions, each sorted, in sorted order:
        # the memo key; every position must be a distinct int in 0..k - 1
        groups, count, seen = [], 0, set()
        try:
            for b in blocks:
                b = sorted(map(operator.index, b))
                count += len(b)
                seen.update(b)
                if len(b) > 1:
                    groups.append(tuple(b))
        except TypeError:
            raise ValueError(
                f"blocks must hold integer positions, got {blocks}") from None
        if len(seen) != count or not seen.issubset(range(self.weights.k)):
            raise ValueError(
                f"blocks must hold distinct positions in 0..{self.weights.k - 1}"
                f", got {blocks}")
        return tuple(sorted(groups))

    def _shell_orbits(self, groups: Sequence[Sequence[int]], shells: range,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the orbits of the nonzero entries of the given shells under the
        # permutations within groups, ordered by their lexicographically
        # first member: its modes, w and the orbit's sum of numerators; an
        # orbit lies in one shell, whose rows run in that order
        flat, modes, weights, nums, ends = self._mode_grid
        lo, hi = ends[shells.start], ends[shells.stop]
        if lo == hi:
            return modes[:0], weights[:0], nums[:0]
        side = shells.stop  # every mode of these shells is below it
        rows = modes[lo:hi]
        canon = rows.copy()
        for b in groups:
            canon[:, b] = _sorted_rows(rows[:, b], side)[0]
        key = canon @ side ** np.arange(self.weights.k)
        order = np.argsort(key)
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        sums = np.add.reduceat(nums[lo:hi][order], starts)
        first = lo + np.minimum.reduceat(order, starts)
        by_member = np.argsort(flat[first])
        first = first[by_member]
        return modes[first], weights[first], sums[by_member]

    def orbit_square_sum(self, p: int, blocks: Sequence[Sequence[int]]) -> int:
        """Sum over the orbits O of {0..p}^k under the permutations within
        each block of |Stab(O)| * w(O) * S_O^2, where S_O sums the numerators
        n_j over O: the double sum of the exact error, as an integer over D^2.

        A trivial group is one ``square_sum`` lookup. For any other group
        the table keeps, under the blocks of two or more positions, the
        double sums of the orders grouped so far; a call at a higher order
        groups only the shells up to p that are missing, so each nonzero
        entry is grouped once per set of blocks. All of it stays in Python
        integers. Blocks whose positions are not distinct ints in 0..k - 1,
        or a negative order, raise ValueError.
        """
        groups = self._orbit_groups(blocks)
        self._check_covers((p,) * self.weights.k)
        return self._error_sums((p,) * self.weights.k, groups)[1]

    def _error_sums(self, p_levels: Sequence[int],
                    groups: tuple[tuple[int, ...], ...]) -> tuple[int, int]:
        # ``square_sum`` and ``orbit_square_sum`` (at p_levels[0]), unchecked:
        # the box is covered, groups a canonical key, orders equal if it is set
        flat = 0
        for top in p_levels:
            flat = flat * (self.p + 1) + top
        squares = self._square_prefix[flat]
        if not groups:
            return squares, squares
        p = p_levels[0]
        totals = self._orbit_memo.get(groups, ())
        if p < len(totals):
            return squares, totals[p]
        reps, stab, sums = self._shell_orbits(groups, range(len(totals), p + 1))
        for b in groups:
            stab = stab * _sorted_rows(reps[:, b], p + 1)[1]
        tops, terms = reps.max(axis=1), stab * sums * sums
        shells = [terms[tops == s].sum() for s in range(len(totals), p + 1)]
        # the longer tuple is stored whole, so no thread reads a half-built one
        totals = self._orbit_memo[groups] = totals + tuple(itertools.accumulate(
            shells, initial=totals[-1] if totals else 0))[1:]
        return squares, totals[p]


@lru_cache(maxsize=64)
def _sorted_tuples(side: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # every m-tuple of modes below side, in lexicographic order, sorted, and
    # its stabilizer's order: the product of the factorials of its run lengths
    tuples = np.sort(np.indices((side,) * m).reshape(m, -1).T, axis=1)
    stab = np.ones(len(tuples), dtype=np.int64)
    run = 1
    for pos in range(1, m):
        run = np.where(tuples[:, pos] == tuples[:, pos - 1], run + 1, 1)
        stab *= run
    return tuples, stab


def _sorted_rows(rows: np.ndarray, side: int) -> tuple[np.ndarray, np.ndarray]:
    # each row of modes below side sorted, and its stabilizer's order
    tuples, stab = _sorted_tuples(side, rows.shape[1])
    at = rows @ side ** np.arange(rows.shape[1] - 1, -1, -1)
    return tuples[at], stab[at]


class _TableItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._values())


class _TableValues(ValuesView):
    def __iter__(self):
        return self._mapping._values()


def _scale_powers(w: WeightSpec) -> tuple[int, int]:
    # half_power and two_power of every coefficient under w
    return w.k + 2 * sum(w.exponents), w.k + sum(w.exponents)


def _over_lcm(w: WeightSpec, p: int, nums: Sequence[int],
              dens: Sequence[int]) -> CoeffTable:
    # the table of cores nums[i] / dens[i], as integers over their lcm
    distinct = set(dens)
    lcm = math.lcm(*distinct)
    scale = {d: lcm // d for d in distinct}
    return CoeffTable(w, p, [n * scale[d] for n, d in zip(nums, dens)], lcm)


def require_table(table) -> None:
    """Raise TypeError unless ``table`` is a ``CoeffTable``."""
    if not isinstance(table, CoeffTable):
        raise TypeError(
            f"expected a CoeffTable from coefficient_table or load_table, "
            f"got {type(table).__name__}")


def checked_table(w: WeightSpec, p_levels: Sequence[int],
                  table: Optional[CoeffTable] = None) -> CoeffTable:
    """``table``, or ``coefficient_table(w, max(p_levels))`` when it is None,
    once it is known to fit: a ``CoeffTable`` (TypeError otherwise) that
    covers the box {0..p_1} x ... x {0..p_k} (ValueError for a negative
    order, MissingCoefficientError naming the first missing multi-index)
    and was built for ``w`` (ValueError otherwise)."""
    if table is None:
        table = coefficient_table(w, max(p_levels))
    require_table(table)
    table._check_covers(p_levels)
    if table.weights != w:
        raise ValueError(
            f"coefficient table was not built for weight exponents {w.exponents}")
    return table


def _check_caps(w: WeightSpec, max_mode: int, entries: int, degree_cap: int):
    if max_mode > degree_cap:
        raise DegreeCapError(
            f"mode {max_mode} exceeds the degree cap {degree_cap}")
    worst = max(w.exponents)
    if worst > DEFAULT_EXPONENT_CAP:
        raise DegreeCapError(f"weight exponent {worst} exceeds the exponent "
                             f"cap {DEFAULT_EXPONENT_CAP}")
    if entries > MAX_TABLE_ENTRIES:
        raise DegreeCapError(
            f"{entries} table entries requested; the limit is "
            f"{MAX_TABLE_ENTRIES}")


def _simplex_cores(exponents: Sequence[int],
                   modes: Sequence[Sequence[int]]) -> list[Fraction]:
    # Cores of modes[0] x ... x modes[k - 1], in that (lexicographic) order:
    # the nested integral over -1 < x_1 < ... < x_k < 1 of
    # prod (x_l + 1)^q_l P_{j_l}(x_l), j_1 innermost. Sibling multi-indices
    # share their inner integrals; the shifts (x + 1)^q are derived per call.
    shifts = [Poly([math.comb(q, i) for i in range(q + 1)]) for q in exponents]
    out: list[Fraction] = []

    def descend(level: int, g: Poly):
        if level == len(shifts):
            out.append(g(1))
            return
        base = shifts[level] * g
        for mode in modes[level]:
            descend(level + 1, (base * legendre(mode)).antiderivative_from(-1))

    descend(0, ONE)
    return out


def fourier_coefficient(j: Iterable[int], w: WeightSpec, *,
                        degree_cap: int = DEFAULT_DEGREE_CAP) -> CoeffValue:
    """Exact kernel projection onto phi_{j_1} x ... x phi_{j_k}.

    ``j`` lists modes in integration order: j[0] belongs to the innermost
    integration variable. The interval enters only through reconstruction,
    see ``CoeffValue.value``.
    """
    j = tuple(map(operator.index, j))
    if len(j) != w.k:
        raise ValueError(f"multi-index length {len(j)} != multiplicity {w.k}")
    if any(m < 0 for m in j):
        raise ValueError(f"modes must be nonnegative, got {j}")
    _check_caps(w, max(j), 1, degree_cap)
    core, = _simplex_cores(w.exponents, [(m,) for m in j])
    return CoeffValue(core, tuple(2 * m + 1 for m in j), *_scale_powers(w))


@lru_cache(maxsize=256)
def kernel_norm(w: WeightSpec) -> CoeffValue:
    """Exact squared L2 norm of the simplex kernel, in the same split.

    This is the integral of K^2 over the hypercube, i.e. the nested simplex
    integral of prod psi_l^2. Reconstruct with ``CoeffValue.value``.
    """
    core, = _simplex_cores([2 * q for q in w.exponents], [(0,)] * w.k)
    m = w.k + 2 * sum(w.exponents)
    return CoeffValue(core=core, sqrt_factors=(), half_power=2 * m, two_power=m)


def coefficient_table(w: WeightSpec, p: int, *,
                      cache_dir: Optional[Union[str, Path]] = None,
                      degree_cap: int = DEFAULT_DEGREE_CAP) -> CoeffTable:
    """All (p + 1)^k coefficients, in lexicographic multi-index order.

    A request for more than MAX_TABLE_ENTRIES entries raises DegreeCapError
    before any work starts.

    Served from the on-disk cache when a cache directory is available
    (explicit argument, else the COEFF_CACHE_DIR environment variable);
    computed and stored otherwise.
    """
    if p < 0:
        raise ValueError(f"truncation order must be nonnegative, got {p}")
    _check_caps(w, p, (p + 1) ** w.k, degree_cap)

    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR) or None
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"{table_key(w, p, degree_cap)}.json"
        if path.exists():
            stored_w, stored_p, table = load_table(path)
            if stored_w != w or stored_p != p:
                raise CacheIntegrityError(
                    f"cache file {path} holds table for {stored_w}, "
                    f"p={stored_p}; expected {w}, p={p}")
            return table

    cores = _simplex_cores(w.exponents, [range(p + 1)] * w.k)
    table = _over_lcm(w, p, [c.numerator for c in cores],
                      [c.denominator for c in cores])
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_table(path, w, p, table, degree_cap=degree_cap)
    return table


def table_key(w: WeightSpec, p: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> str:
    """Stable cache key for a table of coefficients."""
    q = "-".join(str(e) for e in w.exponents)
    return f"coeffs_k{w.k}_q{q}_p{p}_cap{degree_cap}"


def _payload(w: WeightSpec, p: int, table: CoeffTable,
             degree_cap: int) -> dict:
    lcm = table._lcm

    def core(n: int) -> str:
        g = math.gcd(n, lcm)
        return f"{n // g}/{lcm // g}"

    entries = [
        {
            "j": list(j),
            "core": core(n),
            "half_power": table.half_power,
            "two_power": table.two_power,
        }
        for j, n in zip(table, table._nums)
    ]
    return {
        "schema_version": CACHE_SCHEMA_VERSION,
        "k": w.k,
        "exponents": list(w.exponents),
        "p": p,
        "degree_cap": degree_cap,
        "entries": entries,
    }


def _checksum(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_table(path: Union[str, Path], w: WeightSpec, p: int,
               table: CoeffTable, *,
               degree_cap: int = DEFAULT_DEGREE_CAP) -> None:
    """Write a table as deterministic, checksummed JSON (atomic replace).

    ``table`` must be a ``CoeffTable`` (TypeError otherwise) built for
    ``w`` and ``p`` (ValueError otherwise).
    """
    require_table(table)
    if (table.weights, table.p) != (w, p):
        raise ValueError(f"table was built for {table.weights}, p={table.p}; "
                         f"cannot save it as {w}, p={p}")
    payload = _payload(w, p, table, degree_cap)
    doc = dict(payload)
    doc["checksum"] = _checksum(payload)
    path = Path(path)
    # a temporary file of its own, so concurrent writers of one key never
    # share a partial file
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_table(path: Union[str, Path],
               ) -> tuple[WeightSpec, int, CoeffTable]:
    """Read a table back, verifying its checksum and its entries.

    Raises CacheIntegrityError on malformed JSON, missing fields, a checksum
    mismatch, a stored k, p or exponent that is not an integer (a bool is
    not), k other than the number of exponents, entries other than {0..p}^k
    in lexicographic order with the powers of the stored weights, or a core
    other than an integer over a positive integer ("n/d").
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheIntegrityError(f"cannot read cache file {path}: {exc}") from exc
    try:
        stored = doc.pop("checksum")
        if doc["schema_version"] != CACHE_SCHEMA_VERSION:
            raise CacheIntegrityError(
                f"cache file {path} has schema {doc['schema_version']}, "
                f"expected {CACHE_SCHEMA_VERSION}")
        if _checksum(doc) != stored:
            raise CacheIntegrityError(f"checksum mismatch in cache file {path}")
        k, p, exponents = doc["k"], doc["p"], doc["exponents"]
        # a bool or a float is refused, not coerced
        if not (type(k) is int and type(p) is int and type(exponents) is list
                and all(type(q) is int for q in exponents)
                and k == len(exponents)):
            raise CacheIntegrityError(
                f"cache file {path} does not store k, p and k exponents as "
                "integers")
        w = WeightSpec(tuple(exponents))
        entries = doc["entries"]
        powers = _scale_powers(w)
        if p < 0 or len(entries) != (p + 1) ** w.k or not all(
                tuple(e["j"]) == j and (e["half_power"], e["two_power"]) == powers
                for e, j in zip(entries, itertools.product(range(p + 1),
                                                           repeat=w.k))):
            raise CacheIntegrityError(
                f"cache file {path} does not hold {{0..{p}}}^{w.k} in "
                "lexicographic order with the powers of its weights")
        cores = [_CORE.fullmatch(e["core"]) for e in entries]
        if not all(cores):
            raise CacheIntegrityError(
                f"cache file {path} holds a core that is not an integer over "
                "a positive integer")
        nums = [int(c[1]) for c in cores]
        dens = [int(c[2]) for c in cores]
    except CacheIntegrityError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CacheIntegrityError(f"malformed cache file {path}: {exc}") from exc
    return w, p, _over_lcm(w, p, nums, dens)

"""Fourier-Legendre coefficients of the ordered-simplex kernel.

The kernel on [t, T]^k is the product of monomial weights (s - t)^q_l
restricted to the ordered region t_1 < ... < t_k. Its projection onto a
product of orthonormal Legendre basis functions is computed exactly by
nested antidifferentiation on [-1, 1]^k and stored scale-free: a rational
core together with sqrt, interval-power and dyadic factors. One table
therefore serves every interval length. ``orbit_sums`` adds the cores of
a table, as exact integers, over the orbits of a pattern's block
permutations; the exact error and the expansion both read them.

Coefficient tables can be persisted as checksummed JSON documents; see
``save_table`` / ``load_table``. The cache directory defaults to the
``COEFF_CACHE_DIR`` environment variable.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .polycore import ONE, Poly, RationalLike, legendre

MultiIndex = tuple[int, ...]

DEFAULT_DEGREE_CAP = 30
DEFAULT_EXPONENT_CAP = 5
CACHE_ENV_VAR = "COEFF_CACHE_DIR"
CACHE_SCHEMA_VERSION = 1


class DegreeCapError(ValueError):
    """A requested mode number or weight exponent exceeds the configured cap."""


class CacheIntegrityError(RuntimeError):
    """A coefficient cache file is unreadable or fails its checksum."""


class MissingCoefficientError(LookupError):
    """A computation requested a coefficient absent from the table."""


@dataclass(frozen=True)
class Interval:
    """Closed time interval [t, T] with exact rational endpoints."""

    t: Fraction
    T: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "T", Fraction(self.T))
        if self.T <= self.t:
            raise ValueError(f"interval must have T > t, got [{self.t}, {self.T}]")

    @classmethod
    def from_length(cls, length: Union[RationalLike, str, float]) -> "Interval":
        """Interval [0, length]; strings are parsed as exact decimals."""
        return cls(Fraction(0), Fraction(length))

    @property
    def length(self) -> Fraction:
        return self.T - self.t


@dataclass(frozen=True)
class WeightSpec:
    """Monomial weights psi_l(s) = (s - t)^q_l, one exponent per level."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(q) for q in self.exponents)
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


@lru_cache(maxsize=None)
def _xp1_pow(q: int) -> Poly:
    # (x + 1) ** q
    out = ONE
    for _ in range(q):
        out = out * Poly([1, 1])
    return out


def _check_caps(w: WeightSpec, max_mode: int, degree_cap: int, exponent_cap: int):
    if max_mode > degree_cap:
        raise DegreeCapError(
            f"mode {max_mode} exceeds the degree cap {degree_cap}")
    worst = max(w.exponents)
    if worst > exponent_cap:
        raise DegreeCapError(
            f"weight exponent {worst} exceeds the exponent cap {exponent_cap}")


def _simplex_core(j: MultiIndex, exponents: tuple[int, ...]) -> Fraction:
    # nested integral over -1 < x_1 < ... < x_k < 1 of
    # prod (x_l + 1)^q_l P_{j_l}(x_l), innermost level first
    g = ONE
    for mode, q in zip(j, exponents):
        g = (_xp1_pow(q) * legendre(mode) * g).antiderivative_from(-1)
    return g(1)


def fourier_coefficient(j: Iterable[int], w: WeightSpec, *,
                        degree_cap: int = DEFAULT_DEGREE_CAP,
                        exponent_cap: int = DEFAULT_EXPONENT_CAP) -> CoeffValue:
    """Exact kernel projection onto phi_{j_1} x ... x phi_{j_k}.

    ``j`` lists modes in integration order: j[0] belongs to the innermost
    integration variable. The interval enters only through reconstruction,
    see ``CoeffValue.value``.
    """
    j = tuple(int(m) for m in j)
    if len(j) != w.k:
        raise ValueError(f"multi-index length {len(j)} != multiplicity {w.k}")
    if any(m < 0 for m in j):
        raise ValueError(f"modes must be nonnegative, got {j}")
    _check_caps(w, max(j), degree_cap, exponent_cap)
    sum_q = sum(w.exponents)
    return CoeffValue(
        core=_simplex_core(j, w.exponents),
        sqrt_factors=tuple(2 * m + 1 for m in j),
        half_power=w.k + 2 * sum_q,
        two_power=w.k + sum_q,
    )


@lru_cache(maxsize=256)
def kernel_norm(w: WeightSpec) -> CoeffValue:
    """Exact squared L2 norm of the simplex kernel, in the same split.

    This is the integral of K^2 over the hypercube, i.e. the nested simplex
    integral of prod psi_l^2. Reconstruct with ``CoeffValue.value``.
    """
    g = ONE
    for q in w.exponents:
        g = (_xp1_pow(2 * q) * g).antiderivative_from(-1)
    m = w.k + 2 * sum(w.exponents)
    return CoeffValue(core=g(1), sqrt_factors=(), half_power=2 * m, two_power=m)


def _compute_cores(w: WeightSpec, p: int) -> dict[MultiIndex, Fraction]:
    # shared-prefix recursion: sibling multi-indices reuse the inner integrals
    k = w.k
    out: dict[MultiIndex, Fraction] = {}

    def descend(level: int, g: Poly, prefix: MultiIndex):
        if level == k:
            out[prefix] = g(1)
            return
        base = _xp1_pow(w.exponents[level]) * g
        for mode in range(p + 1):
            descend(level + 1, (base * legendre(mode)).antiderivative_from(-1),
                    prefix + (mode,))

    descend(0, ONE, ())
    return out


def coefficient_table(w: WeightSpec, p: int, *,
                      cache_dir: Optional[Union[str, Path]] = None,
                      degree_cap: int = DEFAULT_DEGREE_CAP,
                      exponent_cap: int = DEFAULT_EXPONENT_CAP,
                      ) -> dict[MultiIndex, CoeffValue]:
    """All (p + 1)^k coefficients, in lexicographic multi-index order.

    Served from the on-disk cache when a cache directory is available
    (explicit argument, else the COEFF_CACHE_DIR environment variable);
    computed and stored otherwise.
    """
    if p < 0:
        raise ValueError(f"truncation order must be nonnegative, got {p}")
    _check_caps(w, p, degree_cap, exponent_cap)

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

    sum_q = sum(w.exponents)
    half_power = w.k + 2 * sum_q
    two_power = w.k + sum_q
    cores = _compute_cores(w, p)
    table = {
        j: CoeffValue(core=cores[j],
                      sqrt_factors=tuple(2 * m + 1 for m in j),
                      half_power=half_power, two_power=two_power)
        for j in sorted(cores)
    }
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_table(path, w, p, table, degree_cap=degree_cap)
    return table


def integer_cores(table: Mapping[MultiIndex, CoeffValue],
                  ranges: Sequence[range],
                  ) -> tuple[list[MultiIndex], list[int], int]:
    """The multi-indices over ``ranges`` and their cores as integers over D.

    D, returned last, is the lcm of the cores' denominators. A multi-index
    absent from the table raises MissingCoefficientError naming it.
    """
    index = list(itertools.product(*ranges))
    try:
        cores = [table[j].core for j in index]
    except KeyError as exc:
        raise MissingCoefficientError(
            f"coefficient table does not cover multi-index {exc.args[0]}; "
            "recompute it with a large enough truncation order") from None
    dens = {c.denominator for c in cores}
    lcm = math.lcm(*dens)
    scale = {d: lcm // d for d in dens}
    return index, [c.numerator * scale[c.denominator] for c in cores], lcm


def orbit_sums(index: Sequence[MultiIndex], nums: Sequence[int],
               blocks: Sequence[Sequence[int]]) -> dict[tuple, list]:
    """Integer core sums over the orbits of the permutations within blocks.

    Maps each orbit's key, the modes at the positions outside every block
    of two or more followed by the sorted modes of each such block, to
    [S, j]: the sum S of ``nums`` over the orbit and its first member j in
    ``index``. Zero cores are skipped, so an orbit of zeros is absent.
    """
    groups = [operator.itemgetter(*b) for b in blocks if len(b) > 1]
    grouped = {pos for b in blocks if len(b) > 1 for pos in b}
    singles = [pos for pos in range(len(index[0])) if pos not in grouped]
    rest = operator.itemgetter(*singles) if singles else (lambda j: ())
    sorted_modes: dict[tuple[int, ...], tuple[int, ...]] = {}
    sums: dict[tuple, list] = {}
    for j, n in zip(index, nums):
        if n:
            key = [rest(j)]
            for take in groups:
                modes = take(j)
                canon = sorted_modes.get(modes)
                if canon is None:
                    canon = sorted_modes[modes] = tuple(sorted(modes))
                key.append(canon)
            key = tuple(key)
            entry = sums.get(key)
            if entry is None:
                sums[key] = [n, j]
            else:
                entry[0] += n
    return sums


def table_key(w: WeightSpec, p: int, degree_cap: int = DEFAULT_DEGREE_CAP) -> str:
    """Stable cache key for a table of coefficients."""
    q = "-".join(str(e) for e in w.exponents)
    return f"coeffs_k{w.k}_q{q}_p{p}_cap{degree_cap}"


def _payload(w: WeightSpec, p: int, table: Mapping[MultiIndex, CoeffValue],
             degree_cap: int) -> dict:
    entries = [
        {
            "j": list(j),
            "core": f"{cv.core.numerator}/{cv.core.denominator}",
            "half_power": cv.half_power,
            "two_power": cv.two_power,
        }
        for j, cv in sorted(table.items())
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
               table: Mapping[MultiIndex, CoeffValue], *,
               degree_cap: int = DEFAULT_DEGREE_CAP) -> None:
    """Write a table as deterministic, checksummed JSON (atomic replace)."""
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
               ) -> tuple[WeightSpec, int, dict[MultiIndex, CoeffValue]]:
    """Read a table back, verifying its checksum.

    Raises CacheIntegrityError on malformed JSON, missing fields, or a
    checksum mismatch.
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
        w = WeightSpec(tuple(doc["exponents"]))
        p = int(doc["p"])
        table = {}
        for entry in doc["entries"]:
            j = tuple(int(m) for m in entry["j"])
            table[j] = CoeffValue(
                core=Fraction(entry["core"]),
                sqrt_factors=tuple(2 * m + 1 for m in j),
                half_power=int(entry["half_power"]),
                two_power=int(entry["two_power"]),
            )
    except CacheIntegrityError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CacheIntegrityError(f"malformed cache file {path}: {exc}") from exc
    if len(table) != (p + 1) ** w.k:
        raise CacheIntegrityError(
            f"cache file {path} has {len(table)} entries, "
            f"expected {(p + 1) ** w.k}")
    return w, p, table

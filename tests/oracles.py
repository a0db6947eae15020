"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately computed without the package's exact
antidifferentiation or orbit-sum machinery: hand-transcribed term lists,
closed forms, brute-force enumeration over permutation groups, and
numerical quadrature.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from itolegendre.coeffs import (
    CoeffValue,
    Interval,
    MultiIndex,
    WeightSpec,
    kernel_norm,
)
from itolegendre.expansion import (
    CERTIFIED_MAX_K,
    GaussianDraw,
    IndexPattern,
    MissingCoefficientError,
    enumerate_matchings,
)
from itolegendre.polycore import Poly, RationalLike
from itolegendre.msekit import (
    _CASE_BY_KEY,
    MseReport,
    PatternScopeError,
    _check_exact_args,
    _error_core,
    _resolve_table,
    classify_case,
    mse_bound,
)

F = Fraction

# Hand-transcribed correction structure of the printed expansions for
# multiplicities up to 5 (1-based positions): single matched pairs enter
# with a minus sign, pair-of-pairs products with a plus sign.

SINGLE_PAIRS = {
    1: [],
    2: [(1, 2)],
    3: [(1, 2), (2, 3), (1, 3)],
    4: [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
    5: [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3),
        (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
}

DOUBLE_PAIRS = {
    1: [], 2: [], 3: [],
    4: [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))],
    5: [((1, 2), (3, 4)), ((1, 2), (3, 5)), ((1, 2), (4, 5)),
        ((1, 3), (2, 4)), ((1, 3), (2, 5)), ((1, 3), (4, 5)),
        ((1, 4), (2, 3)), ((1, 4), (2, 5)), ((1, 4), (3, 5)),
        ((1, 5), (2, 3)), ((1, 5), (2, 4)), ((1, 5), (3, 4)),
        ((2, 3), (4, 5)), ((2, 4), (3, 5)), ((2, 5), (3, 4))],
}


def expected_terms(labels):
    """Correction-term multiset {(pairs, sign, free)} per the printed lists."""
    k = len(labels)

    def eligible(pair):
        a, b = pair
        return labels[a - 1] == labels[b - 1] != 0

    terms = set()

    def add(pairs, sign):
        matched = {pos for pair in pairs for pos in pair}
        free = tuple(pos for pos in range(k) if pos + 1 not in matched)
        terms.add((frozenset(frozenset(p - 1 for p in pair) for pair in pairs),
                   sign, free))

    add((), 1)
    for pair in SINGLE_PAIRS[k]:
        if eligible(pair):
            add((pair,), -1)
    for first, second in DOUBLE_PAIRS[k]:
        if eligible(first) and eligible(second):
            add((first, second), 1)
    return terms


def set_partitions(k):
    """All set partitions of k positions, as label tuples (1-based ids)."""
    def grow(prefix, used):
        if len(prefix) == k:
            yield tuple(v + 1 for v in prefix)
            return
        for value in range(used + 1):
            yield from grow(prefix + [value], max(used, value + 1))
    yield from grow([0], 1)


def patterns_with_time(k):
    """Every coincidence structure on k positions, time components included.

    Yields one label tuple per (zero set, partition of the rest).
    """
    from itertools import combinations

    for z in range(k + 1):
        for zero_set in combinations(range(k), z):
            rest = [pos for pos in range(k) if pos not in zero_set]
            if not rest:
                yield (0,) * k
                continue
            for part in set_partitions(len(rest)):
                labels = [0] * k
                for pos, lab in zip(rest, part):
                    labels[pos] = lab
                yield tuple(labels)


def telescoped_pair_error(p, length):
    """Closed form of the distinct-pair error: length^2 / (4 (2p + 1))."""
    return F(length) ** 2 / (4 * (2 * p + 1))


def series_pair_error(p, length):
    """Series form of the same error: L^2/2 (1/2 - sum 1/(4 i^2 - 1))."""
    tail = F(1, 2) - sum(F(1, 4 * i * i - 1) for i in range(1, p + 1))
    return F(length) ** 2 / 2 * tail


def ordered_monomial_integral(exponents, length):
    """Nested integral of prod s_l^e_l over 0 < s_1 < ... < s_k < length."""
    total = F(1)
    running = 0
    for e in exponents:
        running += e + 1
        total /= running
    return total * F(length) ** running


# --- polynomial and basis helpers --------------------------------------------


def poly_mul(a: Poly, b: Poly) -> Poly:
    """Exact product of two polynomials."""
    return a * b


def poly_antiderivative_from(a: Poly, lower: RationalLike) -> Poly:
    """Antiderivative of ``a`` vanishing at ``lower``."""
    return a.antiderivative_from(lower)


def definite_integral(a: Poly, lo: RationalLike, hi: RationalLike) -> Fraction:
    """Exact value of the integral of ``a`` over [lo, hi]."""
    if Fraction(lo) > Fraction(hi):
        raise ValueError("integration bounds must satisfy lo <= hi")
    f = a.antiderivative()
    return f(hi) - f(lo)


@dataclass(frozen=True)
class BasisFunction:
    """Orthonormal Legendre basis function phi_j on an interval.

    phi_j(s) = sqrt((2j + 1) / (T - t)) * P_j(2 (s - t) / (T - t) - 1),
    so that the family is orthonormal in L2([t, T]).
    """

    mode: int
    interval: Interval

    def __call__(self, s):
        length = float(self.interval.length)
        x = 2.0 * (np.asarray(s, dtype=float) - float(self.interval.t)) / length - 1.0
        coeffs = np.zeros(self.mode + 1)
        coeffs[-1] = 1.0
        out = np.polynomial.legendre.legval(x, coeffs) \
            * math.sqrt((2 * self.mode + 1) / length)
        return float(out) if out.ndim == 0 else out


def basis_phi(j: int, interval: Interval) -> BasisFunction:
    """The j-th orthonormal basis function on the interval."""
    if j < 0:
        raise ValueError(f"mode must be nonnegative, got {j}")
    return BasisFunction(mode=j, interval=interval)


def gauss_coefficient(j, w, interval, nodes=24):
    """Nested Gauss-Legendre quadrature of the kernel projection in t-space."""
    x, wts = np.polynomial.legendre.leggauss(nodes)
    t0 = float(interval.t)
    phis = [basis_phi(mode, interval) for mode in j]

    def level(l, upper):
        half = (upper - t0) / 2.0
        s = t0 + (x + 1.0) * half
        vals = (s - t0) ** w.exponents[l] * phis[l](s)
        if l > 0:
            vals = vals * np.array([level(l - 1, u) for u in s])
        return half * float(wts @ vals)

    return level(len(j) - 1, float(interval.T))


# --- permutation and catalog routes to the exact error ----------------------
#
# The literal evaluation of I_k - sum_j C(j) sum_sigma C(sigma j): once with
# the block permutation group enumerated explicitly, once with the nested
# permutation sums of the transcribed case catalog. Both are independent of
# the package's orbit-sum engine.


@dataclass(frozen=True)
class BlockPermutations:
    """Position permutations preserving a pattern's coincidence structure."""

    k: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return math.prod(math.factorial(len(b)) for b in self.blocks)

    def __iter__(self):
        """Yield permutations as source-position tuples sigma, so that the
        permuted multi-index is tuple(j[sigma[l]] for l in range(k))."""
        per_block = [list(itertools.permutations(b)) for b in self.blocks]
        for choice in itertools.product(*per_block):
            sigma = list(range(self.k))
            for block, image in zip(self.blocks, choice):
                for tgt, src in zip(block, image):
                    sigma[tgt] = src
            yield tuple(sigma)


def allowed_permutations(pattern: IndexPattern) -> BlockPermutations:
    """Permutations entering the exact error for an all-Wiener pattern.

    Positions may be permuted freely within each equality block; the group
    size is the product of the block factorials. Patterns containing the
    time component are rejected: their exact error is not defined here,
    only the upper bound applies (see ``mse_bound``).
    """
    if pattern.zero_positions:
        raise PatternScopeError(
            "exact mean-square error is defined for Wiener components only "
            "(all labels >= 1); for patterns with time components (label 0) "
            "use the upper bound instead")
    return BlockPermutations(k=pattern.k, blocks=pattern.blocks)


class _Cores(dict):
    """Core lookup that names the offending multi-index when absent."""

    def __missing__(self, j):
        raise MissingCoefficientError(
            f"coefficient table does not cover multi-index {j}; "
            "recompute it with a large enough truncation order")


def _core_map(table: Mapping[MultiIndex, CoeffValue]) -> "_Cores":
    return _Cores((j, cv.core) for j, cv in table.items())


def _weighted(j: MultiIndex) -> int:
    w = 1
    for mode in j:
        w *= 2 * mode + 1
    return w


def _report(pattern: IndexPattern, p: int, w: WeightSpec, interval: Interval,
            error_core: Fraction,
            table: Mapping[MultiIndex, CoeffValue]) -> MseReport:
    m = w.k + 2 * sum(w.exponents)
    exact = error_core * interval.length ** m
    norm = kernel_norm(w)
    bound = mse_bound(pattern, (p,) * pattern.k, w, interval, table=table)
    return MseReport(
        pattern=pattern, p=p, weights=w, interval=interval,
        exact_mse=float(exact), exact_mse_rational=exact,
        bound=bound, kernel_norm=norm.value(interval),
        case_id=classify_case(pattern))


def permutation_mse(pattern: IndexPattern, p: int, w: WeightSpec,
                    interval: Interval, *,
                    table: Optional[Mapping[MultiIndex, CoeffValue]] = None,
                    cache_dir=None) -> MseReport:
    """Exact error from the explicitly enumerated permutation group."""
    _check_exact_args(pattern, w)
    perms = list(allowed_permutations(pattern))
    table = _resolve_table(w, p, table, cache_dir)
    cores = _core_map(table)
    total = Fraction(0)
    for j in itertools.product(range(p + 1), repeat=pattern.k):
        cj = cores[j]
        if not cj:
            continue
        inner = Fraction(0)
        for sigma in perms:
            inner += cores[tuple(j[s] for s in sigma)]
        if inner:
            total += _weighted(j) * cj * inner
    core = _error_core(kernel_norm(w).core, total, w.k, sum(w.exponents))
    return _report(pattern, p, w, interval, core, table)


def enumerated_case_mse(pattern: IndexPattern, p: int, w: WeightSpec,
                        interval: Interval, *,
                        table: Optional[Mapping[MultiIndex, CoeffValue]] = None,
                        cache_dir=None) -> MseReport:
    """Exact error from the transcribed case catalog (oracle route).

    Evaluates the nested permutation sums exactly as written in the
    catalog entry matching the pattern; exists to cross-check
    ``exact_mse`` and fails for patterns outside the catalog.
    """
    _check_exact_args(pattern, w)
    if pattern.zero_positions:
        raise PatternScopeError(
            "exact mean-square error is defined for Wiener components only "
            "(all labels >= 1); for patterns with time components (label 0) "
            "use the upper bound instead")
    info = _CASE_BY_KEY.get((pattern.k, pattern.coincidence_key))
    if info is None:
        raise PatternScopeError(
            f"pattern {pattern.labels} matches no catalog case "
            f"(multiplicities 1..{CERTIFIED_MAX_K} only)")
    table = _resolve_table(w, p, table, cache_dir)
    cores = _core_map(table)

    def nested(j: MultiIndex, depth: int) -> Fraction:
        if depth == len(info.subsets):
            return cores[j]
        subset = info.subsets[depth]
        total = Fraction(0)
        for image in itertools.permutations(subset):
            jj = list(j)
            for tgt, src in zip(subset, image):
                jj[tgt] = j[src]
            total += nested(tuple(jj), depth + 1)
        return total

    total = Fraction(0)
    for j in itertools.product(range(p + 1), repeat=pattern.k):
        cj = cores[j]
        if not cj:
            continue
        total += _weighted(j) * cj * nested(j, 0)
    core = _error_core(kernel_norm(w).core, total, w.k, sum(w.exponents))
    return _report(pattern, p, w, interval, core, table)


# --- compensated-summation route to a realization ---------------------------
#
# The expansion evaluated entry by entry over {0..p}^k, with math.fsum on
# every bracket and on the outer sum; independent of the orbit-summed plan.


def fsum_realize(pattern: IndexPattern, p: int,
                 table: Mapping[MultiIndex, CoeffValue],
                 draw: GaussianDraw) -> float:
    """Value of the truncated expansion at truncation order p.

    Sums, over all multi-indices with entries 0..p, the reconstructed
    coefficient times the bracket of signed matching terms evaluated on
    the draw. Both the per-index bracket and the outer sum are compensated
    (math.fsum), so algebraically cancelling contributions cancel exactly.
    """
    labels = pattern.labels
    terms = enumerate_matchings(pattern)
    pieces: list[float] = []
    for j in itertools.product(range(p + 1), repeat=pattern.k):
        cv = table.get(j)
        if cv is None:
            raise MissingCoefficientError(
                f"table has no entry for multi-index {j}; "
                f"recompute it with p >= {p}")
        c = cv.value(draw.length)
        if c == 0.0:
            continue
        bracket = []
        for term in terms:
            if all(j[a] == j[b] for a, b in term.pairs):
                prod = 1.0
                for pos in term.free_positions:
                    prod *= draw.zeta[labels[pos]][j[pos]]
                bracket.append(term.sign * prod)
        pieces.append(c * math.fsum(bracket))
    return math.fsum(pieces)

"""Independent oracles shared by the unit and acceptance suites.

Everything here is deliberately computed without the package's
coefficient routine or orbit-sum machinery: hand-transcribed term lists,
closed forms, an integer simplex-integral chain in u = (x + 1) / 2,
brute-force enumeration over permutation groups, and numerical quadrature.
"""

import itertools
import math
import operator
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from itolegendre.coeffs import (
    CoeffValue,
    Interval,
    MultiIndex,
    WeightSpec,
    coefficient_table,
    kernel_norm,
)
from itolegendre.expansion import (
    CERTIFIED_MAX_K,
    ExperimentalWarning,
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


def integer_chain_cores(exponents, modes) -> list[Fraction]:
    """Simplex cores of modes[0] x ... x modes[k - 1], in that order, in
    integer arithmetic on [0, 1] instead of the package's x-space chain.

    The integral over -1 < x_1 < ... < x_k < 1 of prod (x_l + 1)^q_l
    P_{j_l}(x_l), j_1 innermost, is 2^(k + sum q) times the integral in
    u = (x + 1) / 2 of prod u_l^q_l P_{j_l}(2 u_l - 1). The shifted Legendre
    rows (-1)^(n+i) C(n, i) C(n+i, i) are integers, so each inner integral
    from 0 is an integer polynomial over one denominator, and the outermost
    level is a dot product with the moments int_0^1 u^n P_m(2u - 1) du =
    n!^2 / ((n - m)! (n + m + 1)!), zero for n < m.
    """
    k, top = len(exponents), max(max(ms) for ms in modes)
    rows = [[(-1) ** (n + i) * math.comb(n, i) * math.comb(n + i, i)
             for i in range(n + 1)] for n in range(top + 1)]
    # top degree of the integrand at the outermost level
    deg = sum(q + max(ms) + 1 for q, ms in zip(exponents, modes[:-1])) \
        + exponents[-1]
    fact = [math.factorial(n) for n in range(deg + max(modes[-1]) + 2)]
    moments = {m: [fact[n] ** 2 // fact[n - m] * fact[-1] // fact[n + m + 1]
                   if n >= m else 0 for n in range(exponents[-1], deg + 1)]
               for m in modes[-1]}
    # integrating from 0 takes c u^i to c * spread[i] u^(i + 1) over lcm
    lcm = math.lcm(*range(1, deg + 1))
    spread = [lcm // (i + 1) for i in range(deg)]
    out: list[Fraction] = []

    def descend(level: int, nums: list[int], den: int):
        if level == k - 1:
            den *= fact[-1]
            for m in modes[-1]:
                out.append(Fraction(
                    sum(map(operator.mul, nums, moments[m])), den))
            return
        base = [0] * exponents[level] + nums
        for m in modes[level]:
            prod = [0] * (len(base) + m)
            for i, b in enumerate(base):
                if b:
                    for r, c in enumerate(rows[m], i):
                        prod[r] += b * c
            up = [0] + [c * f for c, f in zip(prod, spread)]
            g = math.gcd(den * lcm, *up)
            descend(level + 1, [c // g for c in up], den * lcm // g)

    descend(0, [2 ** (k + sum(exponents))], 1)
    return out


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


def sorted_blocks(labels) -> tuple[tuple[int, ...], ...]:
    """Positions sharing each nonzero label, the blocks sorted by their
    first position: the form ``IndexPattern.blocks`` had as a sort."""
    seen: dict[int, list[int]] = {}
    for pos, label in enumerate(labels):
        if label != 0:
            seen.setdefault(label, []).append(pos)
    return tuple(tuple(v) for v in
                 sorted(seen.values(), key=lambda block: block[0]))


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


def _error_core(kernel_core: Fraction, double_sum: Fraction,
                k: int, sum_q: int) -> Fraction:
    m = k + 2 * sum_q
    return kernel_core * Fraction(1, 2 ** m) \
        - double_sum * Fraction(1, 2 ** (2 * (k + sum_q)))


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


def _check_exact_args(pattern: IndexPattern, w: WeightSpec):
    # the argument checks ``exact_mse`` makes, warning at its caller's caller
    if w.k != pattern.k:
        raise ValueError(
            f"pattern multiplicity {pattern.k} != weight multiplicity {w.k}")
    if pattern.k > CERTIFIED_MAX_K:
        warnings.warn(
            f"exact error at multiplicity {pattern.k} is experimental "
            f"(certified up to {CERTIFIED_MAX_K})", ExperimentalWarning,
            stacklevel=3)


def _table_or_build(w: WeightSpec, p: int, table):
    # build the table when none is given; the given one is taken as is
    return coefficient_table(w, p) if table is None else table


def permutation_mse(pattern: IndexPattern, p: int, w: WeightSpec,
                    interval: Interval, *,
                    table: Optional[Mapping[MultiIndex, CoeffValue]] = None,
                    ) -> MseReport:
    """Exact error from the explicitly enumerated permutation group."""
    _check_exact_args(pattern, w)
    perms = list(allowed_permutations(pattern))
    table = _table_or_build(w, p, table)
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
                        ) -> MseReport:
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
    table = _table_or_build(w, p, table)
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


def integer_cores(table, p_levels) -> tuple[list[MultiIndex], list[int], int]:
    """The multi-indices of the box {0..p_1} x ... x {0..p_k} and their
    cores as integers over the table's D, returned last, in lexicographic
    order.

    A box beyond the table raises MissingCoefficientError naming its
    first multi-index that the table lacks.
    """
    table._check_covers(p_levels)
    nums = table._nums
    index = list(itertools.product(*(range(top + 1) for top in p_levels)))
    if any(top != table.p for top in p_levels):
        flat = [0]
        for top in p_levels:
            flat = [f * (table.p + 1) + m for f in flat for m in range(top + 1)]
        nums = [nums[f] for f in flat]
    return index, nums, table._lcm


def orbit_sums(index, nums, blocks) -> dict[tuple, list]:
    """Integer core sums over the orbits of the permutations within blocks.

    A dict walk: maps each orbit's key, the modes at the positions outside
    every block of two or more followed by the sorted modes of each such
    block, to [S, j]: the sum S of ``nums`` over the orbit and its first
    member j in ``index``. Zero cores are skipped, so an orbit of zeros is
    absent, and the orbits come in the order of their first member.
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


def orbit_walk_square_sum(table, p: int, blocks) -> tuple[int, int]:
    """Sum over the orbits O of {0..p}^k under the permutations within
    blocks of |Stab(O)| * w(O) * S_O^2, as an integer over D^2, and D.

    A dict walk: each entry is keyed by its blocks' sorted modes, and the
    stabilizer is the product of the factorials of each block's mode
    multiplicities. It stays in Python integers and enumerates no group,
    so it reaches multiplicities whose group is too large to walk."""
    index, nums, lcm = integer_cores(table, (p,) * table.weights.k)
    sums: dict[tuple, int] = {}
    for j, n in zip(index, nums):
        key = tuple(tuple(sorted(j[pos] for pos in b)) for b in blocks)
        sums[key] = sums.get(key, 0) + n
    total = 0
    for key, s in sums.items():
        stab = math.prod(math.factorial(c) for modes in key
                         for c in Counter(modes).values())
        total += stab * _weighted(sum(key, ())) * s * s
    return total, lcm


def orbit_walk_mse(pattern: IndexPattern, p: int, w: WeightSpec,
                   interval: Interval, *, table=None) -> MseReport:
    """Exact error from ``orbit_walk_square_sum`` (oracle route) for
    patterns whose permutation group is too large to enumerate."""
    _check_exact_args(pattern, w)
    if pattern.zero_positions:
        raise PatternScopeError(
            "exact mean-square error is defined for Wiener components only")
    table = _table_or_build(w, p, table)
    total, lcm = orbit_walk_square_sum(table, p, pattern.blocks)
    core = _error_core(kernel_norm(w).core, Fraction(total, lcm * lcm),
                       w.k, sum(w.exponents))
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


def factorial_bound(k: int, p_levels, w: WeightSpec, interval: Interval,
                    table: Mapping[MultiIndex, CoeffValue]) -> Fraction:
    """k! (I_k - sum_{j <= p_levels} C(j)^2), summed entry by entry from the
    table's Fraction cores and scale factors."""
    length = interval.length
    norm = kernel_norm(w)
    energy = norm.core * F(1, 2 ** norm.two_power) \
        * length ** (norm.half_power // 2)
    captured = F(0)
    for j in itertools.product(*(range(p + 1) for p in p_levels)):
        cv = table[j]
        captured += cv.core ** 2 * math.prod(cv.sqrt_factors) \
            * F(1, 4 ** cv.two_power) * length ** cv.half_power
    return math.factorial(k) * (energy - captured)


# --- fresh-array route to the left-point iterated sums ----------------------
#
# The Monte Carlo's sums as they were first written: scaled increments, a new
# array per level and an exclusive cumulative sum; independent of the
# in-place kernel.


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

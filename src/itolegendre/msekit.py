"""Exact mean-square truncation errors and the factorial upper bound.

For an all-Wiener pattern the mean-square error of the truncated expansion
at order p is

    E = I_k - sum_j C(j) * sum_sigma C(sigma . j),

where I_k is the squared kernel norm, j runs over {0..p}^k, and sigma runs
over the position permutations that preserve the pattern: the direct
product of symmetric groups on its equality blocks. The double sum is
the table's orbit-weighted square sum (``CoeffTable.orbit_square_sum``),
in the exact integer cores over D, which the table memoizes per set of
blocks for every order grouped; a trivial group, and the bound, reduce to
one lookup of the table's prefix sums of w(j) * n_j^2. An ``exact_mse``
call checks its table once, reads both sums under the pattern's blocks
and, with constants derived once per weight spec, makes its error one
Fraction and each float field one integer division, correctly rounded as
float() of a Fraction is. The engine is checked against the permutation
and catalog oracles in tests/. The transcribed case catalog for
multiplicities 1..5 (labels (I), (II), (III).1, ...) names the case of
each pattern.

The upper bound k! * (I_k - sum C(j)^2) supports unequal per-level
truncations and, for patterns containing the time component, requires
interval length below 1. Every entry point takes its table through
``coeffs.checked_table``, which builds it when absent and refuses one
that is not a ``CoeffTable``, too short or built for other weights.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .coeffs import CoeffTable, Interval, WeightSpec, checked_table, kernel_norm
from .expansion import CERTIFIED_MAX_K, ExperimentalWarning, IndexPattern


class PatternScopeError(ValueError):
    """The requested computation is outside the pattern's supported scope."""


@dataclass(frozen=True)
class MseReport:
    """Exact truncation error of one pattern at one truncation order."""

    pattern: IndexPattern
    p: int
    weights: WeightSpec
    interval: Interval
    exact_mse: float
    exact_mse_rational: Fraction
    bound: float
    kernel_norm: float
    case_id: Optional[str]

    @property
    def exact_mse_string(self) -> str:
        return str(self.exact_mse_rational)


# --- case catalog -----------------------------------------------------------
#
# Coincidence cases for multiplicities 1..5 and the position subsets whose
# permutations enter each case's error formula, transcribed literally.
# Positions are 1-based here and converted once below; an entry like
# ("(VII).1", ((4, 5), (1, 2, 3))) reads: positions 4,5 share one label,
# positions 1,2,3 share another, and the nested permutation sums run over
# (j_4, j_5) and (j_1, j_2, j_3).

_CASE_TABLE: dict[int, tuple[tuple[str, tuple[tuple[int, ...], ...]], ...]] = {
    1: (
        ("(I)", ()),
    ),
    2: (
        ("(I)", ()),
        ("(II)", ((1, 2),)),
    ),
    3: (
        ("(I)", ()),
        ("(II)", ((1, 2, 3),)),
        ("(III).1", ((1, 2),)),
        ("(III).2", ((2, 3),)),
        ("(III).3", ((1, 3),)),
    ),
    4: (
        ("(I)", ()),
        ("(II)", ((1, 2, 3, 4),)),
        ("(III).1", ((1, 2),)),
        ("(III).2", ((1, 3),)),
        ("(III).3", ((1, 4),)),
        ("(III).4", ((2, 3),)),
        ("(III).5", ((2, 4),)),
        ("(III).6", ((3, 4),)),
        ("(IV).1", ((1, 2, 3),)),
        ("(IV).2", ((2, 3, 4),)),
        ("(IV).3", ((1, 2, 4),)),
        ("(IV).4", ((1, 3, 4),)),
        ("(V).1", ((1, 2), (3, 4))),
        ("(V).2", ((1, 3), (2, 4))),
        ("(V).3", ((1, 4), (2, 3))),
    ),
    5: (
        ("(I)", ()),
        ("(II)", ((1, 2, 3, 4, 5),)),
        ("(III).1", ((1, 2),)),
        ("(III).2", ((1, 3),)),
        ("(III).3", ((1, 4),)),
        ("(III).4", ((1, 5),)),
        ("(III).5", ((2, 3),)),
        ("(III).6", ((2, 4),)),
        ("(III).7", ((2, 5),)),
        ("(III).8", ((3, 4),)),
        ("(III).9", ((3, 5),)),
        ("(III).10", ((4, 5),)),
        ("(IV).1", ((1, 2, 3),)),
        ("(IV).2", ((1, 2, 4),)),
        ("(IV).3", ((1, 2, 5),)),
        ("(IV).4", ((2, 3, 4),)),
        ("(IV).5", ((2, 3, 5),)),
        ("(IV).6", ((2, 4, 5),)),
        ("(IV).7", ((3, 4, 5),)),
        ("(IV).8", ((1, 3, 5),)),
        ("(IV).9", ((1, 3, 4),)),
        ("(IV).10", ((1, 4, 5),)),
        ("(V).1", ((1, 2, 3, 4),)),
        ("(V).2", ((1, 2, 3, 5),)),
        ("(V).3", ((1, 2, 4, 5),)),
        ("(V).4", ((1, 3, 4, 5),)),
        ("(V).5", ((2, 3, 4, 5),)),
        ("(VI).1", ((1, 2), (3, 4))),
        ("(VI).2", ((1, 3), (2, 4))),
        ("(VI).3", ((1, 4), (2, 3))),
        ("(VI).4", ((1, 2), (3, 5))),
        ("(VI).5", ((1, 5), (2, 3))),
        ("(VI).6", ((2, 5), (1, 3))),
        ("(VI).7", ((2, 5), (1, 4))),
        ("(VI).8", ((1, 2), (4, 5))),
        ("(VI).9", ((2, 4), (1, 5))),
        ("(VI).10", ((1, 4), (3, 5))),
        ("(VI).11", ((1, 3), (4, 5))),
        ("(VI).12", ((1, 5), (3, 4))),
        ("(VI).13", ((2, 3), (4, 5))),
        ("(VI).14", ((2, 4), (3, 5))),
        ("(VI).15", ((2, 5), (3, 4))),
        ("(VII).1", ((4, 5), (1, 2, 3))),
        ("(VII).2", ((3, 5), (1, 2, 4))),
        ("(VII).3", ((3, 4), (1, 2, 5))),
        ("(VII).4", ((1, 5), (2, 3, 4))),
        ("(VII).5", ((1, 4), (2, 3, 5))),
        ("(VII).6", ((1, 3), (2, 4, 5))),
        ("(VII).7", ((1, 2), (3, 4, 5))),
        ("(VII).8", ((2, 4), (1, 3, 5))),
        ("(VII).9", ((2, 5), (1, 3, 4))),
        ("(VII).10", ((2, 3), (1, 4, 5))),
    ),
}


@dataclass(frozen=True)
class CaseInfo:
    """One catalog case: its label, permuted subsets, and an example."""

    label: str
    k: int
    subsets: tuple[tuple[int, ...], ...]  # 0-based, outer sum first
    group_size: int
    example: IndexPattern


def _example_pattern(k: int, subsets: Sequence[Sequence[int]]) -> IndexPattern:
    labels = [0] * k
    for n, subset in enumerate(subsets, start=1):
        for pos in subset:
            labels[pos] = n
    fresh = len(subsets)
    for pos in range(k):
        if labels[pos] == 0:
            fresh += 1
            labels[pos] = fresh
    return IndexPattern(tuple(labels))


def _build_cases() -> dict[int, tuple[CaseInfo, ...]]:
    out = {}
    for k, rows in _CASE_TABLE.items():
        infos = []
        for label, subsets in rows:
            zero_based = tuple(tuple(pos - 1 for pos in s) for s in subsets)
            infos.append(CaseInfo(
                label=label, k=k, subsets=zero_based,
                group_size=math.prod(math.factorial(len(s)) for s in zero_based),
                example=_example_pattern(k, zero_based)))
        out[k] = tuple(infos)
    return out


CASES = _build_cases()

_CASE_BY_KEY = {
    (k, info.example.coincidence_key): info
    for k, infos in CASES.items() for info in infos
}


def list_cases(k: int) -> tuple[CaseInfo, ...]:
    """The coincidence-case catalog for multiplicity k (1..5)."""
    if k not in CASES:
        raise PatternScopeError(
            f"case catalog covers multiplicities 1..{CERTIFIED_MAX_K}, got {k}")
    return CASES[k]


def classify_case(pattern: IndexPattern) -> Optional[str]:
    """Catalog label of an all-Wiener pattern, or None beyond the catalog."""
    if pattern.zero_positions or pattern.k not in CASES:
        return None
    return _CASE_BY_KEY[(pattern.k, pattern.coincidence_key)].label


# --- orbit-sum engine -------------------------------------------------------
#
# The weight w(j) = prod(2 j_l + 1) is constant on the orbits of the block
# permutations G, and sum_{sigma in G} C(sigma j) = |Stab(O)| * S_O for j in
# the orbit O with coefficient sum S_O. The double sum of the exact error
# therefore collapses to sum_O w(O) |Stab(O)| S_O^2; for a trivial G (all
# labels distinct, or the bound) it is the squared sum sum_j w(j) C(j)^2.


@lru_cache(maxsize=256)
def _weight_terms(w: WeightSpec) -> tuple[int, int, int, int, int, float]:
    # with I_k = a / (b 2^m), a double sum T over D^2 at the scale 2^(-2(k +
    # sum q)) leaves the error (a 2^k D^2 - T b) length^m / (b D^2 2^(2(k +
    # sum q))): a 2^k, b, m, 2(k + sum q), k! and the float of I_k at length 1
    norm = kernel_norm(w)
    m = norm.two_power
    return (norm.core.numerator << w.k, norm.core.denominator, m,
            2 * (w.k + sum(w.exponents)), math.factorial(w.k),
            float(norm.core) * 2.0 ** (-m))


def exact_mse(pattern: IndexPattern, p: int, w: WeightSpec, interval: Interval,
              *, table: Optional[CoeffTable] = None) -> MseReport:
    """Exact mean-square truncation error via the orbit-sum engine.

    Requires an all-Wiener pattern. ``table`` may supply a precomputed
    ``CoeffTable`` (any table covering modes 0..p works); ``checked_table``
    builds it when absent and refuses one that does not fit: the one table
    check. A non-integer order raises TypeError.
    """
    p = operator.index(p)
    if w.k != pattern.k:
        raise ValueError(
            f"pattern multiplicity {pattern.k} != weight multiplicity {w.k}")
    if pattern.k > CERTIFIED_MAX_K:
        warnings.warn(
            f"exact error at multiplicity {pattern.k} is experimental "
            f"(certified up to {CERTIFIED_MAX_K})", ExperimentalWarning,
            stacklevel=2)
    if 0 in pattern.labels:
        raise PatternScopeError(
            "exact mean-square error is defined for Wiener components only "
            "(all labels >= 1); for patterns with time components (label 0) "
            "use the upper bound instead")
    orders = (p,) * w.k
    table = checked_table(w, orders, table)
    groups = pattern.coincidence_key
    squares, total = table._error_sums(orders, groups)
    a, b, m, shift, k_fact, norm = _weight_terms(w)
    d2, length = table._lcm ** 2, interval.length
    scale, den = length.numerator ** m, (b * d2 << shift) * length.denominator ** m
    num = (a * d2 - total * b) * scale
    case = _CASE_BY_KEY.get((w.k, groups))
    return MseReport(
        pattern=pattern, p=p, weights=w, interval=interval,
        exact_mse=num / den, exact_mse_rational=Fraction(num, den),
        bound=k_fact * (a * d2 - squares * b) * scale / den,
        kernel_norm=norm * (length.numerator / length.denominator) ** m,
        case_id=case and case.label)


def mse_bound_exact(pattern: IndexPattern, p_levels: Iterable[int],
                    w: WeightSpec, interval: Interval, *,
                    table: Optional[CoeffTable] = None) -> Fraction:
    """Exact rational value of the k!-type upper bound.

    Supports unequal per-level truncations. Patterns with time components
    (label 0) require interval length strictly below 1; the bound does not
    apply otherwise. ``table`` is taken as in ``exact_mse``. The squared
    sum is one prefix-sum lookup. A non-integer order raises TypeError.
    """
    p_levels = tuple(map(operator.index, p_levels))
    if len(p_levels) != pattern.k:
        raise ValueError(
            f"expected {pattern.k} truncation orders, got {len(p_levels)}")
    if w.k != pattern.k:
        raise ValueError(
            f"pattern multiplicity {pattern.k} != weight multiplicity {w.k}")
    if all(i == 0 for i in pattern.labels):
        raise PatternScopeError(
            "the bound needs at least one Wiener component (nonzero label)")
    if pattern.zero_positions and interval.length >= 1:
        raise PatternScopeError(
            "patterns with time components (label 0) are bounded only for "
            f"interval length < 1, got length {interval.length}")
    table = checked_table(w, p_levels, table)
    squares = table._error_sums(p_levels, ())[0]
    a, b, m, shift, k_fact, _ = _weight_terms(w)
    d2, length = table._lcm ** 2, interval.length
    return Fraction(k_fact * (a * d2 - squares * b) * length.numerator ** m,
                    (b * d2 << shift) * length.denominator ** m)


def mse_bound(pattern: IndexPattern, p_levels: Iterable[int], w: WeightSpec,
              interval: Interval, *,
              table: Optional[CoeffTable] = None) -> float:
    """Floating-point value of the upper bound; see ``mse_bound_exact``."""
    return float(mse_bound_exact(pattern, p_levels, w, interval, table=table))

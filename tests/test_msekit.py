"""Exact error engine vs the permutation and catalog oracles and the bound."""

import hashlib
import itertools
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itolegendre import montecarlo
from itolegendre.coeffs import (
    CoeffTable,
    Interval,
    WeightSpec,
    coefficient_table,
    kernel_norm,
)
from itolegendre.expansion import (
    ExperimentalWarning,
    IndexPattern,
    MissingCoefficientError,
)
from itolegendre.msekit import (
    PatternScopeError,
    classify_case,
    exact_mse,
    list_cases,
    mse_bound,
    mse_bound_exact,
)

from oracles import (
    allowed_permutations,
    enumerated_case_mse,
    factorial_bound,
    integer_cores,
    orbit_walk_mse,
    orbit_walk_square_sum,
    permutation_mse,
    series_pair_error,
    set_partitions,
    sorted_blocks,
    telescoped_pair_error,
)

F = Fraction
UNIT = Interval.from_length(1)


@pytest.mark.parametrize("p", list(range(20)) + [50, 200])
def test_pair_error_series_telescopes(p):
    assert series_pair_error(p, 1) == telescoped_pair_error(p, 1)


@pytest.mark.parametrize("length", [F(1, 4), 1, 2])
@pytest.mark.parametrize("p", [0, 1, 2, 5])
def test_distinct_pair_error_exact(p, length):
    report = exact_mse(IndexPattern((1, 2)), p, WeightSpec.unit(2),
                       Interval.from_length(length))
    assert report.exact_mse_rational == series_pair_error(p, length)
    assert report.exact_mse_rational == telescoped_pair_error(p, length)
    assert report.case_id == "(I)"


@pytest.mark.parametrize("p", range(5))
def test_equal_pair_error_is_zero(p):
    report = exact_mse(IndexPattern((1, 1)), p, WeightSpec.unit(2), UNIT)
    assert report.exact_mse_rational == 0
    assert report.case_id == "(II)"


def test_distinct_triple_error_at_p0():
    report = exact_mse(IndexPattern((1, 2, 3)), 0, WeightSpec.unit(3), UNIT)
    # I_3 - C(0,0,0)^2 = 1/6 - 1/36
    assert report.exact_mse_rational == F(5, 36)


def test_report_invariants():
    report = exact_mse(IndexPattern((1, 1, 2)), 1, WeightSpec.unit(3),
                       Interval.from_length(F(1, 2)))
    assert 0 <= report.exact_mse <= report.bound
    assert report.exact_mse <= report.kernel_norm
    assert report.case_id == "(III).1"


def test_exact_mse_rejects_time_components():
    with pytest.raises(PatternScopeError):
        exact_mse(IndexPattern((0, 1)), 1, WeightSpec.unit(2), UNIT)


def test_exact_mse_accepts_superset_table():
    w = WeightSpec.unit(2)
    table = coefficient_table(w, 6)
    direct = exact_mse(IndexPattern((1, 2)), 2, w, UNIT)
    reused = exact_mse(IndexPattern((1, 2)), 2, w, UNIT, table=table)
    assert direct.exact_mse_rational == reused.exact_mse_rational


def test_exact_mse_rejects_table_built_for_other_weights():
    # the q=(2,0) table once gave 901/7350 here instead of 1/20
    w = WeightSpec.unit(2)
    wrong = coefficient_table(WeightSpec((2, 0)), 2)
    assert exact_mse(IndexPattern((1, 2)), 2, w, UNIT).exact_mse_rational \
        == F(1, 20)
    with pytest.raises(ValueError, match="weight exponents"):
        exact_mse(IndexPattern((1, 2)), 2, w, UNIT, table=wrong)
    with pytest.raises(ValueError, match="weight exponents"):
        mse_bound_exact(IndexPattern((1, 2)), (2, 2), w, UNIT, table=wrong)


def test_table_check_compares_the_origin_core():
    # (1, 0) and (0, 1) share every scale factor; only the cores differ
    w = WeightSpec((0, 1))
    swapped = coefficient_table(WeightSpec((1, 0)), 1)
    with pytest.raises(ValueError, match="weight exponents"):
        exact_mse(IndexPattern((1, 2)), 1, w, UNIT, table=swapped)
    with pytest.raises(ValueError, match="weight exponents"):
        mse_bound_exact(IndexPattern((1, 2)), (1, 1), w, UNIT, table=swapped)


def test_short_table_names_first_missing_multi_index():
    w = WeightSpec.unit(2)
    table = coefficient_table(w, 1)
    with pytest.raises(MissingCoefficientError, match=r"\(0, 2\)"):
        exact_mse(IndexPattern((1, 1)), 2, w, UNIT, table=table)
    with pytest.raises(MissingCoefficientError, match=r"\(0, 2\)"):
        mse_bound_exact(IndexPattern((1, 2)), (1, 2), w, UNIT, table=table)
    with pytest.raises(MissingCoefficientError, match=r"\(0, 0, 0\)"):
        exact_mse(IndexPattern((1, 2, 3)), 0, WeightSpec.unit(3), UNIT,
                  table=table)


def test_plain_dict_table_is_rejected_with_a_type_error():
    w = WeightSpec.unit(2)
    plain = dict(coefficient_table(w, 2))
    with pytest.raises(TypeError, match="coefficient_table"):
        exact_mse(IndexPattern((1, 2)), 2, w, UNIT, table=plain)
    with pytest.raises(TypeError, match="coefficient_table"):
        mse_bound_exact(IndexPattern((1, 2)), (2, 1), w, UNIT, table=plain)
    with pytest.raises(TypeError, match="coefficient_table"):
        mse_bound(IndexPattern((1, 1)), (2, 2), w, UNIT, table=plain)


# each bad table: (table, order, error type, message); the weights are
# q = (1, 0), and the q = (0, 0) table once gave empirical_mse about 0.08 for
# an exact error of 0.00201 with no error raised
_Q10 = WeightSpec((1, 0))
BAD_TABLES = {
    "plain dict": (lambda: dict(coefficient_table(_Q10, 1)), 1,
                   TypeError, "coefficient_table"),
    "other weights": (lambda: coefficient_table(WeightSpec.unit(2), 1), 1,
                      ValueError, r"weight exponents \(1, 0\)"),
    "too short": (lambda: coefficient_table(_Q10, 0), 1,
                  MissingCoefficientError, r"multi-index \(0, 1\)"),
    "negative order": (lambda: coefficient_table(_Q10, 1), -1,
                       ValueError, "nonnegative"),
}


def _mc_config(p):
    return montecarlo.McConfig(
        pattern=IndexPattern((1, 2)), p=p, weights=_Q10,
        interval=Interval.from_length(F(1, 2)), n_paths=200, n_steps=64,
        seed=1)


CONSUMERS = {
    "exact_mse": lambda t, p: exact_mse(
        IndexPattern((1, 2)), p, _Q10, Interval.from_length(F(1, 2)),
        table=t),
    "mse_bound_exact": lambda t, p: mse_bound_exact(
        IndexPattern((1, 2)), (p, p), _Q10, Interval.from_length(F(1, 2)),
        table=t),
    "mse_bound": lambda t, p: mse_bound(
        IndexPattern((0, 2)), (p, p), _Q10, Interval.from_length(F(1, 2)),
        table=t),
    "empirical_mse": lambda t, p: montecarlo.empirical_mse(
        _mc_config(p), t, threads=1),
    "run_report": lambda t, p: montecarlo.run_report(
        _mc_config(p), table=t, threads=1),
}


@pytest.mark.parametrize("bad", sorted(BAD_TABLES))
@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
def test_every_consumer_refuses_a_bad_table_before_simulating(
        monkeypatch, consumer, bad):
    def simulated(*args, **kwargs):
        raise AssertionError("a path was simulated")

    monkeypatch.setattr(montecarlo, "_iterated_sums", simulated)
    make_table, p, error, message = BAD_TABLES[bad]
    with pytest.raises(error, match=message):
        CONSUMERS[consumer](make_table(), p)


# --- permutation groups ------------------------------------------------------


def test_allowed_permutations_examples():
    assert list(allowed_permutations(IndexPattern((1, 2, 3)))) == [(0, 1, 2)]
    group = allowed_permutations(IndexPattern((1, 1, 2)))
    assert group.size == 2
    assert sorted(group) == [(0, 1, 2), (1, 0, 2)]
    big = allowed_permutations(IndexPattern((1, 1, 1, 2, 2)))
    assert big.size == math.factorial(3) * math.factorial(2) == 12
    assert len(set(big)) == 12


def test_allowed_permutations_rejects_time_components():
    with pytest.raises(PatternScopeError):
        allowed_permutations(IndexPattern((1, 0)))


def test_permutation_sum_depends_only_on_block_structure():
    w = WeightSpec.unit(3)
    a = exact_mse(IndexPattern((1, 1, 2)), 2, w, UNIT)
    b = exact_mse(IndexPattern((7, 7, 3)), 2, w, UNIT)
    assert a.exact_mse_rational == b.exact_mse_rational


# --- engine vs transcribed catalog -------------------------------------------


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("exponents_head", [0, 1])
def test_engine_matches_catalog_small(k, exponents_head):
    w = WeightSpec((exponents_head,) + (0,) * (k - 1))
    table = coefficient_table(w, 1)
    for info in list_cases(k):
        for p in (0, 1):
            engine = exact_mse(info.example, p, w, UNIT, table=table)
            oracle = enumerated_case_mse(info.example, p, w, UNIT, table=table)
            assert engine.exact_mse_rational == oracle.exact_mse_rational, \
                (info.label, p)
            assert engine.case_id == info.label


def test_catalog_rejects_uncataloged_pattern():
    pattern = IndexPattern((1, 2, 3, 4, 5, 6))
    w = WeightSpec.unit(6)
    with pytest.raises(PatternScopeError), pytest.warns():
        enumerated_case_mse(pattern, 0, w, UNIT)


# --- monotonicity and Parseval link ------------------------------------------


@pytest.mark.parametrize("labels", [(1, 2), (1, 1, 2), (1, 2, 3)])
def test_error_decays_with_truncation(labels):
    w = WeightSpec.unit(len(labels))
    table = coefficient_table(w, 4)
    pattern = IndexPattern(labels)
    values = [exact_mse(pattern, p, w, UNIT, table=table).exact_mse_rational
              for p in range(5)]
    assert all(v >= 0 for v in values)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_distinct_pattern_error_is_energy_deficit():
    # pairwise distinct labels reduce the error to I_k minus the captured sum
    w = WeightSpec((1, 0))
    p = 2
    table = coefficient_table(w, p)
    norm = kernel_norm(w)
    captured = F(0)
    for j, cv in table.items():
        captured += (cv.core ** 2 * math.prod(cv.sqrt_factors)
                     * F(1, 4 ** cv.two_power))
    expected = norm.core * F(1, 2 ** norm.two_power) - captured
    report = exact_mse(IndexPattern((1, 2)), p, w, UNIT, table=table)
    assert report.exact_mse_rational == expected


# --- the factorial bound -----------------------------------------------------


def test_bound_equals_error_at_multiplicity_one():
    w = WeightSpec.unit(1)
    for p in range(4):
        report = exact_mse(IndexPattern((1,)), p, w, UNIT)
        assert mse_bound_exact(IndexPattern((1,)), (p,), w, UNIT) == \
            report.exact_mse_rational


def test_bound_doubles_distinct_pair_error():
    w = WeightSpec.unit(2)
    for p in range(4):
        report = exact_mse(IndexPattern((1, 2)), p, w, UNIT)
        bound = mse_bound_exact(IndexPattern((1, 2)), (p, p), w, UNIT)
        assert bound == 2 * report.exact_mse_rational


def test_bound_triple_structure():
    # bound is 3! times the energy deficit at the box truncation
    w = WeightSpec.unit(3)
    p = 2
    table = coefficient_table(w, p)
    captured = F(0)
    for j, cv in table.items():
        captured += (cv.core ** 2 * math.prod(cv.sqrt_factors)
                     * F(1, 4 ** cv.two_power))
    norm = kernel_norm(w)
    expected = 6 * (norm.core * F(1, 2 ** norm.two_power) - captured)
    got = mse_bound_exact(IndexPattern((1, 2, 3)), (p, p, p), w, UNIT,
                          table=table)
    assert got == expected


def test_bound_supports_unequal_truncations():
    w = WeightSpec.unit(2)
    table = coefficient_table(w, 3)
    uneven = mse_bound_exact(IndexPattern((1, 2)), (3, 1), w, UNIT, table=table)
    captured = F(0)
    for j, cv in table.items():
        if j[0] <= 3 and j[1] <= 1:
            captured += (cv.core ** 2 * math.prod(cv.sqrt_factors)
                         * F(1, 4 ** cv.two_power))
    norm = kernel_norm(w)
    assert uneven == 2 * (norm.core * F(1, 2 ** norm.two_power) - captured)


def test_bound_dominates_exact_error_spot_checks():
    for labels in [(1, 1), (1, 2), (1, 1, 2), (1, 1, 1), (1, 2, 1)]:
        w = WeightSpec.unit(len(labels))
        pattern = IndexPattern(labels)
        for p in (0, 1, 2):
            report = exact_mse(pattern, p, w, UNIT)
            bound = mse_bound_exact(pattern, (p,) * len(labels), w, UNIT)
            assert bound >= report.exact_mse_rational


def test_bound_preconditions_for_time_components():
    w = WeightSpec.unit(2)
    pattern = IndexPattern((0, 1))
    value = mse_bound(pattern, (1, 1), w, Interval.from_length(F(1, 2)))
    assert value > 0
    with pytest.raises(PatternScopeError):
        mse_bound(pattern, (1, 1), w, Interval.from_length(1))
    with pytest.raises(PatternScopeError):
        mse_bound(pattern, (1, 1), w, Interval.from_length(2))
    with pytest.raises(PatternScopeError):
        mse_bound(IndexPattern((0, 0)), (1, 1), w, Interval.from_length(F(1, 2)))


def test_bound_validates_levels():
    w = WeightSpec.unit(2)
    with pytest.raises(ValueError):
        mse_bound(IndexPattern((1, 2)), (1,), w, UNIT)
    with pytest.raises(ValueError):
        mse_bound(IndexPattern((1, 2)), (1, -1), w, UNIT)


def test_bound_refuses_an_order_that_is_not_an_integer():
    # int() truncated 1.9 to 1 and returned the bound at (1, 2), 1/30
    pattern, w = IndexPattern((1, 2)), WeightSpec.unit(2)
    half = Interval.from_length(F(1, 2))
    assert mse_bound_exact(pattern, (1, 2), w, half) == F(1, 30)
    for levels in [(1.9, 2), (1, 2.0)]:
        with pytest.raises(TypeError):
            mse_bound_exact(pattern, levels, w, half)
        with pytest.raises(TypeError):
            mse_bound(pattern, levels, w, half)


def test_exact_error_refuses_an_order_that_is_not_an_integer():
    # p=2.0 failed inside the table: "list indices must be integers or
    # slices, not float"
    pattern, w = IndexPattern((1, 2)), WeightSpec.unit(2)
    half = Interval.from_length(F(1, 2))
    report = exact_mse(pattern, np.int64(2), w, half)
    assert report.exact_mse_rational == F(1, 80)
    assert type(report.p) is int
    for p in (2.0, 1.5, "2"):
        with pytest.raises(TypeError):
            exact_mse(pattern, p, w, half)


@pytest.mark.parametrize("labels", [(1, 2), (1, 1)])
def test_exact_error_refuses_a_negative_order_with_a_table(labels):
    # with a table given nothing is built, so exact_mse checks the order
    table = coefficient_table(WeightSpec.unit(2), 3)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_mse(IndexPattern(labels), -1, WeightSpec.unit(2), UNIT,
                  table=table)
    with pytest.raises(ValueError, match="nonnegative"):
        table.orbit_square_sum(-1, IndexPattern(labels).blocks)
    with pytest.raises(ValueError, match="nonnegative"):
        table.square_sum((0, -1))


# --- the case catalog --------------------------------------------------------


@pytest.mark.parametrize("k,count", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_case_counts(k, count):
    assert len(list_cases(k)) == count


def test_case_group_structure_for_k4():
    labels = [info.label for info in list_cases(4)]
    assert labels[:2] == ["(I)", "(II)"]
    assert sum(1 for lab in labels if lab.startswith("(III)")) == 6
    assert sum(1 for lab in labels if lab.startswith("(IV)")) == 4
    assert sum(1 for lab in labels if lab.startswith("(V)")) == 3


def test_case_group_structure_for_k5():
    labels = [info.label for info in list_cases(5)]
    groups = {}
    for lab in labels:
        groups[lab.split(".")[0]] = groups.get(lab.split(".")[0], 0) + 1
    assert groups == {"(I)": 1, "(II)": 1, "(III)": 10, "(IV)": 10,
                      "(V)": 5, "(VI)": 15, "(VII)": 10}


def test_case_examples_classify_to_their_labels():
    for k in (1, 2, 3, 4, 5):
        for info in list_cases(k):
            assert classify_case(info.example) == info.label
            assert allowed_permutations(info.example).size == info.group_size


def test_case_subsets_are_disjoint_and_sized():
    for k in (2, 3, 4, 5):
        for info in list_cases(k):
            flat = [pos for s in info.subsets for pos in s]
            assert len(flat) == len(set(flat))
            assert all(len(s) >= 2 for s in info.subsets)
            assert all(0 <= pos < k for pos in flat)


def test_cases_cover_every_set_partition_once():
    for k in (2, 3, 4, 5):
        keys = {frozenset(frozenset(s) for s in info.subsets)
                for info in list_cases(k)}
        assert len(keys) == len(list_cases(k))
        assert len(keys) == sum(1 for _ in set_partitions(k))


def test_classify_none_outside_catalog():
    assert classify_case(IndexPattern((0, 1))) is None
    assert classify_case(IndexPattern((1, 2, 3, 4, 5, 6))) is None


def test_list_cases_rejects_large_multiplicity():
    with pytest.raises(PatternScopeError):
        list_cases(6)


# --- properties over random patterns -----------------------------------------


@lru_cache(maxsize=None)
def _table(exponents):
    return coefficient_table(WeightSpec(exponents), 3)


@st.composite
def cases(draw):
    """A random pattern of multiplicity 1..5 with weights, order and length."""
    k = draw(st.integers(1, 5))
    labels = tuple(draw(st.lists(st.integers(1, k), min_size=k, max_size=k)))
    exponents = tuple(draw(st.lists(st.integers(0, 2), min_size=k,
                                    max_size=k)))
    p = draw(st.integers(0, 3))
    length = F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return IndexPattern(labels), WeightSpec(exponents), p, length


@settings(max_examples=40, deadline=None)
@given(cases())
def test_orbit_engine_equals_permutation_and_catalog_oracles(case):
    pattern, w, p, length = case
    interval = Interval.from_length(length)
    table = _table(w.exponents)
    engine = exact_mse(pattern, p, w, interval, table=table)
    by_group = permutation_mse(pattern, p, w, interval, table=table)
    by_catalog = enumerated_case_mse(pattern, p, w, interval, table=table)
    assert engine.exact_mse_rational == by_group.exact_mse_rational
    assert engine.exact_mse_rational == by_catalog.exact_mse_rational
    assert engine.exact_mse_rational \
        == orbit_walk_mse(pattern, p, w, interval, table=table).exact_mse_rational


@settings(max_examples=60, deadline=None)
@given(cases())
def test_exact_error_lies_between_zero_and_the_bound(case):
    pattern, w, p, length = case
    interval = Interval.from_length(length)
    table = _table(w.exponents)
    report = exact_mse(pattern, p, w, interval, table=table)
    bound = mse_bound_exact(pattern, (p,) * pattern.k, w, interval,
                            table=table)
    assert 0 <= report.exact_mse_rational <= bound
    assert 0 <= report.exact_mse <= report.bound
    assert report.bound == float(bound)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_exact_error_scales_with_length_power(case):
    pattern, w, p, length = case
    table = _table(w.exponents)
    m = w.k + 2 * sum(w.exponents)
    once = exact_mse(pattern, p, w, Interval.from_length(length), table=table)
    twice = exact_mse(pattern, p, w, Interval.from_length(2 * length),
                      table=table)
    assert twice.exact_mse_rational == 2 ** m * once.exact_mse_rational


@settings(max_examples=60, deadline=None)
@given(cases(), st.permutations(range(1, 6)), st.integers(0, 20))
def test_exact_error_is_invariant_under_relabelling(case, image, shift):
    pattern, w, p, length = case
    interval = Interval.from_length(length)
    table = _table(w.exponents)
    relabelled = IndexPattern(tuple(image[i - 1] + shift
                                    for i in pattern.labels))
    a = exact_mse(pattern, p, w, interval, table=table)
    b = exact_mse(relabelled, p, w, interval, table=table)
    assert a.exact_mse_rational == b.exact_mse_rational
    assert a.bound == b.bound
    assert a.case_id == b.case_id


@st.composite
def wide_tables(draw, max_k=5):
    """A random pattern of multiplicity 1..max_k and a ``CoeffTable`` at
    order 0..3 (0..1 above multiplicity 5) built directly from random
    numerators of 64 to 200 bits (a quarter of them zero) over a random
    denominator, with a truncation order, unequal orders for the bound and a
    length. Real tables stay below 2^45, so only these catch arithmetic
    narrower than Python integers."""
    k = draw(st.integers(1, max_k))
    labels = tuple(draw(st.lists(st.integers(1, k), min_size=k, max_size=k)))
    w = WeightSpec(tuple(draw(st.lists(st.integers(0, 2), min_size=k,
                                       max_size=k))))
    table_p = draw(st.integers(0, 3 if k <= 5 else 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    nums = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(64, 200))
            if rng.random() < 0.75 else 0 for _ in range((table_p + 1) ** k)]
    table = CoeffTable(w, table_p, nums, rng.getrandbits(80) | 1)
    p = draw(st.integers(0, table_p))
    p_levels = tuple(draw(st.lists(st.integers(0, table_p), min_size=k,
                                   max_size=k)))
    length = F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return IndexPattern(labels), w, table, p, p_levels, Interval.from_length(length)


@settings(max_examples=60, deadline=None)
@given(wide_tables())
def test_exact_error_and_bound_stay_exact_on_wide_numerators(case):
    pattern, w, table, p, p_levels, interval = case
    engine = exact_mse(pattern, p, w, interval, table=table)
    by_group = permutation_mse(pattern, p, w, interval, table=table)
    by_catalog = enumerated_case_mse(pattern, p, w, interval, table=table)
    assert engine.exact_mse_rational == by_group.exact_mse_rational
    assert engine.exact_mse_rational == by_catalog.exact_mse_rational
    for levels in ((p,) * pattern.k, p_levels):
        assert mse_bound_exact(pattern, levels, w, interval, table=table) \
            == factorial_bound(pattern.k, levels, w, interval, table)
    assert engine.bound == float(factorial_bound(
        pattern.k, (p,) * pattern.k, w, interval, table))


# --- the lean exact-error call -------------------------------------------------


def test_one_table_check_per_exact_error_hit_or_miss(monkeypatch):
    checked = []
    check = CoeffTable._check_covers

    def counted(self, p_levels):
        checked.append(tuple(p_levels))
        return check(self, p_levels)

    monkeypatch.setattr(CoeffTable, "_check_covers", counted)
    built = _table((0, 0, 0))
    # a table of its own, so that the first call for a set of blocks misses
    table = CoeffTable(built.weights, 3, built._nums, built._lcm)
    for labels in [(1, 1, 2), (1, 2, 1), (1, 2, 3)]:
        for p in (2, 2, 3, 1):  # a miss, a hit, a miss growing the memo, a hit
            checked.clear()
            exact_mse(IndexPattern(labels), p, table.weights, UNIT, table=table)
            assert checked == [(p,) * 3]
    checked.clear()
    mse_bound_exact(IndexPattern((0, 1, 1)), (1, 2, 3), table.weights,
                    Interval.from_length(F(1, 2)), table=table)
    assert checked == [(1, 2, 3)]


def test_experimental_warning_points_at_the_caller_of_exact_mse():
    w = WeightSpec.unit(6)
    with pytest.warns(ExperimentalWarning) as record:
        exact_mse(IndexPattern((1, 1, 2, 2, 3, 3)), 1, w, UNIT,
                  table=_table_at(w.exponents, 1))
    assert [r.filename for r in record
            if r.category is ExperimentalWarning] == [__file__]


@st.composite
def intervals(draw):
    """An interval of random rational length, 1/10^6 and 10^6 among them,
    starting at 0 or at a random rational t."""
    length = draw(st.one_of(
        st.sampled_from([F(1, 10 ** 6), F(10 ** 6)]),
        st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6)))
    t = draw(st.one_of(st.just(F(0)),
                       st.fractions(-10 ** 3, 10 ** 3, max_denominator=10 ** 3)))
    return Interval(t, t + length)


@settings(max_examples=100, deadline=None)
@given(cases(), intervals())
def test_float_fields_are_the_floats_of_their_exact_values(case, interval):
    pattern, w, p, _ = case
    table = _table(w.exponents)
    report = exact_mse(pattern, p, w, interval, table=table)
    assert report.exact_mse.hex() == float(report.exact_mse_rational).hex()
    bound = mse_bound_exact(pattern, (p,) * pattern.k, w, interval,
                            table=table)
    assert report.bound.hex() == float(bound).hex()
    assert report.kernel_norm.hex() == kernel_norm(w).value(interval).hex()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=8))
def test_blocks_are_ordered_by_first_position(labels):
    pattern = IndexPattern(tuple(labels))
    assert pattern.blocks == sorted_blocks(labels)
    assert pattern.coincidence_key \
        == tuple(b for b in sorted_blocks(labels) if len(b) > 1)


def _assert_report_fields_match_their_public_routes(pattern, w, table, p,
                                                    interval):
    if pattern.k > 5:
        with pytest.warns(ExperimentalWarning):
            report = exact_mse(pattern, p, w, interval, table=table)
    else:
        report = exact_mse(pattern, p, w, interval, table=table)
    # the memo key read from the blocks is the one the public route validates
    assert pattern.coincidence_key == table._orbit_groups(pattern.blocks)
    # E = (I_k - double sum) * length^m, the double sum over D^2 and the
    # coefficients' scale 2^(2(k + sum q))
    m = w.k + 2 * sum(w.exponents)
    lcm = table.square_sum((p,) * w.k)[1]
    double_sum = F(table.orbit_square_sum(p, pattern.blocks),
                   lcm ** 2 << 2 * (w.k + sum(w.exponents)))
    assert report.exact_mse_rational \
        == (kernel_norm(w).core / 2 ** m - double_sum) * interval.length ** m
    assert report.exact_mse == float(report.exact_mse_rational)
    assert report.kernel_norm == kernel_norm(w).value(interval)
    assert report.bound == float(mse_bound_exact(
        pattern, (p,) * pattern.k, w, interval, table=table))
    assert report.case_id == classify_case(pattern)
    assert (report.case_id is None) == (pattern.k > 5)


@lru_cache(maxsize=None)
def _table_at(exponents, p):
    return coefficient_table(WeightSpec(exponents), p)


@st.composite
def real_tables(draw):
    """A random all-Wiener pattern of multiplicity 1..8, one of two weight
    families, its built table (order 3, or 1 above multiplicity 5), an
    order within it and a length."""
    k = draw(st.integers(1, 8))
    labels = tuple(draw(st.lists(st.integers(1, k), min_size=k, max_size=k)))
    exponents = draw(st.sampled_from([(0,) * k, (1,) + (0,) * (k - 1)]))
    table = _table_at(exponents, 3 if k <= 5 else 1)
    length = F(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return (IndexPattern(labels), table.weights, table,
            draw(st.integers(0, table.p)), Interval.from_length(length))


@settings(max_examples=60, deadline=None)
@given(real_tables())
def test_report_fields_match_their_public_routes_on_real_tables(case):
    _assert_report_fields_match_their_public_routes(*case)


@settings(max_examples=40, deadline=None)
@given(wide_tables(max_k=8))
def test_report_fields_match_their_public_routes_on_wide_numerators(case):
    pattern, w, table, p, _, interval = case
    _assert_report_fields_match_their_public_routes(pattern, w, table, p,
                                                    interval)


@pytest.mark.parametrize("labels", [
    (1,) * 8, (1, 1, 1, 1, 2, 2, 2, 2), (1, 1, 1, 1, 1, 2, 2, 3)])
def test_exact_error_at_multiplicity_8_matches_the_orbit_walk(labels):
    # at p = 3 the all-threes orbit of (1,) * 8 has w(O) = 7^8 and |Stab| =
    # 8!, a weight of 2.3e11 that a 32-bit integer would wrap; the table's
    # numerators are 64 to 200 bits wide, a quarter of them zero
    rng = random.Random(8)
    w, p = WeightSpec.unit(8), 3
    nums = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(64, 200))
            if rng.random() < 0.75 else 0 for _ in range((p + 1) ** 8)]
    table = CoeffTable(w, p, nums, rng.getrandbits(80) | 1)
    pattern = IndexPattern(labels)
    for order in range(p + 1):
        assert table.orbit_square_sum(order, pattern.blocks) \
            == orbit_walk_square_sum(table, order, pattern.blocks)[0]
    with pytest.warns(ExperimentalWarning):
        engine = exact_mse(pattern, p, w, UNIT, table=table)
    with pytest.warns(ExperimentalWarning):
        walked = orbit_walk_mse(pattern, p, w, UNIT, table=table)
    assert engine.exact_mse_rational == walked.exact_mse_rational


@lru_cache(maxsize=None)
def _table4(exponents):
    return coefficient_table(WeightSpec(exponents), 4)


@st.composite
def boxes(draw):
    """A pattern with at least one Wiener label, per-level orders 0..4 and
    a length below 1, so that time components are allowed."""
    k = draw(st.integers(1, 4))
    labels = tuple(draw(st.lists(st.integers(0, k), min_size=k, max_size=k)
                        .filter(any)))
    exponents = tuple(draw(st.lists(st.integers(0, 1), min_size=k,
                                    max_size=k)))
    p_levels = tuple(draw(st.lists(st.integers(0, 4), min_size=k,
                                   max_size=k)))
    length = F(draw(st.integers(1, 8)), 9)
    return IndexPattern(labels), WeightSpec(exponents), p_levels, length


@settings(max_examples=60, deadline=None)
@given(boxes())
def test_square_sum_lookup_matches_direct_sums_and_the_bound(box):
    pattern, w, p_levels, length = box
    table = _table4(w.exponents)
    squares, lcm = table.square_sum(p_levels)
    index, nums, same_lcm = integer_cores(table, p_levels)
    assert same_lcm == lcm
    assert index == list(itertools.product(*(range(p + 1) for p in p_levels)))
    assert nums == [table[j].core * lcm for j in index]
    assert squares == sum(math.prod(2 * m + 1 for m in j) * n * n
                          for j, n in zip(index, nums))
    interval = Interval.from_length(length)
    assert mse_bound_exact(pattern, p_levels, w, interval, table=table) \
        == factorial_bound(pattern.k, p_levels, w, interval, table)


# --- the per-table memo of orbit sums ----------------------------------------


@pytest.mark.parametrize("blocks", [[(0, 1), (1, 2)], [(0, 0)], [(-1, 0)],
                                    [(0, 5)], [(0, 1.5)]])
def test_orbit_square_sum_refuses_malformed_blocks(blocks):
    # unchecked, the first three returned 83992, 164288 and 81968 and the
    # fourth raised numpy's IndexError
    table = coefficient_table(WeightSpec.unit(3), 2)
    with pytest.raises(ValueError, match="positions"):
        table.orbit_square_sum(2, blocks)


def test_orbit_square_sum_ignores_the_order_of_blocks_and_positions():
    table = coefficient_table(WeightSpec.unit(4), 2)
    first = table.orbit_square_sum(2, [(0, 2), (1, 3)])
    assert table.orbit_square_sum(2, [(3, 1), (2, 0)]) == first
    assert table.orbit_square_sum(2, [[1, 3], (), [2, 0]]) == first
    assert orbit_walk_square_sum(table, 2, [(0, 2), (1, 3)])[0] == first


def test_orbit_square_sum_of_an_all_zero_table_is_zero():
    table = CoeffTable(WeightSpec.unit(3), 2, [0] * 27, 5)
    assert [table.orbit_square_sum(p, [(0, 1, 2)]) for p in range(3)] \
        == [0, 0, 0]


@st.composite
def memo_cases(draw):
    """An all-Wiener pattern of multiplicity 1..5, one of two weight
    families, the orders 0..3 in random order and a seed."""
    k = draw(st.integers(1, 5))
    labels = tuple(draw(st.lists(st.integers(1, k), min_size=k, max_size=k)))
    exponents = draw(st.sampled_from([(0,) * k, (1,) + (0,) * (k - 1)]))
    return (IndexPattern(labels), WeightSpec(exponents),
            draw(st.permutations(range(4))), draw(st.integers(0, 2 ** 32)))


@settings(max_examples=60, deadline=None)
@given(memo_cases())
def test_orbit_memo_matches_the_walk_at_orders_in_any_order(case):
    pattern, w, orders, seed = case
    built = _table(w.exponents)
    # a table of its own, so that the memo fills at the first order drawn
    table = CoeffTable(w, 3, built._nums, built._lcm)
    errors = {}
    for p in orders:
        assert table.orbit_square_sum(p, pattern.blocks) \
            == orbit_walk_square_sum(table, p, pattern.blocks)[0]
        errors[p] = exact_mse(pattern, p, w, UNIT,
                              table=table).exact_mse_rational
    # every orbit term is nonnegative, so the error cannot rise with p
    assert errors[0] >= errors[1] >= errors[2] >= errors[3] >= 0
    # equal blocks on another table give that table's sums
    rng = random.Random(seed)
    other = CoeffTable(w, 3, [rng.randint(-10 ** 6, 10 ** 6)
                              for _ in range(4 ** w.k)], rng.randint(1, 99))
    for p in orders:
        assert other.orbit_square_sum(p, pattern.blocks) \
            == orbit_walk_square_sum(other, p, pattern.blocks)[0]


def test_threads_sharing_a_fresh_table_get_the_serial_errors():
    # one thread visits the orders ascending, the other descending, so that
    # shells are grouped in one thread while the other reads the memo
    w = WeightSpec.unit(4)
    patterns = [IndexPattern(labels) for labels in set_partitions(4)]

    def errors(table, orders):
        return {(pattern.labels, p): exact_mse(pattern, p, w, UNIT,
                                               table=table).exact_mse_rational
                for pattern in patterns for p in orders}

    serial = errors(coefficient_table(w, 3), range(4))
    shared = coefficient_table(w, 3)
    start = threading.Barrier(2)

    def run(orders):
        start.wait()
        return errors(shared, orders)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = [f.result() for f in [pool.submit(run, orders) for orders
                                            in (range(4), range(3, -1, -1))]]
    finally:
        sys.setswitchinterval(interval)
    assert results == [serial, serial]


def test_a_low_order_call_groups_only_its_shells():
    built = _table((0, 0, 0))
    table = CoeffTable(built.weights, 3, built._nums, built._lcm)
    table.orbit_square_sum(1, [(0, 2), (1,)])
    assert len(table._orbit_memo[((0, 2),)]) == 2
    assert table.orbit_square_sum(3, [(0, 2), (1,)]) \
        == orbit_walk_square_sum(table, 3, [(0, 2), (1,)])[0]
    assert len(table._orbit_memo[((0, 2),)]) == 4


# --- golden digest of exact errors --------------------------------------------

# SHA-256 of the exact errors below, one str(Fraction) a line, pinned from
# the per-order orbit passes that preceded the memo; any change to an exact
# error, however small, changes it
GOLDEN_DIGEST = \
    "2eb9eae6754ea893f0b40ba9ad673f89655f087cc51c8fecc879c21ebdab5422"


def golden_errors():
    for first in (0, 1):
        for k in range(1, 6):
            w = WeightSpec((first,) + (0,) * (k - 1))
            table = coefficient_table(w, 3)
            for labels in set_partitions(k):
                for p in range(4):
                    for length in (F(3, 4), F(7, 5)):
                        yield exact_mse(IndexPattern(labels), p, w,
                                        Interval.from_length(length),
                                        table=table).exact_mse_rational
    w = WeightSpec.unit(5)
    table = coefficient_table(w, 5)
    for labels in set_partitions(5):
        for p in range(6):
            yield exact_mse(IndexPattern(labels), p, w, UNIT,
                            table=table).exact_mse_rational


def test_exact_errors_match_the_golden_digest():
    text = "\n".join(str(e) for e in golden_errors())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


# --- golden digest of every report field ---------------------------------------

# SHA-256 of every field an MseReport computes, one report a line: the
# rational error, the repr of its float, of the bound and of the kernel norm,
# and the case label; pinned from the per-call Fractions that preceded the
# per-weight terms, so a float formed in another order shows
GOLDEN_REPORT_DIGEST = \
    "e125d967de8e53e0a148dc2ecdc70bfc17190c6e5bb9406e03b224cf9e3c4b68"


def golden_reports():
    for first in (0, 1):
        for k in range(1, 6):
            w = WeightSpec((first,) + (0,) * (k - 1))
            table = _table_at(w.exponents, 5)
            for labels in set_partitions(k):
                for p in range(6):
                    for length in (F(3, 4), F(7, 5)):
                        r = exact_mse(IndexPattern(labels), p, w,
                                      Interval.from_length(length), table=table)
                        yield (f"{r.exact_mse_rational} {r.exact_mse!r} "
                               f"{r.bound!r} {r.kernel_norm!r} {r.case_id}")


def test_report_fields_match_the_golden_report_digest():
    text = "\n".join(golden_reports())
    assert len(text.splitlines()) == 2 * 75 * 6 * 2
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REPORT_DIGEST

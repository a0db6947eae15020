"""Matching generator against the hand-written correction-term lists."""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expected_terms, fsum_realize

import itolegendre.expansion as expansion
from itolegendre.coeffs import Interval, WeightSpec, coefficient_table
from itolegendre.expansion import (
    ExperimentalWarning,
    GaussianDraw,
    IndexPattern,
    MissingCoefficientError,
    enumerate_matchings,
    expansion_plan,
    realize,
    sample_draw,
)


def generated_terms(pattern):
    return {
        (frozenset(frozenset(pair) for pair in term.pairs), term.sign,
         term.free_positions)
        for term in enumerate_matchings(pattern)
    }


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_matchings_match_printed_expansions_for_all_patterns(k):
    # every label assignment with values 0..k covers every coincidence
    # structure, time components included
    for labels in itertools.product(range(k + 1), repeat=k):
        pattern = IndexPattern(labels)
        assert generated_terms(pattern) == expected_terms(labels), labels


def test_matching_counts_for_fully_equal_patterns():
    assert len(enumerate_matchings(IndexPattern((1, 2)))) == 1
    assert len(enumerate_matchings(IndexPattern((1, 1, 1, 1)))) == 10
    assert len(enumerate_matchings(IndexPattern((1,) * 5))) == 26
    signs = [t.sign for t in enumerate_matchings(IndexPattern((1, 1, 1, 1)))]
    assert signs.count(1) == 4 and signs.count(-1) == 6


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_matching_count_formula_single_block(m):
    # sum over r of C(m, 2r) (2r - 1)!! partial matchings of one block
    expected = sum(comb(m, 2 * r) * math.prod(range(1, 2 * r, 2))
                   for r in range(m // 2 + 1))
    assert len(enumerate_matchings(IndexPattern((1,) * m))) == expected


def test_large_multiplicity_flagged_experimental():
    with pytest.warns(ExperimentalWarning):
        enumerate_matchings(IndexPattern((1, 2, 3, 4, 5, 6)))


# --- draws -------------------------------------------------------------------


def test_sample_draw_is_deterministic():
    pattern = IndexPattern((1, 0, 2))
    a = sample_draw(pattern, 4, seed=123, interval=Interval.from_length(2))
    b = sample_draw(pattern, 4, seed=123, interval=Interval.from_length(2))
    assert a.length == b.length
    for label in (0, 1, 2):
        np.testing.assert_array_equal(a.zeta[label], b.zeta[label])
    c = sample_draw(pattern, 4, seed=124, interval=Interval.from_length(2))
    assert not np.array_equal(a.zeta[1], c.zeta[1])


def test_sample_draw_time_component_row():
    draw = sample_draw(IndexPattern((0, 1)), 3, seed=5,
                       interval=Interval.from_length(4))
    np.testing.assert_array_equal(draw.zeta[0], [2.0, 0.0, 0.0, 0.0])
    assert draw.truncation == 3


def test_sample_draw_moments():
    # one wide draw gives 10^5 entries of the same Gaussian family
    wide = sample_draw(IndexPattern((1,)), 10 ** 5 - 1, seed=77).zeta[1]
    assert abs(wide.mean()) < 4 / math.sqrt(wide.size)
    assert abs(wide.var() - 1.0) < 4 * math.sqrt(2.0 / wide.size)
    # and rows from distinct seeds stay centered as well
    rows = np.array([sample_draw(IndexPattern((1,)), 2, seed=s).zeta[1]
                     for s in range(200)])
    flat = rows.ravel()
    assert abs(flat.mean()) < 4 / math.sqrt(flat.size)


# --- realizations ------------------------------------------------------------


def test_realize_single_level():
    pattern = IndexPattern((3,))
    table = coefficient_table(WeightSpec.unit(1), 0)
    draw = GaussianDraw(length=0.25, zeta={3: np.array([1.7])})
    assert realize(pattern, 0, table, draw) == math.sqrt(0.25) * 1.7


def test_realize_missing_entry():
    pattern = IndexPattern((1, 2))
    table = coefficient_table(WeightSpec.unit(2), 1)
    draw = sample_draw(pattern, 3, seed=0)
    with pytest.raises(MissingCoefficientError):
        realize(pattern, 3, table, draw)


@pytest.mark.parametrize("p", range(11))
def test_realize_equal_pair_collapses_exactly(p):
    # with both levels on one Wiener component the expansion telescopes to
    # length * (z^2 - 1) / 2 at every truncation order, bit for bit
    pattern = IndexPattern((4, 4))
    length = 0.75
    table = coefficient_table(WeightSpec.unit(2), p)
    for seed in range(5):
        draw = sample_draw(pattern, p, seed=seed,
                           interval=Interval.from_length(length))
        z = draw.zeta[4][0]
        assert realize(pattern, p, table, draw) == length * (z * z - 1) / 2


@pytest.mark.parametrize("p", [0, 1, 3, 6])
def test_realize_distinct_pair_matches_banded_series(p):
    # with two distinct components the realization reduces to
    # (L/2) (z0 z0' + sum_i (z_{i-1} z_i' - z_i z_{i-1}') / sqrt(4 i^2 - 1))
    pattern = IndexPattern((1, 2))
    length = 1.25
    table = coefficient_table(WeightSpec.unit(2), p)
    for seed in range(4):
        draw = sample_draw(pattern, p, seed=seed,
                           interval=Interval.from_length(length))
        z, w_ = draw.zeta[1], draw.zeta[2]
        series = z[0] * w_[0]
        for i in range(1, p + 1):
            series += (z[i - 1] * w_[i] - z[i] * w_[i - 1]) \
                / math.sqrt(4 * i * i - 1)
        expected = length / 2 * series
        got = realize(pattern, p, table, draw)
        assert got == pytest.approx(expected, rel=1e-12)


def test_realize_zero_mean():
    pattern = IndexPattern((1, 1, 2))
    p = 1
    table = coefficient_table(WeightSpec.unit(3), p)
    values = np.array([
        realize(pattern, p, table, sample_draw(pattern, p, seed=s))
        for s in range(20_000)
    ])
    stderr = values.std(ddof=1) / math.sqrt(values.size)
    assert abs(values.mean()) < 4 * stderr


def test_realize_shell_increments_uncorrelated():
    # realizations at nested truncations share the draw; the increment is
    # uncorrelated with the coarser realization
    for labels, p, n in [((1, 2), 0, 1), ((1, 1, 2), 0, 1)]:
        pattern = IndexPattern(labels)
        table = coefficient_table(WeightSpec.unit(len(labels)), n)
        coarse, increment = [], []
        for seed in range(20_000):
            draw = sample_draw(pattern, n, seed=seed)
            low = realize(pattern, p, table, draw)
            high = realize(pattern, n, table, draw)
            coarse.append(low)
            increment.append(high - low)
        coarse = np.array(coarse)
        increment = np.array(increment)
        prod = coarse * increment
        cov = prod.mean() - coarse.mean() * increment.mean()
        stderr = prod.std(ddof=1) / math.sqrt(prod.size)
        assert abs(cov) < 4 * stderr, labels


def test_realize_triple_collapses_to_hermite_form():
    # all three levels on one component: the expansion saturates at p = 0
    # and equals the cubic Hermite polynomial in z0 up to rounding
    from itolegendre.msekit import exact_mse

    pattern = IndexPattern((1, 1, 1))
    w = WeightSpec.unit(3)
    length = 1.0
    for p in (0, 2, 4):
        table = coefficient_table(w, p)
        report = exact_mse(pattern, p, w, Interval.from_length(length),
                           table=table)
        assert report.exact_mse_rational == 0
        gaps = []
        for seed in range(500):
            draw = sample_draw(pattern, p, seed=seed)
            z = draw.zeta[1][0]
            hermite = length ** 1.5 * (z ** 3 - 3 * z) / 6
            gaps.append((realize(pattern, p, table, draw) - hermite) ** 2)
        second_moment = length ** 3 / 6
        assert np.mean(gaps) < 1e-25 * second_moment


# --- the orbit-summed plan against the compensated-summation oracle ----------


@lru_cache(maxsize=None)
def _table(exponents, p):
    return coefficient_table(WeightSpec(exponents), p)


def abs_terms(pattern, p, table, draw):
    """Sum of |C(j)| times the absolute matching terms: the rounding scale."""
    total = 0.0
    for j in itertools.product(range(p + 1), repeat=pattern.k):
        c = abs(table[j].value(draw.length))
        for term in enumerate_matchings(pattern):
            if all(j[a] == j[b] for a, b in term.pairs):
                total += c * math.prod(
                    abs(draw.zeta[pattern.labels[pos]][j[pos]])
                    for pos in term.free_positions)
    return total


@st.composite
def realizations(draw):
    """A pattern of multiplicity 1..4 (time, repeated and arbitrary
    labels), weights, an order, a rational length and a draw, perhaps
    with extra modes."""
    k = draw(st.integers(1, 4))
    labels = tuple(draw(st.lists(st.integers(0, 9), min_size=k, max_size=k)))
    exponents = tuple(draw(st.lists(st.integers(0, 2), min_size=k,
                                    max_size=k)))
    p = draw(st.integers(0, 3))
    length = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
    extra = draw(st.integers(0, 1))
    pattern = IndexPattern(labels)
    seed = draw(st.integers(0, 10 ** 6))
    sample = sample_draw(pattern, p + extra, seed=seed,
                         interval=Interval.from_length(length))
    return pattern, exponents, p, sample


@settings(max_examples=60, deadline=None)
@given(realizations(), st.permutations(range(1, 10)))
def test_plan_agrees_with_compensated_sum(case, image):
    pattern, exponents, p, draw = case
    table = _table(exponents, p)
    got = realize(pattern, p, table, draw)
    scale = abs_terms(pattern, p, table, draw)
    assert abs(got - fsum_realize(pattern, p, table, draw)) <= 1e-12 * scale
    # relabelling the Wiener components, and their draws with them, changes
    # nothing: the plan gathers the same factors in the same order
    relabel = {0: 0, **{label: image[label - 1] for label in range(1, 10)}}
    moved = IndexPattern(tuple(relabel[label] for label in pattern.labels))
    moved_draw = GaussianDraw(length=draw.length, zeta={
        relabel[label]: row for label, row in draw.zeta.items()})
    assert realize(moved, p, table, moved_draw) == got


@pytest.mark.parametrize("labels,orders", [((1, 1), range(11)),
                                           ((1, 1, 1), range(7)),
                                           ((6, 6, 6), [3])])
def test_equal_blocks_keep_a_single_orbit(labels, orders):
    for p in orders:
        plan = expansion_plan(IndexPattern(labels), p,
                              _table((0,) * len(labels), max(orders)))
        assert len(plan.coefficients) == 1, p
        assert plan.columns.shape == (len(plan.signs), len(labels))


def test_plan_batch_equals_single_draws_and_blocks_do_not_matter(monkeypatch):
    pattern = IndexPattern((2, 0, 2, 5))
    p = 2
    table = _table((1, 0, 0, 2), p)
    plan = expansion_plan(pattern, p, table)
    draws = [sample_draw(pattern, p, seed=s, interval=0.6) for s in range(7)]
    batch = {label: np.stack([d.zeta[label] for d in draws])
             for label in (0, 2, 5)}
    whole = plan.values(batch, 0.6)
    np.testing.assert_array_equal(
        whole, [realize(pattern, p, table, d) for d in draws])
    # a budget of a few floats splits the terms into blocks of whole orbits
    monkeypatch.setattr(expansion, "CHUNK_FLOATS", 120)
    blocked = plan.values(batch, 0.6)
    np.testing.assert_allclose(blocked, whole, rtol=1e-13, atol=1e-15)


def test_realize_rejects_a_draw_with_too_few_modes():
    pattern = IndexPattern((1, 2))
    table = coefficient_table(WeightSpec.unit(2), 3)
    draw = sample_draw(pattern, 2, seed=0)
    with pytest.raises(ValueError, match="modes"):
        realize(pattern, 3, table, draw)

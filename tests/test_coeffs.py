"""Coefficient layer: exact values, scaling, quadrature oracle, cache."""

import copy
import dataclasses
import itertools
import json
import math
import multiprocessing
import pickle
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    basis_phi,
    gauss_coefficient,
    integer_chain_cores,
    integer_cores,
    orbit_sums,
    ordered_monomial_integral,
)

import itolegendre.coeffs as coeffs
from itolegendre.coeffs import (
    CacheIntegrityError,
    CoeffTable,
    CoeffValue,
    DegreeCapError,
    Interval,
    WeightSpec,
    coefficient_table,
    fourier_coefficient,
    kernel_norm,
    load_table,
    save_table,
)
from itolegendre.expansion import IndexPattern
from itolegendre.msekit import exact_mse, mse_bound_exact

F = Fraction
UNIT = Interval.from_length(1)


# --- domain types ------------------------------------------------------------


def test_interval_validation_and_length():
    iv = Interval(F(1, 2), F(2))
    assert iv.length == F(3, 2)
    assert Interval.from_length("0.25").length == F(1, 4)
    with pytest.raises(ValueError):
        Interval(1, 1)


@settings(max_examples=100, deadline=None)
@given(st.fractions(-10 ** 3, 10 ** 3, max_denominator=10 ** 3),
       st.one_of(st.sampled_from([F(1, 10 ** 6), F(10 ** 6)]),
                 st.fractions(F(1, 10 ** 6), 10 ** 6, max_denominator=10 ** 6)))
def test_interval_length_is_derived_once_and_kept_out_of_identity(t, length):
    iv = Interval(t, t + length)
    assert iv.length == iv.T - iv.t == length
    assert type(iv.length) is Fraction
    # equality, hashing and the repr read the endpoints alone, as before
    assert iv == Interval(str(t), t + length)
    assert iv != Interval(t, t + 2 * length)
    assert hash(iv) == hash((iv.t, iv.T))
    assert repr(iv) == f"Interval(t={iv.t!r}, T={iv.T!r})"
    for twin in (pickle.loads(pickle.dumps(iv)), copy.copy(iv),
                 copy.deepcopy(iv)):
        assert twin == iv and twin.length == length
    assert dataclasses.replace(iv, T=iv.T + 1).length == length + 1
    assert dataclasses.replace(iv, t=iv.t - length).length == 2 * length
    with pytest.raises(TypeError):
        Interval(t, t + length, length=length)


def test_weight_spec_validation():
    assert WeightSpec.unit(3).exponents == (0, 0, 0)
    assert WeightSpec((1, 0)).k == 2
    with pytest.raises(ValueError):
        WeightSpec(())
    with pytest.raises(ValueError):
        WeightSpec((0,) * 9)
    with pytest.raises(ValueError):
        WeightSpec((-1,))


def test_weight_spec_refuses_exponents_that_are_not_integers():
    # int() truncated (0.5, 0) to the unit weights
    w = WeightSpec((np.int64(1), np.uint8(0)))
    assert w == WeightSpec((1, 0))
    assert all(type(q) is int for q in w.exponents)
    for exponents in [(0.5, 0), (1.0, 0), ("1", 0)]:
        with pytest.raises(TypeError):
            WeightSpec(exponents)


# --- basis -------------------------------------------------------------------


def test_basis_constant_mode():
    assert basis_phi(0, UNIT)(0.37) == pytest.approx(1.0)
    assert basis_phi(0, Interval.from_length(4))(1.0) == pytest.approx(0.5)


def test_basis_mode_one_at_right_endpoint():
    # sqrt(3 / 1) * P_1(1)
    assert basis_phi(1, UNIT)(1.0) == pytest.approx(math.sqrt(3))


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_basis_orthonormal_by_quadrature(i, j):
    iv = Interval(F(1, 4), F(7, 4))
    x, wts = np.polynomial.legendre.leggauss(24)
    s = float(iv.t) + (x + 1.0) * float(iv.length) / 2.0
    inner = float(iv.length) / 2.0 * float(
        wts @ (basis_phi(i, iv)(s) * basis_phi(j, iv)(s)))
    assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_basis_rejects_negative_mode():
    with pytest.raises(ValueError):
        basis_phi(-1, UNIT)


# --- single coefficients -----------------------------------------------------


def test_coefficient_k1_constant_mode():
    cv = fourier_coefficient((0,), WeightSpec.unit(1))
    assert (cv.core, cv.sqrt_factors, cv.half_power, cv.two_power) == \
        (F(2), (1,), 1, 1)
    assert cv.value(UNIT) == pytest.approx(1.0)
    assert cv.value(Interval.from_length(4)) == pytest.approx(2.0)


@pytest.mark.parametrize("mode", [1, 2, 5])
def test_coefficient_k1_higher_modes_vanish(mode):
    assert fourier_coefficient((mode,), WeightSpec.unit(1)).core == 0


def test_coefficient_k3_all_zero_modes():
    # simplex volume on [-1, 1]^3 is 2^3 / 3!
    cv = fourier_coefficient((0, 0, 0), WeightSpec.unit(3))
    assert cv.core == ordered_monomial_integral((0, 0, 0), 2) == F(4, 3)
    assert cv.value(UNIT) == pytest.approx(1.0 / 6.0)


def test_coefficient_k2_leading_term():
    # leading coefficient is half the interval length
    cv = fourier_coefficient((0, 0), WeightSpec.unit(2))
    assert cv.value(UNIT) == pytest.approx(0.5)
    assert cv.value(Interval.from_length(3)) == pytest.approx(1.5)


def test_coefficient_scale_factor_bookkeeping():
    for exponents, j in [((0, 0), (1, 2)), ((1, 0), (0, 0)),
                         ((2, 1, 0), (3, 0, 1))]:
        w = WeightSpec(exponents)
        cv = fourier_coefficient(j, w)
        assert cv.half_power == w.k + 2 * sum(exponents)
        assert cv.two_power == w.k + sum(exponents)
        assert cv.sqrt_factors == tuple(2 * m + 1 for m in j)


def test_coefficient_reconstruction_matches_split():
    # k=3 values scale as sqrt(prod(2j+1)) / 8 * L^(3/2) * core
    w = WeightSpec.unit(3)
    for j in [(0, 0, 0), (1, 0, 2), (2, 2, 1)]:
        cv = fourier_coefficient(j, w)
        expected = (math.sqrt(math.prod(2 * m + 1 for m in j)) / 8.0
                    * 2.0 ** 1.5 * float(cv.core))
        assert cv.value(Interval.from_length(2)) == pytest.approx(expected)


def test_coefficient_validates_arguments():
    with pytest.raises(ValueError):
        fourier_coefficient((0,), WeightSpec.unit(2))
    with pytest.raises(ValueError):
        fourier_coefficient((-1, 0), WeightSpec.unit(2))
    with pytest.raises(DegreeCapError):
        fourier_coefficient((31, 0), WeightSpec.unit(2))
    with pytest.raises(DegreeCapError):
        fourier_coefficient((0,), WeightSpec((6,)))


def test_coefficient_refuses_modes_that_are_not_integers():
    # int() truncated (1.5, 0) to (1, 0) and returned its core, -2/3
    w = WeightSpec.unit(2)
    assert fourier_coefficient((np.int64(1), 0), w) \
        == fourier_coefficient((1, 0), w)
    assert fourier_coefficient((1, 0), w).core == F(-2, 3)
    for j in [(1.5, 0), (1.0, 0)]:
        with pytest.raises(TypeError):
            fourier_coefficient(j, w)


# --- kernel norm -------------------------------------------------------------


@pytest.mark.parametrize("k,expected", [(1, 1.0), (2, 0.5), (3, 1.0 / 6.0)])
def test_kernel_norm_unit_weights(k, expected):
    assert kernel_norm(WeightSpec.unit(k)).value(UNIT) == pytest.approx(expected)
    assert kernel_norm(WeightSpec.unit(k)).value(Interval.from_length(2)) == \
        pytest.approx(expected * 2.0 ** k)


@pytest.mark.parametrize("exponents", [(1,), (1, 0), (0, 2, 1), (1, 1, 1)])
def test_kernel_norm_matches_monomial_oracle(exponents):
    w = WeightSpec(exponents)
    length = F(3, 2)
    oracle = ordered_monomial_integral(tuple(2 * q for q in exponents), length)
    got = kernel_norm(w).value(Interval(0, length))
    assert got == pytest.approx(float(oracle), rel=1e-13)


def test_kernel_norm_is_memoized_per_weights():
    # equal weight specs share one norm; the chain is not rebuilt per call
    first = kernel_norm(WeightSpec((2, 0, 1)))
    assert kernel_norm(WeightSpec((2, 0, 1))) is first
    assert kernel_norm(WeightSpec((0, 2, 1))) is not first


# --- quadrature cross-check --------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_quadrature_cross_check(k):
    import itertools

    iv = Interval(F(1, 4), F(5, 4))
    for exponents in [(0,) * k, (1,) + (0,) * (k - 1)]:
        w = WeightSpec(exponents)
        if k <= 2:
            modes = list(itertools.product(range(5), repeat=k))
        else:
            modes = [(0,) * k, (1,) * k, tuple(range(k)),
                     (4,) + (2,) * (k - 1), (3, 0, 4)]
        for j in modes:
            exact = fourier_coefficient(j, w).value(iv)
            quad = gauss_coefficient(j, w, iv)
            assert exact == pytest.approx(quad, abs=1e-10)


# --- integer u-space oracle --------------------------------------------------


@st.composite
def simplex_cases(draw):
    """Weights of multiplicity 1..5 with exponents 0..3, a multi-index with
    modes 0..6, and a table order 0..3."""
    k = draw(st.integers(1, 5))
    exponents = tuple(draw(st.lists(st.integers(0, 3), min_size=k,
                                    max_size=k)))
    j = tuple(draw(st.lists(st.integers(0, 6), min_size=k, max_size=k)))
    return WeightSpec(exponents), j, draw(st.integers(0, 3))


@settings(max_examples=60, deadline=None)
@given(simplex_cases())
def test_cores_equal_the_integer_chain(case):
    w, j, p = case
    assert [fourier_coefficient(j, w).core] == integer_chain_cores(
        w.exponents, [(m,) for m in j])
    doubled = tuple(2 * q for q in w.exponents)
    assert [kernel_norm(w).core] == integer_chain_cores(doubled, [(0,)] * w.k)
    table = coefficient_table(w, p)
    assert list(table) == list(itertools.product(range(p + 1), repeat=w.k))
    assert [cv.core for cv in table.values()] == integer_chain_cores(
        w.exponents, [range(p + 1)] * w.k)


# --- tables ------------------------------------------------------------------


def test_table_size_and_order():
    w = WeightSpec.unit(2)
    table = coefficient_table(w, 2)
    assert len(table) == 9
    assert list(table) == sorted(table)
    single = coefficient_table(WeightSpec.unit(1), 2)
    assert [cv.core for cv in single.values()] == [F(2), 0, 0]


def test_table_is_an_immutable_typed_mapping():
    w = WeightSpec((1, 0))
    table = coefficient_table(w, 2)
    assert isinstance(table, CoeffTable)
    assert (table.weights, table.p) == (w, 2)
    plain = dict(table)
    assert list(plain) == list(table) == sorted(table)
    assert table == plain and plain == table
    assert table == coefficient_table(w, 2)
    assert table != coefficient_table(WeightSpec((0, 1)), 2)
    with pytest.raises(TypeError):
        table[(0, 0)] = table[(0, 1)]
    with pytest.raises(TypeError):
        del table[(0, 0)]
    with pytest.raises(AttributeError):
        table.p = 3
    assert len(table) == 9 and (2, 2) in table and (3, 0) not in table


def test_table_size_guard_rejects_oversize_requests_up_front():
    start = time.perf_counter()
    with pytest.raises(DegreeCapError, match=r"852891037441 .*1000000"):
        coefficient_table(WeightSpec.unit(8), 30)
    assert time.perf_counter() - start < 0.5


def test_table_size_guard_admits_exactly_the_limit(monkeypatch):
    monkeypatch.setattr(coeffs, "MAX_TABLE_ENTRIES", 9)
    assert len(coefficient_table(WeightSpec.unit(2), 2)) == 9
    with pytest.raises(DegreeCapError, match="16 table entries"):
        coefficient_table(WeightSpec.unit(2), 3)


def test_table_reproduces_antisymmetric_pair_structure():
    # nonzero off-diagonal pattern: adjacent modes with opposite signs
    table = coefficient_table(WeightSpec.unit(2), 1)
    assert table[(0, 1)].core == F(2, 3)
    assert table[(1, 0)].core == F(-2, 3)
    assert table[(0, 1)].value(UNIT) == pytest.approx(1 / (2 * math.sqrt(3)))
    assert table[(1, 0)].value(UNIT) == -table[(0, 1)].value(UNIT)
    assert table[(1, 1)].core == 0


def test_pair_table_is_tridiagonal_with_known_band():
    # the unit-weight pair kernel projects onto adjacent modes only:
    # value(i-1, i) = (L/2) / sqrt(4 i^2 - 1), its mirror is the negative,
    # and everything farther from the diagonal vanishes
    table = coefficient_table(WeightSpec.unit(2), 6)
    for i in range(1, 7):
        band = 0.5 / math.sqrt(4 * i * i - 1)
        assert table[(i - 1, i)].value(UNIT) == pytest.approx(band, rel=1e-13)
        assert table[(i, i - 1)].value(UNIT) == -table[(i - 1, i)].value(UNIT)
    for a in range(7):
        for b in range(7):
            if abs(a - b) > 1 or (a == b and a > 0):
                assert table[(a, b)].core == 0
    assert table[(0, 0)].value(UNIT) == pytest.approx(0.5)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_parseval_partial_sums(k):
    w = WeightSpec.unit(k)
    norm = kernel_norm(w)
    norm_scaled = norm.core * F(1, 2 ** norm.two_power)
    table = coefficient_table(w, 6)
    previous = F(0)
    for p in range(7):
        captured = F(0)
        for j, cv in table.items():
            if max(j) <= p:
                captured += (cv.core ** 2 * math.prod(cv.sqrt_factors)
                             * F(1, 4 ** cv.two_power))
        assert previous <= captured <= norm_scaled
        previous = captured


@pytest.mark.parametrize("lam", [F(1, 4), 4])
def test_scale_covariance(lam):
    for exponents in [(0, 0), (1, 0, 2)]:
        w = WeightSpec(exponents)
        power = (w.k + 2 * sum(exponents)) / 2
        base = Interval.from_length(F(5, 8))
        scaled = Interval.from_length(F(5, 8) * lam)
        for j in [(0,) * w.k, (1, 0) + (2,) * (w.k - 2)]:
            cv = fourier_coefficient(j, w)
            if cv.core == 0:
                continue
            ratio = cv.value(scaled) / cv.value(base)
            assert ratio == pytest.approx(float(lam) ** power, rel=1e-12)


@st.composite
def shell_cases(draw):
    """A table of order 0..3 at multiplicity 1..4 with random numerators,
    about a quarter of them zero, random blocks of its positions, each in
    random order, and a range of shells within the table."""
    k = draw(st.integers(1, 4))
    top = draw(st.integers(0, 3))
    entry = st.tuples(st.integers(0, 3), st.integers(-9, 9)) \
        .map(lambda pair: pair[1] if pair[0] else 0)
    nums = draw(st.lists(entry, min_size=(top + 1) ** k,
                         max_size=(top + 1) ** k))
    table = CoeffTable(WeightSpec.unit(k), top, nums, draw(st.integers(1, 30)))
    labels = draw(st.lists(st.integers(1, k), min_size=k, max_size=k))
    blocks = [draw(st.permutations([pos for pos in range(k)
                                    if labels[pos] == label]))
              for label in draw(st.permutations(sorted(set(labels))))]
    p = draw(st.integers(0, top))
    return table, blocks, draw(st.integers(0, p)), p


@settings(max_examples=80, deadline=None)
@given(shell_cases())
def test_shell_orbits_match_the_dict_walk(case):
    # the grouping behind the exact error and the expansion plan: for each
    # orbit, in the order of its lexicographically first nonzero member,
    # that member, w and the integer core sum
    table, blocks, lo, p = case
    reps, weights, sums = table._shell_orbits(blocks, range(lo, p + 1))
    index, nums, _ = integer_cores(table, (p,) * table.weights.k)
    walk = [(j, s) for s, j in orbit_sums(index, nums, blocks).values()
            if max(j) >= lo]
    assert [tuple(r) for r in reps.tolist()] == [j for j, _ in walk]
    assert sums.tolist() == [s for _, s in walk]
    assert weights.tolist() == [math.prod(2 * m + 1 for m in j)
                                for j, _ in walk]


# --- cache -------------------------------------------------------------------


def test_cache_round_trip(tmp_path):
    w = WeightSpec((0, 1))
    table = coefficient_table(w, 3)
    path = tmp_path / "table.json"
    save_table(path, w, 3, table)
    w2, p2, reloaded = load_table(path)
    assert (w2, p2) == (w, 3)
    assert reloaded == table


def test_save_table_does_not_write_through_a_fixed_temp_name(tmp_path):
    # a directory squatting on the old fixed name <key>.json.tmp
    w = WeightSpec.unit(2)
    table = coefficient_table(w, 1)
    path = tmp_path / "table.json"
    (tmp_path / "table.json.tmp").mkdir()
    save_table(path, w, 1, table)
    assert load_table(path)[2] == table
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["table.json", "table.json.tmp"]


def test_save_table_removes_its_temp_file_on_failure(tmp_path, monkeypatch):
    import itolegendre.coeffs as coeffs

    def refuse(src, dst):
        raise OSError("replace refused")

    w = WeightSpec.unit(2)
    table = coefficient_table(w, 1)
    monkeypatch.setattr(coeffs.os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_table(tmp_path / "table.json", w, 1, table)
    assert list(tmp_path.iterdir()) == []


def test_save_table_takes_only_a_table_of_its_weights_and_order(tmp_path):
    w = WeightSpec.unit(2)
    table = coefficient_table(w, 1)
    path = tmp_path / "table.json"
    with pytest.raises(TypeError, match="CoeffTable"):
        save_table(path, w, 1, dict(table))
    for other_w, other_p in [(WeightSpec((1, 0)), 1), (w, 2)]:
        with pytest.raises(ValueError, match="cannot save"):
            save_table(path, other_w, other_p, table)
    assert list(tmp_path.iterdir()) == []


def test_coefficient_table_uses_cache_dir(tmp_path, monkeypatch):
    w = WeightSpec.unit(2)
    first = coefficient_table(w, 2, cache_dir=tmp_path)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    again = coefficient_table(w, 2, cache_dir=tmp_path)
    assert again == first

    monkeypatch.setenv("COEFF_CACHE_DIR", str(tmp_path))
    from_env = coefficient_table(w, 2)
    assert from_env == first


def test_cache_detects_corruption(tmp_path):
    w = WeightSpec.unit(2)
    coefficient_table(w, 1, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.json"))
    text = path.read_text()
    corrupted = text.replace('"core": "2/3"', '"core": "2/5"', 1)
    assert corrupted != text
    path.write_text(corrupted)
    with pytest.raises(CacheIntegrityError):
        load_table(path)


def test_cache_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(CacheIntegrityError):
        load_table(path)


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_cache_rejects_json_that_is_no_object(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(CacheIntegrityError, match="malformed"):
        load_table(path)


def test_cache_rejects_a_negative_order(tmp_path):
    # one entry, as many as (p + 1)^k gives for p = -2, k = 2
    w = WeightSpec.unit(2)
    coefficient_table(w, 0, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    doc["p"] = -2
    doc["checksum"] = coeffs._checksum(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheIntegrityError, match="lexicographic"):
        load_table(path)


@pytest.mark.parametrize("edit", [
    {"p": 1.9}, {"p": True}, {"p": "1"}, {"exponents": [0.2, 0]},
    {"exponents": [0, False]}, {"exponents": "00"}, {"k": 7}, {"k": 2.0},
    {"p": 1.0}, {"p": 1.9, "exponents": [0.2, False], "k": 7}])
def test_cache_rejects_a_k_p_or_exponent_that_is_no_integer_of_the_table(
        tmp_path, edit):
    # each edit, with a fresh checksum, would coerce back to the stored table
    w = WeightSpec.unit(2)
    coefficient_table(w, 1, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    doc.update(edit)
    doc["checksum"] = coeffs._checksum(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheIntegrityError, match="as integers"):
        load_table(path)


def test_cache_rejects_checksum_field_tampering(tmp_path):
    w = WeightSpec.unit(1)
    coefficient_table(w, 1, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    doc["checksum"] = "0" * 64
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheIntegrityError):
        load_table(path)


def _move_origin(doc):
    doc["entries"][0]["j"] = [0, 5]


def _raise_half_powers(doc):
    for entry in doc["entries"]:
        entry["half_power"] += 2


def _swap_first_entries(doc):
    entries = doc["entries"]
    entries[0], entries[1] = entries[1], entries[0]


@pytest.mark.parametrize("edit", [_move_origin, _raise_half_powers,
                                  _swap_first_entries])
def test_cache_rejects_entries_the_weights_do_not_give(tmp_path, edit):
    # edited files with a fresh checksum: only the entries give them away
    w = WeightSpec.unit(2)
    coefficient_table(w, 1, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    edit(doc)
    doc["checksum"] = coeffs._checksum(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheIntegrityError, match="lexicographic"):
        load_table(path)


@pytest.mark.parametrize("core", ["1/0", "-3/00", "1.5", " 3/4", "3/-4",
                                  "3", "1/", "x/2", 7])
def test_cache_rejects_cores_other_than_an_integer_over_a_positive_one(
        tmp_path, core):
    # a tampered core with a fresh checksum
    w = WeightSpec.unit(2)
    coefficient_table(w, 2, cache_dir=tmp_path)
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    doc["entries"][4]["core"] = core
    doc["checksum"] = coeffs._checksum(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheIntegrityError):
        load_table(path)


GOLDEN = Path(__file__).parent / "data" / "coeffs_k3_q1-0-2_p2_cap30.json"


def test_golden_cache_file_is_reproduced_byte_for_byte(tmp_path):
    w, p = WeightSpec((1, 0, 2)), 2
    built = coefficient_table(w, p, cache_dir=tmp_path)
    assert (tmp_path / GOLDEN.name).read_bytes() == GOLDEN.read_bytes()
    assert load_table(GOLDEN) == (w, p, built)
    assert dict(load_table(GOLDEN)[2]) == dict(built)


def test_table_stores_reduced_numerators_over_one_lcm():
    w = WeightSpec((1, 0))
    table = coefficient_table(w, 2)
    index, nums, lcm = integer_cores(table, (2, 2))
    assert [Fraction(n, lcm) for n in nums] == [table[j].core for j in index]
    assert lcm == math.lcm(*(table[j].core.denominator for j in index))
    assert CoeffTable(w, 2, [6 * n for n in nums], 6 * lcm) == table
    with pytest.raises(ValueError, match="9 entries"):
        CoeffTable(w, 2, nums[:-1], lcm)
    with pytest.raises(ValueError, match="positive"):
        CoeffTable(w, 2, nums, 0)
    assert (table.half_power, table.two_power) == (4, 3)
    for absent in [(0, 3), (0,), (0, 0, 0), [0, 0], (0, 1.0), "ab"]:
        assert absent not in table
        with pytest.raises(KeyError):
            table[absent]


@st.composite
def small_specs(draw):
    """Weights of multiplicity 1..3 with exponents 0..2 and an order 0..3."""
    k = draw(st.integers(1, 3))
    exponents = tuple(draw(st.lists(st.integers(0, 2), min_size=k,
                                    max_size=k)))
    return WeightSpec(exponents), draw(st.integers(0, 3))


@settings(max_examples=40, deadline=None)
@given(small_specs(), small_specs(), st.data())
def test_lookup_walk_and_equality_agree_with_the_entries(spec, other, data):
    (w, p), (w2, p2) = spec, other
    table = coefficient_table(w, p)
    j = data.draw(st.tuples(*[st.integers(0, p)] * w.k))
    assert table[j] == fourier_coefficient(j, w)
    assert type(table[j].core) is Fraction
    assert list(table.items()) == [(i, table[i]) for i in table]
    assert list(table.values()) == [table[i] for i in table]
    second = coefficient_table(w2, p2)
    plain = dict(table)
    assert (table == second) == (plain == dict(second)) == (spec == other)
    assert table == plain and plain == table
    cv = plain[j]
    plain[j] = CoeffValue(cv.core + 1, cv.sqrt_factors, cv.half_power,
                          cv.two_power)
    assert table != plain and plain != table


@st.composite
def stored_tables(draw):
    """Weights of multiplicity 1..4 with exponents 0..2, an order 0..3, and
    a pattern and per-level orders to evaluate on the table."""
    k = draw(st.integers(1, 4))
    exponents = tuple(draw(st.lists(st.integers(0, 2), min_size=k,
                                    max_size=k)))
    p = draw(st.integers(0, 3))
    labels = tuple(draw(st.lists(st.integers(1, k), min_size=k, max_size=k)))
    levels = tuple(draw(st.lists(st.integers(0, p), min_size=k, max_size=k)))
    return WeightSpec(exponents), p, IndexPattern(labels), levels


@settings(max_examples=30, deadline=None)
@given(stored_tables())
def test_cache_round_trip_is_exact(case):
    w, p, pattern, levels = case
    built = coefficient_table(w, p)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        save_table(path, w, p, built)
        w2, p2, loaded = load_table(path)
    assert isinstance(loaded, CoeffTable)
    assert (w2, p2) == (loaded.weights, loaded.p) == (w, p)
    assert loaded == built
    interval = Interval.from_length(Fraction(3, 4))
    assert exact_mse(pattern, p, w, interval, table=loaded).exact_mse_rational \
        == exact_mse(pattern, p, w, interval, table=built).exact_mse_rational
    assert mse_bound_exact(pattern, levels, w, interval, table=loaded) \
        == mse_bound_exact(pattern, levels, w, interval, table=built)


SAVES_PER_WRITER = 20


def _save_repeatedly(path, exponents, p):
    w = WeightSpec(exponents)
    table = coefficient_table(w, p)
    for _ in range(SAVES_PER_WRITER):
        save_table(path, w, p, table)


def test_concurrent_writers_never_expose_a_partial_file(tmp_path):
    w, p = WeightSpec((1, 0, 0, 2)), 3
    built = coefficient_table(w, p)
    path = tmp_path / "table.json"
    ctx = multiprocessing.get_context("spawn")
    writers = [ctx.Process(target=_save_repeatedly,
                           args=(str(path), w.exponents, p)) for _ in range(2)]
    for proc in writers:
        proc.start()
    loads = 0
    deadline = time.monotonic() + 120
    try:
        while any(proc.is_alive() for proc in writers) \
                and time.monotonic() < deadline:
            if path.exists():
                assert load_table(path)[2] == built
                loads += 1
    finally:
        for proc in writers:
            proc.join(timeout=30)
    assert all(not proc.is_alive() and proc.exitcode == 0 for proc in writers)
    assert load_table(path) == (w, p, built)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["table.json"]
    assert loads > 0

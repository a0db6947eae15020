"""Acceptance gate: one pass/fail line per criterion, stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to stream the lines.
Criterion 6 simulates 10^5 paths on fine grids and takes a few minutes;
everything else finishes in seconds.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from oracles import (
    enumerated_case_mse,
    expected_terms,
    patterns_with_time,
    series_pair_error,
    set_partitions,
    telescoped_pair_error,
)

from itolegendre.cli import main as cli_main
from itolegendre.coeffs import (
    CacheIntegrityError,
    Interval,
    WeightSpec,
    coefficient_table,
    kernel_norm,
    load_table,
)
from itolegendre.expansion import (
    IndexPattern,
    enumerate_matchings,
    realize,
    sample_draw,
)
from itolegendre.montecarlo import McConfig, empirical_mse
from itolegendre.msekit import (
    exact_mse,
    list_cases,
    mse_bound_exact,
)

F = Fraction


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number} {title}: PASS ({elapsed:.2f} s)")


@pytest.fixture(scope="module")
def p3_tables():
    """Order-3 tables for multiplicities 1..5, unit and mixed weights."""
    tables = {}
    for k in range(1, 6):
        for exponents in [(0,) * k, (1,) + (0,) * (k - 1)]:
            tables[(k, exponents)] = coefficient_table(WeightSpec(exponents), 3)
    return tables


def test_criterion_1_pair_error_reproduction():
    with criterion(1, "closed-form pair error, p 0..50, three lengths"):
        start = time.perf_counter()
        w = WeightSpec.unit(2)
        table = coefficient_table(w, 50, degree_cap=50)
        pattern = IndexPattern((1, 2))
        for length in (F(1, 4), F(1), F(2)):
            interval = Interval.from_length(length)
            for p in range(51):
                report = exact_mse(pattern, p, w, interval, table=table)
                assert report.exact_mse_rational == series_pair_error(p, length)
                assert report.exact_mse_rational == \
                    telescoped_pair_error(p, length)
                rendered = float(length) ** 2 / (4 * (2 * p + 1))
                assert math.isclose(report.exact_mse, rendered, rel_tol=1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f} s (budget 1 s)"


def test_criterion_2_case_catalog_oracle_equality(p3_tables):
    with criterion(2, "engine equals transcribed catalog, k 2..5, p 0..3"):
        start = time.perf_counter()
        interval = Interval.from_length(1)
        checked = 0
        for k in (2, 3, 4, 5):
            for exponents in [(0,) * k, (1,) + (0,) * (k - 1)]:
                w = WeightSpec(exponents)
                table = p3_tables[(k, exponents)]
                for info in list_cases(k):
                    for p in range(4):
                        engine = exact_mse(info.example, p, w, interval,
                                           table=table)
                        oracle = enumerated_case_mse(info.example, p, w,
                                                     interval, table=table)
                        assert engine.exact_mse_rational == \
                            oracle.exact_mse_rational, (k, info.label, p)
                        checked += 1
        assert checked == (2 + 5 + 15 + 52) * 4 * 2
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"criterion 2 took {elapsed:.1f} s"


def test_criterion_3_matching_term_multisets():
    with criterion(3, "matchings equal printed term lists, k 1..5"):
        start = time.perf_counter()
        for k in (1, 2, 3, 4, 5):
            for labels in patterns_with_time(k):
                got = {
                    (frozenset(frozenset(pair) for pair in t.pairs), t.sign,
                     t.free_positions)
                    for t in enumerate_matchings(IndexPattern(labels))
                }
                assert got == expected_terms(labels), labels
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"criterion 3 took {elapsed:.2f} s"


def test_criterion_4_bound_dominates_exact(p3_tables):
    with criterion(4, "factorial bound dominates exact error, k 1..5"):
        start = time.perf_counter()
        interval = Interval.from_length(1)
        for k in (1, 2, 3, 4, 5):
            w = WeightSpec.unit(k)
            table = p3_tables[(k, (0,) * k)]
            for labels in set_partitions(k):
                pattern = IndexPattern(labels)
                for p in range(4):
                    exact = exact_mse(pattern, p, w, interval,
                                      table=table).exact_mse_rational
                    bound = mse_bound_exact(pattern, (p,) * k, w, interval,
                                            table=table)
                    assert bound >= exact, (labels, p)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f} s"


def test_criterion_5_degenerate_pair_exactness():
    with criterion(5, "equal-pair error is zero and realize telescopes"):
        w = WeightSpec.unit(2)
        pattern = IndexPattern((1, 1))
        length = 0.75
        interval = Interval.from_length(F(3, 4))
        table = coefficient_table(w, 10)
        for p in range(11):
            report = exact_mse(pattern, p, w, interval, table=table)
            assert report.exact_mse_rational == 0
            for seed in range(3):
                draw = sample_draw(pattern, p, seed=seed, interval=interval)
                z = draw.zeta[1][0]
                expected = length * (z * z - 1) / 2
                assert realize(pattern, p, table, draw) == expected, (p, seed)


def test_criterion_6_monte_carlo_concordance():
    with criterion(6, "coupled Monte Carlo within 4 standard errors"):
        interval = Interval.from_length(F(1, 2))
        configs = [
            ((1, 2), 1, 101),
            ((1, 1, 2), 2, 202),
            ((1, 2, 3), 1, 303),
        ]
        for labels, p, seed in configs:
            pattern = IndexPattern(labels)
            w = WeightSpec.unit(len(labels))
            table = coefficient_table(w, p)
            exact = exact_mse(pattern, p, w, interval, table=table).exact_mse
            cfg = McConfig(pattern=pattern, p=p, weights=w, interval=interval,
                           n_paths=100_000, n_steps=2048, seed=seed)
            est = empirical_mse(cfg, table)
            assert abs(est.estimate - exact) < 4 * est.standard_error, \
                (labels, est, exact)

        # discretization control: halving the step shifts the estimate by
        # less than 3 pooled standard errors
        pattern = IndexPattern((1, 2))
        w = WeightSpec.unit(2)
        table = coefficient_table(w, 1)
        coarse = empirical_mse(
            McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                     n_paths=100_000, n_steps=2048, seed=404), table)
        fine = empirical_mse(
            McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                     n_paths=100_000, n_steps=4096, seed=505), table)
        pooled = math.hypot(coarse.standard_error, fine.standard_error)
        assert abs(fine.estimate - coarse.estimate) < 3 * pooled


def test_criterion_7_parseval_convergence():
    with criterion(7, "energy deficit positive, strictly decreasing"):
        start = time.perf_counter()
        for k in (1, 2, 3):
            w = WeightSpec.unit(k)
            table = coefficient_table(w, 8)
            norm = kernel_norm(w)
            norm_scaled = norm.core * F(1, 2 ** norm.two_power)
            deficits = []
            for p in range(9):
                captured = F(0)
                for j, cv in table.items():
                    if max(j) <= p:
                        captured += (cv.core ** 2 * math.prod(cv.sqrt_factors)
                                     * F(1, 4 ** cv.two_power))
                deficits.append(norm_scaled - captured)
            if k == 1:
                # degenerate level: the constant mode captures the whole
                # kernel, so the deficit is identically zero
                assert all(d == 0 for d in deficits)
            else:
                assert all(d > 0 for d in deficits)
                assert all(a > b for a, b in zip(deficits, deficits[1:]))
            if k == 2:
                for length in (F(1, 4), F(1), F(2)):
                    for p in range(9):
                        assert deficits[p] * length ** 2 == \
                            telescoped_pair_error(p, length)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"criterion 7 took {elapsed:.1f} s"


def test_criterion_8_cache_integrity(tmp_path, monkeypatch, capsys):
    with criterion(8, "cache round-trip exact, corruption exits 3"):
        for k, p in ((3, 3), (5, 1)):
            w = WeightSpec.unit(k)
            cache = tmp_path / f"cache_{k}_{p}"
            table = coefficient_table(w, p, cache_dir=cache)
            path = next(cache.glob("*.json"))
            stored_w, stored_p, reloaded = load_table(path)
            assert (stored_w, stored_p) == (w, p)
            assert reloaded == table

            doc = json.loads(path.read_text())
            entry = doc["entries"][0]
            num, den = entry["core"].split("/")
            entry["core"] = f"{int(num) + 1}/{den}"
            path.write_text(json.dumps(doc, sort_keys=True, indent=1))
            with pytest.raises(CacheIntegrityError):
                load_table(path)

        cli_cache = tmp_path / "cli"
        monkeypatch.setenv("COEFF_CACHE_DIR", str(cli_cache))
        assert cli_main(["coeffs", "--k", "3", "--p", "3"]) == 0
        path = next(cli_cache.glob("*.json"))
        raw = bytearray(path.read_bytes())
        target = raw.find(b'"core": "4/3"')
        assert target >= 0
        raw[target + 10:target + 11] = b"5"
        path.write_bytes(bytes(raw))
        capsys.readouterr()
        assert cli_main(["coeffs", "--k", "3", "--p", "3"]) == 3
        err = capsys.readouterr().err
        assert "checksum" in err

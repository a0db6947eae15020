"""Coupled simulation oracle: coupling, moments, determinism."""

import math

import numpy as np
import pytest

from itolegendre.coeffs import Interval, WeightSpec, coefficient_table
from itolegendre.expansion import IndexPattern, expansion_plan
from itolegendre.montecarlo import (
    McConfig,
    empirical_mse,
    run_report,
    simulate_true_integral,
    zetas_from_path,
)
from itolegendre.msekit import exact_mse

UNIT = Interval.from_length(1)


def make_path(rng, labels, n_steps, interval):
    dt = float(interval.length) / n_steps
    path = {}
    for label in sorted(set(labels)):
        if label == 0:
            path[label] = np.full(n_steps, dt)
        else:
            path[label] = rng.standard_normal(n_steps) * math.sqrt(dt)
    return path


def test_single_level_sum_is_total_increment():
    rng = np.random.default_rng(1)
    pattern = IndexPattern((1,))
    path = make_path(rng, pattern.labels, 128, UNIT)
    value = simulate_true_integral(path, WeightSpec.unit(1), pattern, UNIT)
    assert value == pytest.approx(path[1].sum(), rel=1e-14)


def test_batched_and_single_path_agree():
    rng = np.random.default_rng(2)
    pattern = IndexPattern((1, 2))
    w = WeightSpec.unit(2)
    batch = {label: rng.standard_normal((5, 64)) * math.sqrt(1 / 64)
             for label in (1, 2)}
    vec = simulate_true_integral(batch, w, pattern, UNIT)
    for row in range(5):
        single = simulate_true_integral(
            {label: batch[label][row] for label in (1, 2)}, w, pattern, UNIT)
        assert vec[row] == pytest.approx(single, rel=1e-14)


def test_equal_pair_matches_ito_identity():
    # the limit is ((total increment)^2 - length) / 2; at a fine grid the
    # coupled difference is tiny and the sample mean is near zero
    rng = np.random.default_rng(3)
    pattern = IndexPattern((1, 1))
    w = WeightSpec.unit(2)
    n_paths, n_steps = 20_000, 512
    incr = {1: rng.standard_normal((n_paths, n_steps)) * math.sqrt(1 / n_steps)}
    values = simulate_true_integral(incr, w, pattern, UNIT)
    identity = (incr[1].sum(axis=1) ** 2 - 1.0) / 2.0
    gap = values - identity
    assert float(np.abs(gap).mean()) < 0.05
    stderr = values.std(ddof=1) / math.sqrt(n_paths)
    assert abs(values.mean()) < 4 * stderr


def test_time_component_integrates_drift():
    # labels (0, 0): nested integral of ds du over the simplex = L^2 / 2
    pattern = IndexPattern((0, 0))
    w = WeightSpec.unit(2)
    path = make_path(np.random.default_rng(0), pattern.labels, 4096, UNIT)
    value = simulate_true_integral(path, w, pattern, UNIT)
    assert value == pytest.approx(0.5, abs=1e-3)


def test_zeta_constant_mode_is_normalized_total():
    rng = np.random.default_rng(4)
    pattern = IndexPattern((1,))
    length = 2.25
    interval = Interval.from_length(length)
    path = make_path(rng, pattern.labels, 256, interval)
    draw = zetas_from_path(path, 3, interval)
    assert draw.zeta[1][0] == pytest.approx(path[1].sum() / math.sqrt(length),
                                            rel=1e-12)
    assert draw.length == length


def test_zeta_moments_and_cross_covariance():
    rng = np.random.default_rng(5)
    n_paths, n_steps = 20_000, 1024
    incr = {1: rng.standard_normal((n_paths, n_steps)) * math.sqrt(1 / n_steps)}
    p = 2
    rows = np.stack([
        zetas_from_path({1: incr[1][i]}, p, UNIT).zeta[1]
        for i in range(200)
    ])
    # vectorized route for the full sample
    from itolegendre.montecarlo import _phi_matrix
    zeta = incr[1] @ _phi_matrix(p, n_steps, UNIT)
    np.testing.assert_allclose(zeta[:200], rows, rtol=1e-10)
    for j in range(p + 1):
        var = zeta[:, j].var(ddof=1)
        assert abs(var - 1.0) < 4 * math.sqrt(2.0 / n_paths) + 2.0 / n_steps
    for a in range(p + 1):
        for b in range(a + 1, p + 1):
            prod = zeta[:, a] * zeta[:, b]
            stderr = prod.std(ddof=1) / math.sqrt(n_paths)
            assert abs(prod.mean()) < 4 * stderr


def test_second_moment_matches_kernel_norm():
    rng = np.random.default_rng(6)
    for labels in [(1, 2), (1, 1), (1, 1, 2)]:
        pattern = IndexPattern(labels)
        w = WeightSpec.unit(len(labels))
        n_paths, n_steps = 20_000, 512
        incr = {
            label: rng.standard_normal((n_paths, n_steps)) * math.sqrt(1 / n_steps)
            for label in sorted(set(labels))
        }
        values = simulate_true_integral(incr, w, pattern, UNIT)
        sq = values ** 2
        stderr = sq.std(ddof=1) / math.sqrt(n_paths)
        from itolegendre.coeffs import kernel_norm
        assert abs(sq.mean() - kernel_norm(w).value(UNIT)) < 4 * stderr + 0.01, \
            labels


def test_coupling_correlation_is_strong():
    # the expansion approximates the same realization, not just the same law
    pattern = IndexPattern((1, 2))
    w = WeightSpec.unit(2)
    p = 2
    table = coefficient_table(w, p)
    rng = np.random.default_rng(12)
    incr = {label: rng.standard_normal((2000, 1024)) * math.sqrt(1 / 1024)
            for label in (1, 2)}
    j_true = simulate_true_integral(incr, w, pattern, UNIT)
    from itolegendre.montecarlo import _phi_matrix
    phi = _phi_matrix(p, 1024, UNIT)
    zeta = {label: incr[label] @ phi for label in (1, 2)}
    j_p = expansion_plan(pattern, p, table).values(zeta, 1.0)
    corr = np.corrcoef(j_true, j_p)[0, 1]
    assert corr > 0.9


def test_empirical_mse_matches_exact_reference():
    pattern = IndexPattern((1, 2))
    w = WeightSpec.unit(2)
    interval = Interval.from_length(0.5)
    cfg = McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                   n_paths=20_000, n_steps=512, seed=7)
    table = coefficient_table(w, 1)
    est = empirical_mse(cfg, table)
    exact = exact_mse(pattern, 1, w, interval, table=table).exact_mse
    assert exact == pytest.approx(1 / 48)
    assert abs(est.estimate - exact) < 4 * est.standard_error
    assert est.standard_error > 0


def test_empirical_mse_double_pair_pattern():
    # two coincident pairs: double-pair corrections and nested permutation
    # sums both enter the exact value
    pattern = IndexPattern((1, 1, 2, 2))
    w = WeightSpec.unit(4)
    interval = Interval.from_length(0.5)
    table = coefficient_table(w, 1)
    cfg = McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                   n_paths=40_000, n_steps=512, seed=17)
    est = empirical_mse(cfg, table)
    report = exact_mse(pattern, 1, w, interval, table=table)
    assert report.case_id == "(V).1"
    assert abs(est.estimate - report.exact_mse) < 4 * est.standard_error


def test_empirical_mse_triple_plus_pair_pattern():
    # a triple block next to a pair block at multiplicity five
    pattern = IndexPattern((1, 1, 1, 2, 2))
    w = WeightSpec.unit(5)
    interval = Interval.from_length(0.5)
    table = coefficient_table(w, 1)
    cfg = McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                   n_paths=30_000, n_steps=512, seed=55)
    est = empirical_mse(cfg, table)
    report = exact_mse(pattern, 1, w, interval, table=table)
    assert report.case_id == "(VII).1"
    assert abs(est.estimate - report.exact_mse) < 4 * est.standard_error


def test_empirical_mse_discriminates_permutation_structure():
    # an asymmetric weight breaks the mirror symmetry between permuting the
    # inner and the outer coincident pair, so the simulation pins down which
    # positions the engine may permute
    w = WeightSpec((1, 0, 0))
    interval = Interval.from_length(0.5)
    table = coefficient_table(w, 1)
    inner = exact_mse(IndexPattern((1, 1, 2)), 1, w, interval,
                      table=table).exact_mse
    mirrored = exact_mse(IndexPattern((2, 1, 1)), 1, w, interval,
                         table=table).exact_mse
    assert inner != mirrored
    cfg = McConfig(pattern=IndexPattern((1, 1, 2)), p=1, weights=w,
                   interval=interval, n_paths=40_000, n_steps=1024, seed=99)
    est = empirical_mse(cfg, table)
    assert abs(est.estimate - inner) < 4 * est.standard_error
    assert abs(est.estimate - mirrored) > 4 * est.standard_error


def test_empirical_mse_is_deterministic_and_thread_invariant():
    pattern = IndexPattern((1, 1, 2))
    w = WeightSpec.unit(3)
    cfg = McConfig(pattern=pattern, p=1, weights=w, interval=UNIT,
                   n_paths=4000, n_steps=128, seed=42)
    table = coefficient_table(w, 1)
    one = empirical_mse(cfg, table)
    two = empirical_mse(cfg, table)
    threaded = empirical_mse(cfg, table, threads=4)
    assert one == two == threaded


def test_equal_pair_empirical_error_is_pure_discretization_bias():
    # the exact error is zero at every p, so the estimate decays with the grid
    pattern = IndexPattern((1, 1))
    w = WeightSpec.unit(2)
    interval = Interval.from_length(0.5)
    table = coefficient_table(w, 0)
    estimates = {}
    for n_steps, seed in ((256, 31), (1024, 32)):
        cfg = McConfig(pattern=pattern, p=0, weights=w, interval=interval,
                       n_paths=5000, n_steps=n_steps, seed=seed)
        estimates[n_steps] = empirical_mse(cfg, table).estimate
    assert estimates[1024] < estimates[256]
    # left-point discretization variance scale is length^2 / (2 n)
    assert estimates[1024] < 5 * 0.25 / 1024


def test_discretization_bias_under_control():
    # refining the grid moves the estimate by less than 3 pooled errors
    pattern = IndexPattern((1, 2))
    w = WeightSpec.unit(2)
    interval = Interval.from_length(0.5)
    table = coefficient_table(w, 1)
    coarse = empirical_mse(
        McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                 n_paths=20_000, n_steps=256, seed=21), table)
    fine = empirical_mse(
        McConfig(pattern=pattern, p=1, weights=w, interval=interval,
                 n_paths=20_000, n_steps=1024, seed=22), table)
    pooled = math.hypot(coarse.standard_error, fine.standard_error)
    assert abs(fine.estimate - coarse.estimate) < 3 * pooled


def test_config_validation_and_soft_invariants():
    w = WeightSpec.unit(2)
    pattern = IndexPattern((1, 2))
    with pytest.raises(ValueError):
        McConfig(pattern=pattern, p=1, weights=WeightSpec.unit(3),
                 interval=UNIT)
    with pytest.raises(ValueError):
        McConfig(pattern=pattern, p=-1, weights=w, interval=UNIT)
    with pytest.warns(UserWarning, match="standard error"):
        McConfig(pattern=pattern, p=1, weights=w, interval=UNIT, n_paths=10)
    with pytest.warns(UserWarning, match="bias"):
        McConfig(pattern=pattern, p=1, weights=w, interval=UNIT, n_steps=32)


def test_run_report_contents():
    pattern = IndexPattern((1, 2))
    w = WeightSpec.unit(2)
    cfg = McConfig(pattern=pattern, p=1, weights=w, interval=UNIT,
                   n_paths=2000, n_steps=128, seed=3)
    report = run_report(cfg)
    assert report["config"]["pattern"] == [1, 2]
    assert report["exact_mse"] == pytest.approx(1 / 12)
    assert report["z_score"] is not None
    assert abs(report["z_score"]) < 6
    assert report["warnings"] == []


def test_run_report_skips_exact_reference_for_time_components():
    pattern = IndexPattern((0, 1))
    w = WeightSpec.unit(2)
    cfg = McConfig(pattern=pattern, p=1, weights=w,
                   interval=Interval.from_length(0.5),
                   n_paths=500, n_steps=128, seed=3)
    report = run_report(cfg)
    assert report["exact_mse"] is None
    assert report["z_score"] is None

"""Coupled simulation oracle: coupling, moments, determinism."""

import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import itolegendre.montecarlo as montecarlo
from itolegendre.coeffs import Interval, WeightSpec, coefficient_table
from itolegendre.expansion import IndexPattern, expansion_plan
from itolegendre.montecarlo import (
    McConfig,
    empirical_mse,
    peak_bytes_per_thread,
    run_report,
    simulate_true_integral,
    thread_count,
    zetas_from_path,
)
from itolegendre.msekit import exact_mse
from oracles import _iterated_sums

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


def test_empirical_mse_rejects_a_plain_dict_table():
    w = WeightSpec.unit(2)
    cfg = McConfig(pattern=IndexPattern((1, 2)), p=1, weights=w,
                   interval=UNIT, n_paths=200, n_steps=64, seed=3)
    with pytest.raises(TypeError, match="coefficient_table"):
        empirical_mse(cfg, dict(coefficient_table(w, 1)))


@st.composite
def weighted_patterns(draw, max_k=4):
    labels = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_k))
    exponents = draw(st.lists(st.integers(0, 2), min_size=len(labels),
                              max_size=len(labels)))
    return IndexPattern(labels), WeightSpec(tuple(exponents))


@settings(max_examples=60, deadline=None)
@given(weighted_patterns(), st.integers(2, 40), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
@example((IndexPattern((2, 1)), WeightSpec((0, 2))), 17, 3, 1)
@example((IndexPattern((1, 2, 1)), WeightSpec((1, 0, 2))), 9, 2, 2)
@example((IndexPattern((0, 1, 0, 2)), WeightSpec((2, 1, 0, 1))), 12, 3, 3)
def test_in_place_sums_match_fresh_array_oracle(case, n_steps, n_rows, seed):
    # each row's error is measured against the sums of absolute values
    pattern, w = case
    interval = Interval.from_length(0.75)
    rng = np.random.default_rng(seed)
    path = {label: rng.standard_normal((n_rows, n_steps)) if label
            else np.full((n_rows, n_steps), 0.75 / n_steps)
            for label in set(pattern.labels)}
    got = simulate_true_integral(path, w, pattern, interval)
    want = _iterated_sums(path, w, pattern, interval)
    scale = _iterated_sums({label: np.abs(row) for label, row in path.items()},
                           w, pattern, interval)
    assert np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300)


def fresh_array_empirical_mse(cfg, table):
    """empirical_mse chunk by chunk on scaled increments and the oracle."""
    chunk = max(1, montecarlo.CHUNK_FLOATS // cfg.n_steps)
    starts = range(0, cfg.n_paths, chunk)
    seeds = np.random.SeedSequence(cfg.seed).spawn(len(starts))
    dt = float(cfg.interval.length) / cfg.n_steps
    phi = montecarlo._phi_matrix(cfg.p, cfg.n_steps, cfg.interval)
    plan = expansion_plan(cfg.pattern, cfg.p, table)
    length = float(cfg.interval.length)
    sq = []
    for seed, start in zip(seeds, starts):
        shape = (min(chunk, cfg.n_paths - start), cfg.n_steps)
        rng = np.random.default_rng(seed)
        incr = {label: rng.standard_normal(shape) * math.sqrt(dt)
                for label in sorted(set(cfg.pattern.labels) - {0})}
        if 0 in cfg.pattern.labels:
            incr[0] = np.full(shape, dt)
        j_true = _iterated_sums(incr, cfg.weights, cfg.pattern, cfg.interval)
        zeta = {label: row @ phi for label, row in incr.items()}
        sq.append((j_true - plan.values(zeta, length)) ** 2)
    sq = np.concatenate(sq)
    means = [b.mean() for b in np.array_split(sq, 100)]
    return math.fsum(sq) / cfg.n_paths, np.std(means, ddof=1) / 10


@settings(max_examples=25, deadline=None)
@given(weighted_patterns(), st.integers(0, 2), st.integers(0, 1000))
@example((IndexPattern((0, 1, 0, 2)), WeightSpec((0, 1, 2, 0))), 1, 5)
def test_chunked_estimate_matches_fresh_array_oracle(case, p, seed):
    # 64 steps, 37 paths per chunk: chunks of 37, 37 and a short 26
    pattern, w = case
    table = coefficient_table(w, p)
    cfg = McConfig(pattern=pattern, p=p, weights=w,
                   interval=Interval.from_length(0.5), n_paths=100,
                   n_steps=64, seed=seed)
    with mock.patch.object(montecarlo, "CHUNK_FLOATS", 64 * 37):
        est = empirical_mse(cfg, table, threads=2)
        want, want_se = fresh_array_empirical_mse(cfg, table)
    assert est.estimate == pytest.approx(want, rel=1e-12, abs=1e-24)
    assert est.standard_error == pytest.approx(want_se, rel=1e-12, abs=1e-24)


@pytest.mark.parametrize("labels, q", [((1, 2, 1), (1, 0, 2)),
                                       ((0, 1), (0, 0)), ((2, 1), (1, 1))])
@pytest.mark.parametrize("n_rows", [None, 3])
def test_simulate_true_integral_leaves_its_input_unchanged(labels, q, n_rows):
    rng = np.random.default_rng(8)
    shape = (32,) if n_rows is None else (n_rows, 32)
    path = {label: rng.standard_normal(shape) for label in set(labels)}
    before = {label: row.copy() for label, row in path.items()}
    simulate_true_integral(path, WeightSpec(q), IndexPattern(labels), UNIT)
    for label, row in path.items():
        np.testing.assert_array_equal(row, before[label])


def test_one_thread_holds_at_most_labels_plus_one_chunk_buffers(monkeypatch):
    # (1, 2, 3) at 256 steps in four chunks of 512 paths
    monkeypatch.setattr(montecarlo, "CHUNK_FLOATS", 256 * 512)
    w = WeightSpec.unit(3)
    cfg = McConfig(pattern=IndexPattern((1, 2, 3)), p=1, weights=w,
                   interval=UNIT, n_paths=2048, n_steps=256, seed=4)
    table = coefficient_table(w, 1)
    # 4 buffers of 256 floats a path; a block of the plan's 8 terms, gathered
    # 3 floats each, with three arrays of products and brackets (6 x 8); the
    # draws, their concatenation and the two sums (2 x 8)
    assert peak_bytes_per_thread(cfg) == (4 * 256 + 6 * 8 + 2 * 8) * 512 * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        empirical_mse(cfg, table, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 4 * 512 * 256 * 8


@pytest.mark.parametrize("labels, p", [((1, 2, 1, 2, 1), 2), ((1, 2), 1)])
def test_traced_peak_stays_within_the_memory_estimate(labels, p):
    # one full chunk of 2048 paths x 2048 steps: (1,2,1,2,1) gathers blocks
    # of matching-term factors near CHUNK_FLOATS beside the kernel buffers
    w = WeightSpec.unit(len(labels))
    cfg = McConfig(pattern=IndexPattern(labels), p=p, weights=w,
                   interval=UNIT, n_paths=2048, n_steps=2048, seed=6)
    table = coefficient_table(w, p)
    tracemalloc.start()
    try:
        empirical_mse(cfg, table, threads=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= peak_bytes_per_thread(cfg)


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7},
                        raising=False)
    assert montecarlo._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert montecarlo._usable_cpus() == 6


def test_thread_count_defaults_to_usable_cpus_capped_at_chunks(monkeypatch):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(montecarlo, "CHUNK_FLOATS", 64 * 100)
    w = WeightSpec.unit(2)

    def cfg(n_paths):
        return McConfig(pattern=IndexPattern((1, 2)), p=1, weights=w,
                        interval=UNIT, n_paths=n_paths, n_steps=64, seed=1)

    assert thread_count(cfg(150)) == 2
    assert thread_count(cfg(1000)) == 3
    assert thread_count(cfg(1000), 5) == 5
    assert thread_count(cfg(150), 5) == 2
    with pytest.raises(ValueError, match="at least 1"):
        thread_count(cfg(150), 0)

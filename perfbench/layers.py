"""Layer pass of the traced run: a fixed set of calls into each module.

Every call sits in a span; the per-layer metrics are sums over those spans.
The pass is the same for every workload, so a layer figure means the same
thing whichever workload's traced run reports it. Its outputs are checked
like the workloads' outputs.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np

from itolegendre import (
    IndexPattern,
    Interval,
    Poly,
    WeightSpec,
    coefficient_table,
    empirical_mse,
    enumerate_matchings,
    exact_mse,
    kernel_norm,
    legendre,
    load_table,
    mse_bound,
    realize,
    sample_draw,
    save_table,
    simulate_true_integral,
    zetas_from_path,
)
from itolegendre.cli import main as cli_main

import oracles
from common import Runner, Tracer, derive_seed
from workloads import NPROC, MonteCarlo, Sample, Tables, cores_of, float_coeffs

KERNEL_NORM_REPEATS = 25
MATCHING_REPEATS = 20
DRAWS_PER_CASE = 3
MC_BATCH_PATHS = 2048

UNITS = {
    "polycore.chain_s": "s", "polycore.chain_steps": "count",
    "coeffs.build_s": "s", "coeffs.build_entries": "count",
    "coeffs.save_s": "s", "coeffs.cache_bytes": "bytes",
    "coeffs.load_s": "s", "coeffs.load_entries": "count",
    "coeffs.kernel_norm_s": "s",
    "msekit.exact_s": "s", "msekit.exact_calls": "count",
    "msekit.exact_trivial_group_s": "s", "msekit.exact_large_group_s": "s",
    "msekit.bound_s": "s", "msekit.bound_calls": "count",
    "expansion.matchings_s": "s", "expansion.matching_terms": "count",
    "expansion.draw_s": "s",
    "expansion.realize_s": "s", "expansion.realize_calls": "count",
    "montecarlo.empirical_mse_s": "s", "montecarlo.empirical_mse_nt_s": "s",
    "montecarlo.path_steps": "count",
    "montecarlo.iterated_sums_s": "s", "montecarlo.projection_s": "s",
    "montecarlo.rest_s": "s", "montecarlo.thread_speedup": "ratio",
    "montecarlo.peak_traced_mb_1t": "MB", "montecarlo.peak_traced_mb_nt": "MB",
    "cli.coeffs_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_pct": "%",
}


def _polycore_chain(tr: Tracer, k: int, p: int) -> tuple[dict, int]:
    # the unit-weight nested antiderivative chain behind a (k, p) table
    leaves = {}
    steps = 0

    def descend(level, g, prefix):
        nonlocal steps
        for mode in range(p + 1):
            h = (g * legendre(mode)).antiderivative_from(-1)
            steps += 1
            if level + 1 == k:
                leaves[prefix + (mode,)] = h(1)
            else:
                descend(level + 1, h, prefix + (mode,))

    with tr.span("polycore.chain"):
        descend(0, Poly([1]), ())
    return leaves, steps


def probe(tr: Tracer, runner: Runner, seed: int, work_dir) -> dict:
    """Run the layer pass; returns {metric: value} and rejects wrong outputs."""
    work_dir.mkdir(parents=True, exist_ok=True)
    out: dict[str, float] = {}

    # coeffs: cold builds, then save and load of the same tables
    built = {}
    for k, p, exps, cap in Tables.SPECS:
        w = WeightSpec(exps)
        with tr.span("coeffs.coefficient_table", entries=(p + 1) ** k):
            built[(k, p, exps, cap)] = coefficient_table(w, p, degree_cap=cap)
    cache_bytes = 0
    for (k, p, exps, cap), table in built.items():
        path = work_dir / f"table_{k}_{p}.json"
        with tr.span("coeffs.save_table"):
            save_table(path, WeightSpec(exps), p, table, degree_cap=cap)
        cache_bytes += path.stat().st_size
        with tr.span("coeffs.load_table", entries=len(table)):
            _, _, loaded = load_table(path)
        if loaded != table:
            runner.reject(f"load_table {k},{p}: differs from the built table")
    out["coeffs.cache_bytes"] = cache_bytes

    # polycore: the k=5, p=5 chain must reproduce the table's cores
    leaves, steps = _polycore_chain(tr, 5, 5)
    out["polycore.chain_steps"] = steps
    if leaves != cores_of(built[Tables.SPECS[-1]]):
        runner.reject("polycore chain: leaves differ from the k=5, p=5 cores")

    specs = [(0,) * k for k in range(1, 6)] + [(1,) + (0,) * (k - 1) for k in range(1, 6)]
    for _ in range(KERNEL_NORM_REPEATS):
        for spec in specs:
            with tr.span("coeffs.kernel_norm"):
                norm = kernel_norm(WeightSpec(spec))
            if norm.core * Fraction(1, 2 ** norm.two_power) != \
                    oracles.kernel_energy(spec, 1):
                runner.reject(f"kernel_norm {spec}")

    # msekit: exact errors at p=2 over every pattern k=2..5, one large group
    # at p=3, and bounds over patterns with time components
    length = Fraction(3, 4)
    interval = Interval.from_length(length)
    tables = {k: coefficient_table(WeightSpec.unit(k), 3) for k in range(2, 6)}
    tensors = {k: oracles.CoreTensor(cores_of(t), 3, (0,) * k) for k, t in tables.items()}
    cases = [(labels, 2) for k in range(2, 6) for labels in oracles.set_partitions(k)]
    cases.append(((1,) * 5, 3))
    for labels, p in cases:
        k = len(labels)
        with tr.span("msekit.exact_mse", group=oracles.group_size(labels)):
            report = exact_mse(IndexPattern(labels), p, WeightSpec.unit(k), interval,
                               table=tables[k])
        if report.exact_mse_rational != tensors[k].exact_error(labels, p, length):
            runner.reject(f"exact_mse {labels} p={p}")
    rng = random.Random(derive_seed(seed, "layers", "bound"))
    for k in range(2, 6):
        for labels in oracles.patterns_with_time(k):
            levels = tuple(rng.randrange(4) for _ in range(k))
            with tr.span("msekit.mse_bound"):
                value = mse_bound(IndexPattern(labels), levels, WeightSpec.unit(k),
                                  Interval.from_length(Fraction(1, 2)),
                                  table=tables[k])
            if value != float(tensors[k].bound(levels, Fraction(1, 2))):
                runner.reject(f"mse_bound {labels} {levels}")

    # expansion: matchings, draws and realizations on the sample patterns
    patterns = [IndexPattern(labels) for labels in Sample.PATTERNS]
    sample_tables = {k: coefficient_table(WeightSpec.unit(k), 5)
                     for k in sorted({pat.k for pat in patterns})}
    terms = 0
    for _ in range(MATCHING_REPEATS):
        for pat in patterns:
            with tr.span("expansion.enumerate_matchings"):
                terms += len(enumerate_matchings(pat))
    out["expansion.matching_terms"] = terms
    for pi, pat in enumerate(patterns):
        for p in Sample.ORDERS:
            coeffs = float_coeffs(sample_tables[pat.k], p, (0,) * pat.k, length)
            for i in range(DRAWS_PER_CASE):
                draw_seed = derive_seed(seed, "layers", "draw", pi, p, i) >> 1
                with tr.span("expansion.sample_draw"):
                    draw = sample_draw(pat, p, seed=draw_seed, interval=interval)
                with tr.span("expansion.realize"):
                    value = realize(pat, p, sample_tables[pat.k], draw)
                ref, scale = oracles.wick_value(pat.labels, coeffs, draw.zeta)
                if not abs(value - ref) <= 1e-12 * scale + 1e-300:
                    runner.reject(f"realize {pat.labels} p={p}")

    # montecarlo: one workload operation at one thread and at nproc threads,
    # under tracemalloc, then its phases on batches of the same paths
    mc = MonteCarlo(seed, work_dir)
    cfg = mc.configs[0]
    table = coefficient_table(cfg.weights, cfg.p)
    estimates = []
    tracemalloc.start()
    try:
        for threads, tag in ((1, "1t"), (NPROC, "nt")):
            tracemalloc.reset_peak()
            with tr.span(f"montecarlo.empirical_mse.{tag}"):
                estimates.append(empirical_mse(cfg, table, threads=threads))
            out[f"montecarlo.peak_traced_mb_{tag}"] = \
                tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
    exact = oracles.CoreTensor(cores_of(table), cfg.p, (0,) * cfg.pattern.k) \
        .exact_error(cfg.pattern.labels, cfg.p, cfg.interval.length)
    if tuple(estimates[0]) != tuple(estimates[1]) or \
            not abs(estimates[0].estimate - float(exact)) < 4 * estimates[0].standard_error:
        runner.reject(f"empirical_mse {cfg.pattern.labels}: {estimates}")
    out["montecarlo.path_steps"] = cfg.n_paths * cfg.n_steps
    gen = np.random.default_rng(derive_seed(seed, "layers", "paths"))
    dt = float(cfg.interval.length) / cfg.n_steps
    for _ in range(cfg.n_paths // MC_BATCH_PATHS):
        path = {label: gen.standard_normal((MC_BATCH_PATHS, cfg.n_steps)) * math.sqrt(dt)
                for label in sorted(set(cfg.pattern.labels))}
        with tr.span("montecarlo.simulate_true_integral"):
            j_true = simulate_true_integral(path, cfg.weights, cfg.pattern, cfg.interval)
        with tr.span("montecarlo.zetas_from_path"):
            draw = zetas_from_path(path, cfg.p, cfg.interval)
        # for (1, 2) the left-point sum is sum_s dW2(s) W1(s), with W1 the
        # running sum of the first row before s
        w1 = np.cumsum(path[1], axis=1) - path[1]
        expected = np.einsum("ij,ij->i", w1, path[2])
        if not np.allclose(j_true, expected, rtol=1e-9, atol=1e-12) or \
                draw.zeta[1].shape != (MC_BATCH_PATHS, cfg.p + 1):
            runner.reject("montecarlo batch phases")
            break

    # cli: coeffs at the acceptance size, and the library call it makes
    path = work_dir / "cli_coeffs.json"
    with tr.span("cli.main.coeffs"):
        rc = cli_main(["coeffs", "--k", "5", "--p", "5", "--out", str(path)])
    with tr.span("cli.library_coefficient_table"):
        coefficient_table(WeightSpec.unit(5), 5)
    if rc != 0:
        runner.reject(f"cli coeffs exit {rc}")
    out["cli.output_bytes"] = path.stat().st_size if path.exists() else 0

    totals = tr.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    def count(name):
        return totals.get(name, {}).get("count", 0)

    groups = [(sp[4].get("group"), sp[2] - sp[1]) for sp in tr.spans
              if sp[0] == "msekit.exact_mse"]
    out.update({
        "polycore.chain_s": total("polycore.chain"),
        "coeffs.build_s": total("coeffs.coefficient_table"),
        "coeffs.build_entries": sum((p + 1) ** k for k, p, _, _ in Tables.SPECS),
        "coeffs.save_s": total("coeffs.save_table"),
        "coeffs.load_s": total("coeffs.load_table"),
        "coeffs.load_entries": sum(len(t) for t in built.values()),
        "coeffs.kernel_norm_s": total("coeffs.kernel_norm"),
        "msekit.exact_s": total("msekit.exact_mse"),
        "msekit.exact_calls": count("msekit.exact_mse"),
        "msekit.exact_trivial_group_s": sum(d for g, d in groups if g == 1),
        "msekit.exact_large_group_s": sum(d for g, d in groups if g >= 6),
        "msekit.bound_s": total("msekit.mse_bound"),
        "msekit.bound_calls": count("msekit.mse_bound"),
        "expansion.matchings_s": total("expansion.enumerate_matchings"),
        "expansion.draw_s": total("expansion.sample_draw"),
        "expansion.realize_s": total("expansion.realize"),
        "expansion.realize_calls": count("expansion.realize"),
        "montecarlo.empirical_mse_s": total("montecarlo.empirical_mse.1t"),
        "montecarlo.empirical_mse_nt_s": total("montecarlo.empirical_mse.nt"),
        "montecarlo.iterated_sums_s": total("montecarlo.simulate_true_integral"),
        "montecarlo.projection_s": total("montecarlo.zetas_from_path"),
        "cli.coeffs_s": total("cli.main.coeffs"),
        "cli.self_s": total("cli.main.coeffs") - total("cli.library_coefficient_table"),
    })
    out["montecarlo.rest_s"] = out["montecarlo.empirical_mse_s"] \
        - out["montecarlo.iterated_sums_s"] - out["montecarlo.projection_s"]
    out["montecarlo.thread_speedup"] = out["montecarlo.empirical_mse_s"] \
        / out["montecarlo.empirical_mse_nt_s"]
    return out



"""The four workloads: inputs from the seed, set-up, rounds and checks.

Each workload is a closed loop of whole rounds: a round issues the same
operations every time, so the operation mix, and with it every throughput,
does not depend on where a run happens to stop. ``side_round`` is a smaller
fixed pass that the other workloads' runs make once, in a separate process
after their own timed loop, to report this workload's metrics. ``check`` runs outside every timed region
and counts an operation as failed when its output is wrong.
"""

from __future__ import annotations

import json
import math
import os
import random
import shutil
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from itolegendre import (
    IndexPattern,
    Interval,
    McConfig,
    WeightSpec,
    coefficient_table,
    empirical_mse,
    exact_mse,
    kernel_norm,
    legendre,
    mse_bound,
    realize,
    sample_draw,
)
from itolegendre.cli import main as cli_main

import oracles
from common import Runner, Tracer, derive_seed

NPROC = len(os.sched_getaffinity(0))
MC_LENGTH = Fraction(1, 2)


def seeded_length(seed: int, tag: str) -> Fraction:
    """Interval length in {1/8, 2/8, ..., 2}, chosen by the seed."""
    return Fraction(1 + derive_seed(seed, tag, "length") % 16, 8)


def relabel(labels, rng: random.Random) -> tuple[int, ...]:
    """Same coincidence structure, with distinct Wiener labels drawn at random."""
    distinct = sorted({lab for lab in labels if lab})
    fresh = rng.sample(range(1, 100), len(distinct))
    mapping = dict(zip(distinct, fresh))
    return tuple(mapping.get(lab, 0) for lab in labels)


def clear_program_caches():
    """Drop the Legendre memo so that a repeated set-up starts cold."""
    clear = getattr(legendre, "cache_clear", None)
    if clear is not None:
        clear()


def float_coeffs(table, p: int, exponents, length: Fraction) -> np.ndarray:
    """C(j) over {0..p}^k as floats, rebuilt from the table's rational cores."""
    k = len(exponents)
    m = k + 2 * sum(exponents)
    scale = float(length) ** (m / 2) / 2.0 ** (k + sum(exponents))
    arr = np.zeros((p + 1,) * k)
    for j in np.ndindex(arr.shape):
        arr[j] = float(table[j].core) * math.sqrt(
            math.prod(2 * mode + 1 for mode in j)) * scale
    return arr


def cores_of(table) -> dict:
    return {j: cv.core for j, cv in table.items()}


class Workload:
    name = ""
    metrics: tuple[str, ...] = ()
    scaled = True  # throughputs scaled to reference speed (calibrate.py)

    def __init__(self, seed: int, work_dir: Path, side: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.side = side
        self.tracer = Tracer(False)

    def setup(self):
        raise NotImplementedError

    def round(self, runner: Runner, r):
        raise NotImplementedError

    def side_round(self, runner: Runner):
        self.round(runner, "side")

    def check(self, runner: Runner) -> list[str]:
        raise NotImplementedError


# --- exact ------------------------------------------------------------------


class Exact(Workload):
    """Exact errors for every coincidence pattern, and bounds with time parts."""

    name = "exact"
    metrics = ("mse_per_s", "bound_per_s")
    # several order vectors per pattern, so that bounds take seconds per round
    LEVELS_PER_PATTERN = 8

    def __init__(self, seed, work_dir, side=False):
        super().__init__(seed, work_dir, side)
        rng = random.Random(derive_seed(seed, "exact", "labels"))
        self.length = seeded_length(seed, "exact")
        self.interval = Interval.from_length(self.length)
        self.bound_interval = Interval.from_length(Fraction(1, 2))
        max_k = 4 if side else 5
        self.specs = [(0,) * k for k in range(2, 6)] + \
            [(1,) + (0,) * (k - 1) for k in range(2, 6)]
        # (labels, p, exponents, table key)
        self.exact_ops = []
        for spec in self.specs:
            k = len(spec)
            orders = range(4) if k <= max_k else (range(3) if side else ())
            for base in oracles.set_partitions(k):
                for p in orders:
                    self.exact_ops.append((relabel(base, rng), p, spec, (spec, 3)))
        if side:
            self.exact_ops *= 2
        else:
            self.exact_ops.append((relabel((1,) * 5, rng), 5, (0,) * 5,
                                   ((0,) * 5, 5)))
        self.bound_ops = []
        for k in range(2, 6):
            for base in oracles.patterns_with_time(k):
                for _ in range(self.LEVELS_PER_PATTERN):
                    levels = [rng.randrange(4) for _ in range(k)]
                    if len(set(levels)) == 1:
                        levels[0] = (levels[0] + 1) % 4
                    self.bound_ops.append((relabel(base, rng), tuple(levels),
                                           (0,) * k, ((0,) * k, 3)))
        # exact errors and bounds interleave, so both sample the whole round
        self.schedule = [(True, i) for i in range(len(self.exact_ops))] + \
            [(False, i) for i in range(len(self.bound_ops))]
        rng.shuffle(self.schedule)
        self.exact_out: dict[int, object] = {}
        self.bound_out: dict[int, float] = {}

    def setup(self):
        clear_program_caches()
        self.tables = {(spec, 3): coefficient_table(WeightSpec(spec), 3)
                       for spec in self.specs}
        if not self.side:
            self.tables[((0,) * 5, 5)] = coefficient_table(WeightSpec.unit(5), 5)
        unit4 = WeightSpec.unit(4)
        exact_mse(IndexPattern((1, 1, 2, 2)), 3, unit4, self.interval,
                  table=self.tables[((0,) * 4, 3)])
        mse_bound(IndexPattern((0, 1, 1, 2)), (3, 2, 1, 0), unit4,
                  self.bound_interval, table=self.tables[((0,) * 4, 3)])

    def round(self, runner, r):
        for is_exact, idx in self.schedule:
            if is_exact:
                self._exact(runner, idx)
            else:
                self._bound(runner, idx)

    def _exact(self, runner, idx):
        labels, p, spec, key = self.exact_ops[idx]
        report = runner.call("mse_per_s", 1, "msekit.exact_mse", exact_mse,
                             IndexPattern(labels), p, WeightSpec(spec),
                             self.interval, table=self.tables[key])
        if report is None:
            return
        first = self.exact_out.setdefault(idx, report)
        if report.exact_mse_rational != first.exact_mse_rational:
            runner.reject(f"exact {labels} p={p}: differs between rounds")

    def _bound(self, runner, idx):
        labels, levels, spec, key = self.bound_ops[idx]
        value = runner.call("bound_per_s", 1, "msekit.mse_bound", mse_bound,
                            IndexPattern(labels), levels, WeightSpec(spec),
                            self.bound_interval, table=self.tables[key])
        if value is None:
            return
        first = self.bound_out.setdefault(idx, value)
        if value != first:
            runner.reject(f"bound {labels} {levels}: differs between rounds")

    def check(self, runner):
        problems = []
        tensors = {key: oracles.CoreTensor(cores_of(tab), key[1], key[0])
                   for key, tab in self.tables.items()}
        for (spec, p), tab in self.tables.items():
            for j in [(0,) * len(spec), (p,) * len(spec), tuple(range(len(spec)))]:
                j = tuple(min(m, p) for m in j)
                ref = oracles.quad_coefficient(j, spec, float(self.length))
                got = tab[j].value(self.interval)
                if abs(got - ref) > 1e-10 * float(self.length) ** (len(spec) / 2 + sum(spec)):
                    problems.append(f"coefficient {spec} {j}: {got} vs quadrature {ref}")
        for spec in self.specs:
            norm = kernel_norm(WeightSpec(spec))
            energy = norm.core * self.length ** (norm.half_power // 2) \
                / 2 ** norm.two_power
            if norm.half_power % 2 or energy != oracles.kernel_energy(spec, self.length):
                problems.append(f"kernel energy {spec}: {energy}")
        scaled = set()
        for idx, report in self.exact_out.items():
            labels, p, spec, key = self.exact_ops[idx]
            value = report.exact_mse_rational
            why = []
            if value != tensors[key].exact_error(labels, p, self.length):
                why.append("differs from the paper's formula")
            if not (value >= 0 and report.exact_mse <= report.bound):
                why.append(f"outside [0, bound {report.bound}]")
            distinct = len(set(labels)) == len(labels)
            if len(labels) == 2 and not any(spec):
                expected = oracles.pair_error(p, self.length) if distinct else 0
                if value != expected:
                    why.append(f"pair closed form gives {expected}")
            if p == 2 and (len(labels), spec) not in scaled:
                scaled.add((len(labels), spec))
                twice = exact_mse(IndexPattern(labels), p, WeightSpec(spec),
                                  Interval.from_length(2 * self.length),
                                  table=self.tables[key]).exact_mse_rational
                m = len(spec) + 2 * sum(spec)
                if twice != value * 2 ** m:
                    why.append("breaks the length^m scaling law")
            if why:
                runner.reject(f"exact {labels} p={p} q={spec}: {value} "
                              + "; ".join(why))
        for idx, value in self.bound_out.items():
            labels, levels, spec, key = self.bound_ops[idx]
            expected = float(tensors[key].bound(levels, Fraction(1, 2)))
            if value != expected or value < 0:
                runner.reject(f"bound {labels} {levels}: {value} vs {expected}")
        return problems


# --- tables -----------------------------------------------------------------


class Tables(Workload):
    """Cold builds written to fresh cache directories, cache hits, and the CLI."""

    name = "tables"
    metrics = ("build_entries_per_s", "load_entries_per_s", "cli_entries_per_s")
    # (k, p, exponents, degree cap)
    SPECS = ((2, 50, (0, 0), 50), (3, 8, (1, 0, 2), 30), (5, 5, (0,) * 5, 30))
    LOADS, CLI_CALLS = 4, 2
    CLI_K, CLI_P = 5, 5
    # side pass: builds, loads and CLI calls of about 2 s each
    SIDE_BUILDS, SIDE_LOADS, SIDE_CLI = 2, 6, 2

    def __init__(self, seed, work_dir, side=False):
        super().__init__(seed, work_dir, side)
        self.length = seeded_length(seed, "tables")
        self.interval = Interval.from_length(self.length)
        self.reference: dict[int, dict] = {}
        self.cli_checked = 0

    def setup(self):
        clear_program_caches()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        warm = self.work_dir / "warm"
        shutil.rmtree(warm, ignore_errors=True)
        k, p, exps, cap = self.SPECS[1 if self.side else -1]
        coefficient_table(WeightSpec(exps), p, cache_dir=warm, degree_cap=cap)
        coefficient_table(WeightSpec(exps), p, cache_dir=warm, degree_cap=cap)
        cli_main(["coeffs", "--k", "2", "--p", "3", "--out", str(warm / "cli.json")])
        shutil.rmtree(warm)

    def _same(self, runner, idx, table, what):
        first = self.reference.setdefault(idx, table)
        if table != first:
            runner.reject(f"{what} of table {self.SPECS[idx][:3]} differs from the first build")

    def side_round(self, runner):
        for build in range(self.SIDE_BUILDS - 1):
            self.round(runner, f"side{build}", 0, 0)
        self.round(runner, "side", self.SIDE_LOADS, self.SIDE_CLI)

    def round(self, runner, r, loads=LOADS, cli_calls=CLI_CALLS):
        base = self.work_dir / f"round_{r}"
        shutil.rmtree(base, ignore_errors=True)
        for idx, (k, p, exps, cap) in enumerate(self.SPECS):
            table = runner.call("build_entries_per_s", (p + 1) ** k,
                                "coeffs.coefficient_table.build", coefficient_table,
                                WeightSpec(exps), p, cache_dir=base / str(idx),
                                degree_cap=cap)
            if table is not None:
                self._same(runner, idx, table, "build")
        for _ in range(loads):
            for idx, (k, p, exps, cap) in enumerate(self.SPECS):
                table = runner.call("load_entries_per_s", (p + 1) ** k,
                                    "coeffs.coefficient_table.load", coefficient_table,
                                    WeightSpec(exps), p, cache_dir=base / str(idx),
                                    degree_cap=cap)
                if table is not None:
                    self._same(runner, idx, table, "load")
        for call in range(cli_calls):
            out = base / f"coeffs_{call}.json"
            rc = runner.call("cli_entries_per_s", (self.CLI_P + 1) ** self.CLI_K,
                             "cli.main.coeffs", cli_main,
                             ["coeffs", "--k", str(self.CLI_K), "--p", str(self.CLI_P),
                              "--len", str(self.length), "--out", str(out)])
            if rc is not None and (rc != 0 or not self._cli_matches(out)):
                runner.reject(f"cli coeffs exit {rc}: output differs from the library")
        shutil.rmtree(base, ignore_errors=True)

    def _cli_matches(self, path: Path) -> bool:
        self.cli_checked += 1
        doc = json.loads(path.read_text(encoding="utf-8"))
        ref = self.reference.get(len(self.SPECS) - 1)
        if ref is None:
            ref = coefficient_table(WeightSpec.unit(self.CLI_K), self.CLI_P)
        rows = doc["results"]
        if len(rows) != len(ref):
            return False
        for row in rows:
            cv = ref[tuple(row["j"])]
            if (row["core"] != str(cv.core) or row["half_power"] != cv.half_power
                    or row["two_power"] != cv.two_power
                    or row["value"] != cv.value(self.interval)):
                return False
        return True

    def check_entries(self, runner, idx, table, picks):
        """Compare the picked entries with the benchmark's own quadrature."""
        k, p, exps, cap = self.SPECS[idx]
        m = k + 2 * sum(exps)
        for j in picks:
            ref = oracles.quad_coefficient(j, exps, float(self.length))
            got = table[j].value(self.interval)
            if abs(got - ref) > 1e-10 * float(self.length) ** (m / 2):
                runner.reject(f"table {self.SPECS[idx][:3]} entry {j}: "
                              f"{got} vs quadrature {ref}")
                return

    def check(self, runner):
        problems = []
        rng = random.Random(derive_seed(self.seed, "tables", "sample"))
        for idx, table in self.reference.items():
            k, p, exps, cap = self.SPECS[idx]
            picks = {(0,) * k, (p,) * k}
            picks.update(tuple(rng.randrange(p + 1) for _ in range(k))
                         for _ in range(10))
            self.check_entries(runner, idx, table, sorted(picks))
            if k == 2 and not any(exps):
                deficits = oracles.CoreTensor(cores_of(table), p, exps) \
                    .parseval_deficits(self.length)
                for order, deficit in enumerate(deficits):
                    if deficit != oracles.pair_error(order, self.length):
                        runner.reject(f"Parseval deficit at p={order}: {deficit}")
                        break
        if len(self.reference) != len(self.SPECS):
            problems.append("some tables were never built")
        return problems


# --- mc ---------------------------------------------------------------------


class MonteCarlo(Workload):
    """Coupled Monte Carlo on the acceptance patterns, at nproc threads."""

    name = "mc"
    metrics = ("path_steps_per_s",)
    scaled = False
    # (labels, p, n_steps, n_paths, seed): each about 1-2 s at two threads.
    # The path seeds are fixed, as in acceptance criterion 6, and do not
    # follow the workload seed: the squared error is heavy-tailed (kurtosis
    # near 800 for (1,1,2)), so a correct program misses the 4-standard-error
    # check on about one seed in a thousand, and a miss that comes and goes
    # with the seed would make the failed share differ between sets of runs.
    CONFIGS = (((1, 2), 1, 2048, 16384, 101), ((1, 1, 2), 2, 2048, 16384, 202),
               ((1, 2, 3), 1, 2048, 12288, 303), ((1, 2), 1, 4096, 8192, 505))
    SIDE = (0, 0, 0)

    def __init__(self, seed, work_dir, side=False):
        super().__init__(seed, work_dir, side)
        self.interval = Interval.from_length(MC_LENGTH)
        self.configs = []
        for labels, p, steps, paths, path_seed in self.CONFIGS:
            self.configs.append(McConfig(
                pattern=IndexPattern(labels), p=p,
                weights=WeightSpec.unit(len(labels)), interval=self.interval,
                n_paths=paths, n_steps=steps, seed=path_seed))
        self.out: dict[int, object] = {}

    def setup(self):
        clear_program_caches()
        self.tables = [coefficient_table(cfg.weights, cfg.p) for cfg in self.configs]
        self.exact = [exact_mse(cfg.pattern, cfg.p, cfg.weights, cfg.interval,
                                table=tab)
                      for cfg, tab in zip(self.configs, self.tables)]
        # warm-up: 2^22 path-steps per thread of the first configuration
        cfg = self.configs[0]
        paths = max(1, (1 << 22) // cfg.n_steps) * NPROC
        empirical_mse(replace(cfg, n_paths=paths), self.tables[0],
                      threads=NPROC)

    def _op(self, runner, idx):
        cfg = self.configs[idx]
        est = runner.call("path_steps_per_s", cfg.n_paths * cfg.n_steps,
                          "montecarlo.empirical_mse", empirical_mse, cfg,
                          self.tables[idx], threads=NPROC)
        if est is None:
            return
        first = self.out.setdefault(idx, est)
        if tuple(est) != tuple(first):
            runner.reject(f"mc {cfg.pattern.labels}: repeat is not bit-identical")

    def round(self, runner, r):
        for idx in range(len(self.configs)):
            self._op(runner, idx)

    def side_round(self, runner):
        for idx in self.SIDE:
            self._op(runner, idx)

    def check(self, runner):
        problems = []
        for cfg, tab, ref in zip(self.configs, self.tables, self.exact):
            labels = cfg.pattern.labels
            tensor = oracles.CoreTensor(cores_of(tab), cfg.p, cfg.weights.exponents)
            if ref.exact_mse_rational != tensor.exact_error(labels, cfg.p, MC_LENGTH):
                problems.append(f"exact reference {labels} differs from the formula")
            if len(set(labels)) == 2 == len(labels) and \
                    ref.exact_mse_rational != oracles.pair_error(cfg.p, MC_LENGTH):
                problems.append(f"exact reference {labels} differs from L^2/(4(2p+1))")
        for idx, est in self.out.items():
            ref = self.exact[idx].exact_mse
            if not abs(est.estimate - ref) < 4 * est.standard_error:
                runner.reject(f"mc {self.configs[idx].pattern.labels}: "
                              f"{est.estimate} +- {est.standard_error} vs exact {ref}")
        return problems


# --- sample -----------------------------------------------------------------


class Sample(Workload):
    """Gaussian draws and expansion realizations on prebuilt tables."""

    name = "sample"
    metrics = ("realize_per_s",)
    PATTERNS = ((1,), (1, 1), (0, 1), (1, 2), (1, 1, 1), (1, 1, 2), (1, 2, 3),
                (1, 1, 2, 2), (1, 2, 3, 4, 5))
    ORDERS = (2, 3, 4, 5)
    SIDE_ROUNDS = 30

    def __init__(self, seed, work_dir, side=False):
        super().__init__(seed, work_dir, side)
        rng = random.Random(derive_seed(seed, "sample", "labels"))
        self.length = seeded_length(seed, "sample")
        self.interval = Interval.from_length(self.length)
        self.patterns = [IndexPattern(relabel(base, rng)) for base in self.PATTERNS]
        self.out: list[tuple] = []

    def setup(self):
        clear_program_caches()
        top = max(self.ORDERS)
        self.tables = {k: coefficient_table(WeightSpec.unit(k), top)
                       for k in sorted({pat.k for pat in self.patterns})}
        for pat in self.patterns:
            draw = sample_draw(pat, top, seed=0, interval=self.interval)
            realize(pat, top, self.tables[pat.k], draw)

    def _draw_realize(self, pattern, p, seed):
        with self.tracer.span("expansion.sample_draw"):
            draw = sample_draw(pattern, p, seed=seed, interval=self.interval)
        with self.tracer.span("expansion.realize"):
            value = realize(pattern, p, self.tables[pattern.k], draw)
        return draw, value

    def round(self, runner, r):
        for pi, pattern in enumerate(self.patterns):
            for p in self.ORDERS:
                seed = derive_seed(self.seed, "sample", r, pi, p) >> 1
                got = runner.call("realize_per_s", 1, "expansion.draw_and_realize",
                                  self._draw_realize, pattern, p, seed)
                if got is not None:
                    self.out.append((pi, p) + got)

    def side_round(self, runner):
        for i in range(self.SIDE_ROUNDS):
            self.round(runner, f"side{i}")

    def check(self, runner):
        coeffs = {}
        length = float(self.length)
        for pi, p, draw, value in self.out:
            pattern = self.patterns[pi]
            labels = pattern.labels
            key = (pattern.k, p)
            if key not in coeffs:
                coeffs[key] = float_coeffs(self.tables[pattern.k], p,
                                           (0,) * pattern.k, self.length)
            ref, scale = oracles.wick_value(labels, coeffs[key], draw.zeta)
            if not abs(value - ref) <= 1e-12 * scale + 1e-300:
                runner.reject(f"realize {labels} p={p}: {value} vs contraction {ref}")
                continue
            if pattern.k == 2 and labels[0] == labels[1] != 0:
                z = draw.zeta[labels[0]][0]
                if value != length * (z * z - 1) / 2:
                    runner.reject(f"realize {labels} p={p}: {value!r} is not "
                                  f"L(z^2-1)/2 bit for bit")
        return []


WORKLOADS = {cls.name: cls for cls in (Exact, Tables, MonteCarlo, Sample)}

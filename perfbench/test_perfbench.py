"""Tests of the benchmark itself: each output check rejects a wrong answer,
and a short pass of every workload completes with no failed operation.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from itolegendre import (  # noqa: E402
    IndexPattern,
    Interval,
    McEstimate,
    WeightSpec,
    coefficient_table,
    exact_mse,
    realize,
    sample_draw,
)

import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from common import Runner, Tracer, derive_seed  # noqa: E402
from workloads import Exact, MonteCarlo, Sample, Tables  # noqa: E402


def fresh_runner():
    return Runner(Tracer(False))


@pytest.fixture(scope="module")
def exact_wl(tmp_path_factory):
    wl = Exact(3, tmp_path_factory.mktemp("exact"), side=True)
    wl.setup()
    wl.length = Fraction(1)
    wl.interval = Interval.from_length(1)
    wl.exact_ops = [((1, 2), 2, (0, 0), ((0, 0), 3))]
    wl.bound_ops = [((0, 1, 2), (1, 2, 0), (0, 0, 0), ((0, 0, 0), 3))]
    return wl


def test_exact_check_rejects_table_built_for_other_weights(exact_wl):
    pattern, unit = IndexPattern((1, 2)), WeightSpec.unit(2)
    wrong = coefficient_table(WeightSpec((2, 0)), 2)
    report = exact_mse(pattern, 2, unit, exact_wl.interval, table=wrong)
    assert report.exact_mse_rational == Fraction(901, 7350)
    exact_wl.exact_out = {0: report}
    exact_wl.bound_out = {}
    runner = fresh_runner()
    assert exact_wl.check(runner) == []
    assert runner.failed == 1

    exact_wl.exact_out = {0: exact_mse(pattern, 2, unit, exact_wl.interval,
                                       table=exact_wl.tables[((0, 0), 3)])}
    assert exact_wl.exact_out[0].exact_mse_rational == Fraction(1, 20)
    runner = fresh_runner()
    assert exact_wl.check(runner) == []
    assert runner.failed == 0


def test_exact_check_rejects_a_wrong_bound(exact_wl):
    tensor = oracles.CoreTensor(
        {j: cv.core for j, cv in exact_wl.tables[((0, 0, 0), 3)].items()}, 3, (0, 0, 0))
    good = float(tensor.bound((1, 2, 0), Fraction(1, 2)))
    exact_wl.exact_out = {}
    for value, failed in ((good, 0), (math.nextafter(good, 1.0), 1)):
        exact_wl.bound_out = {0: value}
        runner = fresh_runner()
        exact_wl.check(runner)
        assert runner.failed == failed


def test_paper_formula_matches_closed_forms():
    table = coefficient_table(WeightSpec.unit(2), 6)
    tensor = oracles.CoreTensor({j: cv.core for j, cv in table.items()}, 6, (0, 0))
    for p in range(7):
        assert tensor.exact_error((1, 2), p, Fraction(3, 2)) == \
            oracles.pair_error(p, Fraction(3, 2))
        assert tensor.exact_error((1, 1), p, Fraction(3, 2)) == 0
    assert tensor.parseval_deficits(2) == [oracles.pair_error(p, 2) for p in range(7)]


def test_quadrature_agrees_with_exact_coefficients():
    table = coefficient_table(WeightSpec((1, 0, 2)), 3)
    for j in [(0, 0, 0), (3, 1, 2), (2, 3, 3)]:
        ref = oracles.quad_coefficient(j, (1, 0, 2), 0.75)
        assert abs(table[j].value(0.75) - ref) < 1e-13


def test_sample_check_rejects_one_ulp_off_pair_realization(tmp_path):
    wl = Sample(5, tmp_path)
    wl.setup()
    pi = Sample.PATTERNS.index((1, 1))
    pattern = wl.patterns[pi]
    draw = sample_draw(pattern, 3, seed=11, interval=wl.interval)
    value = realize(pattern, 3, wl.tables[2], draw)
    z = draw.zeta[pattern.labels[0]][0]
    assert value == float(wl.length) * (z * z - 1) / 2
    for got, failed in ((value, 0), (np.nextafter(value, np.inf), 1)):
        wl.out = [(pi, 3, draw, got)]
        runner = fresh_runner()
        wl.check(runner)
        assert runner.failed == failed


@pytest.mark.parametrize("labels", [(1, 2, 3), (1, 1, 2), (0, 1)])
def test_sample_check_rejects_a_perturbed_realization(tmp_path, labels):
    wl = Sample(6, tmp_path)
    wl.setup()
    pi = Sample.PATTERNS.index(labels)
    pattern = wl.patterns[pi]
    draw = sample_draw(pattern, 4, seed=12, interval=wl.interval)
    value = realize(pattern, 4, wl.tables[pattern.k], draw)
    for got, failed in ((value, 0), (value * (1 + 1e-9) + 1e-12, 1)):
        wl.out = [(pi, 4, draw, got)]
        runner = fresh_runner()
        wl.check(runner)
        assert runner.failed == failed


def test_tables_checks_reject_a_wrong_entry_and_wrong_cli_output(tmp_path):
    wl = Tables(7, tmp_path)
    runner = fresh_runner()
    wl.round(runner, 0)
    assert runner.failed == 0 and runner.attempted == 17
    assert wl.check(runner) == [] and runner.failed == 0

    k5 = wl.reference[2]
    j = (1, 0, 2, 0, 1)
    bad = dict(k5)
    bad[j] = type(k5[j])(core=k5[j].core * (1 + Fraction(1, 10 ** 6)),
                         sqrt_factors=k5[j].sqrt_factors,
                         half_power=k5[j].half_power, two_power=k5[j].two_power)
    for table, failed in ((k5, 0), (bad, 1)):
        runner = fresh_runner()
        wl.check_entries(runner, 2, table, [(0,) * 5, j])
        assert runner.failed == failed

    out = tmp_path / "cli.json"
    from itolegendre.cli import main as cli_main
    assert cli_main(["coeffs", "--k", "5", "--p", "5", "--len", str(wl.length),
                     "--out", str(out)]) == 0
    assert wl._cli_matches(out)
    doc = json.loads(out.read_text())
    doc["results"][17]["value"] = math.nextafter(doc["results"][17]["value"], 1.0)
    out.write_text(json.dumps(doc))
    assert not wl._cli_matches(out)


def test_tables_parseval_check_rejects_a_wrong_pair_table(tmp_path):
    wl = Tables(8, tmp_path)
    good = coefficient_table(WeightSpec.unit(2), 50, degree_cap=50)
    bad = dict(good)
    cv = bad[(3, 4)]
    bad[(3, 4)] = type(cv)(core=cv.core + Fraction(1, 10 ** 9),
                           sqrt_factors=cv.sqrt_factors,
                           half_power=cv.half_power, two_power=cv.two_power)
    for table, failed in ((good, 0), (bad, 1)):
        wl.reference = {0: table}
        runner = fresh_runner()
        wl.check(runner)
        assert runner.failed == failed


def test_mc_check_rejects_an_estimate_five_errors_off(tmp_path):
    wl = MonteCarlo(9, tmp_path, side=True)
    wl.setup()
    exact = wl.exact[0].exact_mse
    assert wl.exact[0].exact_mse_rational == Fraction(1, 48)
    for shift, failed in ((0.0, 0), (5.0, 1)):
        wl.out = {0: McEstimate(estimate=exact + shift * 1e-4, standard_error=1e-4)}
        runner = fresh_runner()
        assert wl.check(runner) == []
        assert runner.failed == failed


def test_derive_seed_depends_only_on_its_arguments():
    assert derive_seed(1, "mc", 0) == derive_seed(1, "mc", 0)
    assert derive_seed(1, "mc", 0) != derive_seed(2, "mc", 0)
    assert derive_seed(1, "mc", 0) != derive_seed(1, "mc", 1)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert [w["name"] for w in spec["workloads"]] == ["exact", "tables", "mc", "sample"]


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["exact", "tables", "mc", "sample"])
def test_short_pass_of_every_workload_has_no_failed_operation(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample", "--seed", "4",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    out = _last_json(proc.stdout)
    assert out["correct"] is True and out["failed"] == 0
    assert set(out["metrics"]) == set(layers.UNITS)
    assert (ROOT / ".perfbench" / "trace_sample_4.json").is_file()


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""Command-line surface: formats, exit codes, manifests, determinism."""

import csv
import io
import json

import pytest

import itolegendre.cli as cli
import itolegendre.coeffs as coeffs
import itolegendre.montecarlo as montecarlo
from itolegendre.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    comments = [line for line in text.splitlines() if line.startswith("#")]
    body = "\n".join(line for line in text.splitlines()
                     if not line.startswith("#"))
    return comments, list(csv.DictReader(io.StringIO(body)))


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--k", "2", "--p", "1", "--len", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["manifest"]["command"] == "coeffs"
    assert len(doc["results"]) == 4
    first = doc["results"][0]
    assert first["j"] == [0, 0]
    assert first["value"] == 0.5
    assert first["core"] == "2"


def test_coeffs_single_level_single_nonzero(capsys):
    code, out, _ = run(capsys, "coeffs", "--k", "1", "--p", "5")
    assert code == 0
    doc = json.loads(out)
    nonzero = [r for r in doc["results"] if r["value"] != 0.0]
    assert len(nonzero) == 1 and nonzero[0]["j"] == [0]


def test_coeffs_rejects_bad_multiplicity(capsys):
    code, _, err = run(capsys, "coeffs", "--k", "0", "--p", "1")
    assert code == 2
    assert "--k" in err


def test_coeffs_rejects_an_oversize_table_at_once(capsys):
    code, out, err = run(capsys, "coeffs", "--k", "8", "--p", "30")
    assert code == 2
    assert out == ""
    assert "852891037441 table entries" in err and "1000000" in err


def test_coeffs_csv_and_json_numbers_agree(capsys):
    code, json_out, _ = run(capsys, "coeffs", "--k", "2", "--p", "2",
                            "--len", "0.75")
    assert code == 0
    code, csv_out, _ = run(capsys, "coeffs", "--k", "2", "--p", "2",
                           "--len", "0.75", "--format", "csv")
    assert code == 0
    doc = json.loads(json_out)
    _, rows = parse_csv(csv_out)
    assert len(rows) == len(doc["results"])
    for row, res in zip(rows, doc["results"]):
        assert row["value"] == repr(res["value"])
        assert row["core"] == res["core"]


def test_coeffs_csv_rows_carry_every_json_field(capsys):
    argv = ("coeffs", "--k", "3", "--p", "1", "--q", "1,0,2", "--len", "3/2")
    _, json_out, _ = run(capsys, *argv)
    _, csv_out, _ = run(capsys, *argv, "--format", "csv")
    _, rows = parse_csv(csv_out)
    assert list(rows[0]) == ["j1", "j2", "j3", "core", "half_power",
                             "two_power", "value"]
    expected = [
        {"j1": str(r["j"][0]), "j2": str(r["j"][1]), "j3": str(r["j"][2]),
         "core": r["core"], "half_power": str(r["half_power"]),
         "two_power": str(r["two_power"]), "value": repr(r["value"])}
        for r in json.loads(json_out)["results"]
    ]
    assert rows == expected


def test_mse_known_value(capsys):
    code, out, _ = run(capsys, "mse", "--pattern", "1,2", "--p", "1",
                       "--len", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["exact_mse"] == "1/12"
    assert result["exact_mse_float"] == pytest.approx(1 / 12)
    assert result["case_id"] == "(I)"
    assert result["bound"] == pytest.approx(1 / 6)


def test_mse_degenerate_pair_is_zero(capsys):
    code, out, _ = run(capsys, "mse", "--pattern", "1,1", "--p", "0",
                       "--len", "1")
    assert code == 0
    assert json.loads(out)["result"]["exact_mse"] == "0"


def test_mse_rejects_time_component_and_points_to_bound(capsys):
    code, _, err = run(capsys, "mse", "--pattern", "0,1", "--p", "1")
    assert code == 2
    assert "bound" in err


def test_mse_csv_matches_json(capsys):
    args = ("mse", "--pattern", "1,1,2", "--p", "2", "--len", "0.5")
    _, json_out, _ = run(capsys, *args)
    _, csv_out, _ = run(capsys, *args, "--format", "csv")
    result = json.loads(json_out)["result"]
    _, rows = parse_csv(csv_out)
    assert rows[0]["exact_mse_float"] == repr(result["exact_mse_float"])
    assert rows[0]["bound"] == repr(result["bound"])
    assert rows[0]["case_id"] == result["case_id"]


def test_bound_triple(capsys):
    code, out, _ = run(capsys, "bound", "--pattern", "1,2,3", "--p", "1",
                       "--len", "1")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["p_levels"] == "1,1,1"
    assert result["bound_float"] > 0


def test_bound_per_level_truncations(capsys):
    code, out, _ = run(capsys, "bound", "--pattern", "1,2", "--p", "3,1")
    assert code == 0
    assert json.loads(out)["result"]["p_levels"] == "3,1"


def test_bound_equals_mse_for_single_level(capsys):
    _, bound_out, _ = run(capsys, "bound", "--pattern", "1", "--p", "4")
    _, mse_out, _ = run(capsys, "mse", "--pattern", "1", "--p", "4")
    assert json.loads(bound_out)["result"]["bound"] == \
        json.loads(mse_out)["result"]["exact_mse"]


def test_bound_time_component_preconditions(capsys):
    code, out, _ = run(capsys, "bound", "--pattern", "0,1", "--p", "1",
                       "--len", "0.5")
    assert code == 0
    assert json.loads(out)["result"]["bound_float"] > 0
    code, _, err = run(capsys, "bound", "--pattern", "0,1", "--p", "1",
                       "--len", "2")
    assert code == 2
    assert "length" in err


def test_validate_repeated_seed_is_identical(capsys):
    args = ("validate", "--pattern", "1,2", "--p", "1", "--n-paths", "400",
            "--n-steps", "64", "--seed", "9", "--threads", "1")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert code == 0
    one = json.loads(out1)
    two = json.loads(out2)
    assert one["result"] == two["result"]
    assert abs(one["result"]["z_score"]) < 6


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_validate_rejects_threads_below_one(capsys, threads):
    code, out, err = run(capsys, "validate", "--pattern", "1,2", "--p", "0",
                         "--n-paths", "10", "--n-steps", "8",
                         "--threads", threads)
    assert code == 2
    assert out == ""
    assert "--threads" in err


def test_validate_manifest_records_the_resolved_thread_count(
        capsys, monkeypatch):
    # 400 paths in four chunks of 100
    monkeypatch.setattr(montecarlo, "CHUNK_FLOATS", 64 * 100)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
    args = ("validate", "--pattern", "1,2", "--p", "1", "--n-paths", "400",
            "--n-steps", "64", "--seed", "9")
    docs = []
    for extra in ((), ("--threads", "3"), ("--threads", "7")):
        code, out, _ = run(capsys, *args, *extra)
        assert code == 0
        docs.append(json.loads(out))
    assert [doc["manifest"]["parameters"]["threads"] for doc in docs] \
        == [2, 3, 4]
    assert docs[0]["result"] == docs[1]["result"] == docs[2]["result"]


def test_validate_refuses_threads_the_host_memory_cannot_hold(
        capsys, monkeypatch):
    # (1,2) p=1 at 64 steps and 400 paths in chunks of 100, a thread's
    # floats per path: 3 buffers of 64; a block of the plan's 4 terms,
    # gathered 2 floats each, with three arrays of products and brackets
    # (5 x 4); the draws, their concatenation and the two sums (2 x 6)
    monkeypatch.setattr(montecarlo, "CHUNK_FLOATS", 64 * 100)
    need = (3 * 64 + 5 * 4 + 2 * 6) * 100 * 8
    args = ("validate", "--pattern", "1,2", "--p", "1", "--n-paths", "400",
            "--n-steps", "64", "--seed", "9", "--threads", "4")
    monkeypatch.setattr(cli, "_available_memory", lambda: 4 * need - 1)
    code, out, err = run(capsys, *args)
    assert code == 2
    assert out == ""
    assert "--threads 4" in err
    monkeypatch.setattr(cli, "_available_memory", lambda: 4 * need)
    code, _, _ = run(capsys, *args)
    assert code == 0
    monkeypatch.setattr(cli, "_available_memory", lambda: None)
    code, _, _ = run(capsys, *args)
    assert code == 0


def test_validate_tiny_sample_warns(capsys):
    code, out, err = run(capsys, "validate", "--pattern", "1,2", "--p", "0",
                         "--n-paths", "10", "--n-steps", "64", "--seed", "1")
    assert code == 0
    assert "standard error too large" in err
    assert json.loads(out)["result"]["warnings"]


@pytest.mark.parametrize("k,count", [(2, 2), (3, 5), (4, 15), (5, 52)])
def test_cases_counts(capsys, k, count):
    code, out, _ = run(capsys, "cases", "--k", str(k))
    assert code == 0
    assert len(json.loads(out)["results"]) == count


def test_cases_csv_lists_groups(capsys):
    code, out, _ = run(capsys, "cases", "--k", "4", "--format", "csv")
    assert code == 0
    _, rows = parse_csv(out)
    by_label = {row["label"]: row for row in rows}
    assert by_label["(II)"]["group_size"] == "24"
    assert by_label["(V).1"]["coincidences"] == "{1,2},{3,4}"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "mse", "--pattern", "1,2", "--p", "0",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["exact_mse"] == "1/4"


def test_cache_corruption_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COEFF_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "coeffs", "--k", "2", "--p", "1")
    assert code == 0
    path = next(tmp_path.glob("*.json"))
    text = path.read_text().replace('"core": "2/3"', '"core": "1/3"', 1)
    path.write_text(text)
    code, _, err = run(capsys, "coeffs", "--k", "2", "--p", "1")
    assert code == 3
    assert "checksum" in err


@pytest.mark.parametrize("core", ["1/0", "1.5"])
def test_coeffs_exits_three_on_a_core_that_is_no_integer_ratio(
        tmp_path, capsys, monkeypatch, core):
    # a tampered core with a fresh checksum
    monkeypatch.setenv("COEFF_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "coeffs", "--k", "2", "--p", "2")
    assert code == 0
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    doc["entries"][1]["core"] = core
    doc["checksum"] = coeffs._checksum(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "coeffs", "--k", "2", "--p", "2")
    assert (code, out) == (3, "")
    assert "positive integer" in err


@pytest.mark.parametrize("field,value", [("j", [0, 5]), ("half_power", 4)])
def test_mse_exits_three_on_entries_the_weights_do_not_give(
        tmp_path, capsys, monkeypatch, field, value):
    monkeypatch.setenv("COEFF_CACHE_DIR", str(tmp_path))
    code, _, _ = run(capsys, "mse", "--pattern", "1,2", "--p", "1")
    assert code == 0
    path = next(tmp_path.glob("*.json"))
    doc = json.loads(path.read_text())
    del doc["checksum"]
    doc["entries"][0][field] = value
    doc["checksum"] = coeffs._checksum(doc)
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "mse", "--pattern", "1,2", "--p", "1")
    assert (code, out) == (3, "")
    assert "lexicographic" in err


def test_exponent_count_mismatch_exits_two(capsys):
    code, _, err = run(capsys, "mse", "--pattern", "1,2", "--p", "1",
                       "--q", "1,0,0")
    assert code == 2
    assert "exponents" in err


def test_unknown_command_exits_two(capsys):
    assert run(capsys, "frobnicate")[0] == 2

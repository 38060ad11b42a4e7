"""End-to-end tests of the command-line interface, run in process."""

import csv
import json

import pytest

from nearwise.cli import main
from nearwise.reference import REFERENCE_CELLS, reference_cell


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_exit(capsys, *argv):
    """For argparse-level failures, which raise SystemExit."""
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def test_bound_single_k_text(capsys):
    code, out, _ = run(
        capsys, "bound", "--marginals", "0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1", "--k", "3"
    )
    assert code == 0
    assert "n = 8  k = 3" in out
    assert "sharp lower  3.8090e-02" in out
    assert "exact        3.8092e-02" in out
    assert "sharp upper  3.8092e-02" in out
    assert "coefficient  21" in out


def test_bound_single_event(capsys):
    code, out, _ = run(capsys, "bound", "--marginals", "0.5", "--k", "1")
    assert code == 0
    assert "sharp lower  5.0000e-01" in out
    assert "sharp upper  5.0000e-01" in out


def test_bound_two_events_frechet(capsys):
    code, out, _ = run(capsys, "bound", "--marginals", "0.2,0.3", "--k", "2")
    assert code == 0
    assert "sharp lower  0.0000e+00" in out
    assert "sharp upper  2.0000e-01" in out


def test_bound_csv(capsys):
    code, out, _ = run(
        capsys, "bound", "--marginals", "0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1",
        "--k", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,exact,lower,upper"
    assert lines[1] == "3,3.8092e-02,3.8090e-02,3.8092e-02"


def test_bound_all_k_text_and_json(capsys):
    code, out, _ = run(capsys, "bound", "--marginals", "0.3,0.1,0.4", "--all-k")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n = 3"
    assert len(lines) == 5  # header row plus k = 1..3

    code, out, _ = run(
        capsys, "bound", "--marginals", "0.3,0.1,0.4", "--all-k", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert [r["k"] for r in payload["reports"]] == [1, 2, 3]
    first = payload["reports"][0]
    assert first["lower"] == pytest.approx(0.61)
    assert first["upper"] == pytest.approx(0.64)


def test_bound_json_single(capsys):
    code, out, _ = run(
        capsys, "bound", "--marginals", "0.2,0.3", "--k", "1", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert set(payload) == {
        "n", "k", "exact", "lower", "upper", "s_at_lower", "s_at_upper", "coefficient",
    }


def test_bound_requires_k_or_all_k(capsys):
    code, _, err = run_exit(capsys, "bound", "--marginals", "0.5,0.5")
    assert code == 2
    assert "--k or --all-k" in err


def test_bound_rejects_k_with_all_k(capsys):
    code, _, _ = run_exit(
        capsys, "bound", "--marginals", "0.5,0.5", "--k", "1", "--all-k"
    )
    assert code == 2


def test_interval_uniform_half(capsys):
    code, out, _ = run(capsys, "interval", "--marginals", "0.5,0.5,0.5")
    assert code == 0
    assert "s interval  [-1.2500e-01, 1.2500e-01]" in out
    assert "p = 1  m = 1" in out


def test_interval_mixed(capsys):
    code, out, _ = run(capsys, "interval", "--marginals", "0.1,0.2,0.3,0.4")
    assert code == 0
    assert "[-2.4000e-03, 3.6000e-03]" in out
    assert "p = 1  m = 2" in out


def test_interval_degenerate(capsys):
    code, out, _ = run(capsys, "interval", "--marginals", "0.0,0.5")
    assert code == 0
    assert "[0.0000e+00, 0.0000e+00]" in out


def test_interval_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "interval", "--marginals", "0.5,0.5,0.5", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload == {
        "n": 3, "s_min": -0.125, "s_max": 0.125, "p": 1, "m": 1, "collapsed": False,
    }
    code, out, _ = run(
        capsys, "interval", "--marginals", "0.5,0.5,0.5", "--format", "csv"
    )
    lines = out.strip().splitlines()
    assert lines == ["s_min,s_max,p,m", "-1.2500e-01,1.2500e-01,1,1"]


def test_interval_precision_flag(capsys):
    code, out, _ = run(
        capsys, "interval", "--marginals", "0.5,0.5,0.5", "--precision", "3"
    )
    assert code == 0
    assert "[-1.25e-01, 1.25e-01]" in out


def test_measure_at_negative_endpoint(capsys):
    code, out, _ = run(
        capsys, "measure", "--marginals", "0.5,0.5,0.5", "--s", "-0.125"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n = 3  s = -1.2500e-01"
    table = {line.split()[0]: line.split()[1] for line in lines[1:]}
    assert table["(none)"] == "0.0000e+00"
    assert table["{1}"] == "2.5000e-01"
    assert table["{1,2}"] == "0.0000e+00"
    assert table["{1,2,3}"] == "2.5000e-01"


def test_measure_default_is_product(capsys):
    code, out, _ = run(capsys, "measure", "--marginals", "0.5,0.5,0.5")
    assert code == 0
    for line in out.splitlines()[1:]:
        assert line.split()[1] == "1.2500e-01"


def test_measure_endpoints(capsys):
    code, out_min, _ = run(
        capsys, "measure", "--marginals", "0.5,0.5,0.5", "--s-endpoint", "min"
    )
    assert code == 0
    code, out_explicit, _ = run(
        capsys, "measure", "--marginals", "0.5,0.5,0.5", "--s", "-0.125"
    )
    assert out_min == out_explicit


def test_measure_infeasible_s(capsys):
    code, _, err = run(
        capsys, "measure", "--marginals", "0.5,0.5,0.5", "--s", "0.2"
    )
    assert code == 2
    assert "error:" in err
    assert "outside the feasible interval" in err


def test_measure_s_and_endpoint_conflict(capsys):
    code, _, _ = run_exit(
        capsys, "measure", "--marginals", "0.5,0.5", "--s", "0.1",
        "--s-endpoint", "min",
    )
    assert code == 2


def test_measure_csv_and_json(capsys):
    code, out, _ = run(
        capsys, "measure", "--marginals", "0.6,0.2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["subset", "prob"]
    assert rows[1] == ["", "3.2000e-01"]  # (1-0.2)(1-0.6)
    assert rows[4] == ["1;2", "1.2000e-01"]

    code, out, _ = run(
        capsys, "measure", "--marginals", "0.6,0.2", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["n"] == 2 and payload["s"] == 0.0
    # mask order walks sorted space; subsets are reported in input indices
    assert payload["atoms"][1]["subset"] == [2]
    assert payload["atoms"][1]["prob"] == pytest.approx(0.2 * 0.4)


def test_measure_rational_s(capsys):
    code, out, _ = run(
        capsys, "measure", "--marginals", "1/2,1/2,1/2", "--rational", "--s", "1/8"
    )
    assert code == 0
    assert "s = 1.2500e-01" in out.splitlines()[0]


def test_table_preset_one_text(capsys):
    code, out, _ = run(capsys, "table", "--preset", "paper-table-1")
    assert code == 0
    assert "k = 1" in out and "k = 4" in out
    for label in ("0.1", "0.2", "0.3", "0.4", "0.5"):
        assert f"a = {label}" in out
    assert "sharp lower" in out and "makarov upper" in out
    # deviating standard-bound cells are starred and footnoted
    assert "* printed closed form; deviates from the bundled reference cell" in out


def test_table_preset_csv_matches_reference_rows(capsys):
    for preset, ks in (("paper-table-1", range(1, 5)), ("paper-table-2", range(5, 9))):
        code, out, _ = run(capsys, "table", "--preset", preset, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0] == ["level", "kind", "k", "value"]
        seen = {(r[0], r[1], int(r[2])): r[3] for r in rows[1:]}
        for label in REFERENCE_CELLS:
            for kind in ("sharp_lower", "exact", "sharp_upper"):
                for k in ks:
                    assert seen[(label, kind, k)] == reference_cell(label, kind, k)


def test_table_preset_two_spot_values(capsys):
    code, out, _ = run(
        capsys, "table", "--preset", "paper-table-2", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    row = payload["rows"]["0.3"]
    assert row["sharp_lower"][1] == "9.9144e-03"  # k = 6
    assert row["exact"][1] == "1.1292e-02"
    assert row["sharp_upper"][1] == "1.4507e-02"
    assert payload["k_range"] == [5, 8]
    assert payload["deviations"]  # the stored standard-bound rows never fully agree


def test_table_custom_k_zero(capsys):
    code, out, _ = run(
        capsys, "table", "--n", "3", "--levels", "0.2,0.4", "--k-range", "0", "0"
    )
    assert code == 0
    values = [
        line.split()[-1] for line in out.splitlines()[1:] if not line.startswith("a =")
    ]
    assert values and all(v == "1.0000e+00" for v in values)
    assert "*" not in out


def test_table_custom_requires_all_parts(capsys):
    code, _, _ = run_exit(capsys, "table", "--n", "3")
    assert code == 2
    code, _, _ = run_exit(
        capsys, "table", "--n", "3", "--levels", "0.2", "--k-range", "2", "1"
    )
    assert code == 2


def test_table_unknown_preset(capsys):
    code, _, _ = run_exit(capsys, "table", "--preset", "no-such-table")
    assert code == 2


def test_verify_profile_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--marginals", "0.1,0.2,0.3,0.4", "--grid", "101"
    )
    assert code == 0
    assert "result: PASS" in out
    by_key = {}
    for line in out.splitlines():
        parts = line.rsplit(None, 1)
        if len(parts) == 2:
            by_key[parts[0].strip()] = parts[1]
    for key in ("worst normalization", "worst marginal", "worst product", "tail match gap"):
        assert float(by_key[key]) <= 1e-12


def test_verify_profile_rational_exact_zeros(capsys):
    code, out, _ = run(
        capsys, "verify", "--marginals", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5",
        "--rational", "--grid", "33",
    )
    assert code == 0
    assert "mode: rational" in out
    assert "result: PASS" in out
    for line in out.splitlines():
        if line.startswith(("worst", "tail match", "sharpness")):
            assert line.split()[-1] == "0.0000e+00"


def test_verify_cap(capsys):
    values = ",".join(["0.5"] * 21)
    code, _, err = run(capsys, "verify", "--marginals", values)
    assert code == 2
    assert "n <= 20" in err


def test_verify_suite_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--seed", "7", "--format", "json"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["seed"] == 7
    assert payload["count"] == 200 and payload["max_n"] == 12
    assert payload["worst_product"] <= 1e-12
    assert payload["failures"] == []


def test_verify_grid_sets_the_suite_grid(capsys):
    for grid, checked in (("3", 200 * 3), (None, 200 * 11)):
        argv = ["verify", "--seed", "3", "--format", "json"]
        if grid is not None:
            argv += ["--grid", grid]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["measures_checked"] == checked


@pytest.mark.parametrize("rational", [False, True])
def test_verify_grid_below_two_is_bad_usage(capsys, rational):
    argv = ["verify", "--marginals", "1/2,1/3" if rational else "0.5,0.3", "--grid", "1"]
    code, out, err = run(capsys, *argv, *(["--rational"] if rational else []))
    assert code == 2
    assert out == ""
    assert "error: s_points must be >= 2, got 1" in err


def test_verify_profile_csv(capsys):
    code, out, _ = run(
        capsys, "verify", "--marginals", "0.2,0.5", "--format", "csv", "--grid", "11"
    )
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["key", "value"]
    keys = {r[0] for r in rows[1:]}
    assert "passed" in keys and "measures_checked" in keys
    assert all(len(r) == 2 for r in rows[1:])


def test_profile_from_files(tmp_path, capsys):
    as_json = tmp_path / "m.json"
    as_json.write_text(json.dumps({"marginals": [0.1] * 8}))
    code, from_file, _ = run(capsys, "bound", "--input", str(as_json), "--k", "3")
    assert code == 0
    code, inline, _ = run(
        capsys, "bound", "--marginals", ",".join(["0.1"] * 8), "--k", "3"
    )
    assert from_file == inline

    as_csv = tmp_path / "m.csv"
    as_csv.write_text("".join("0.1\n" for _ in range(8)))
    code, from_csv, _ = run(capsys, "bound", "--input", str(as_csv), "--k", "3")
    assert code == 0
    assert from_csv == inline


def test_profile_input_errors(capsys):
    code, _, err = run(capsys, "bound", "--marginals", "0.1,oops", "--k", "1")
    assert code == 2
    assert "could not parse value" in err

    code, _, err = run(capsys, "bound", "--marginals", "0.1,1.5", "--k", "1")
    assert code == 2
    assert "out of [0,1]" in err

    code, _, err = run(capsys, "bound", "--input", "/no/such/file.json", "--k", "1")
    assert code == 2
    assert "error:" in err

    code, _, err = run_exit(capsys, "bound", "--k", "1")
    assert code == 2
    assert "--marginals or --input" in err


def test_rational_fraction_tokens(capsys):
    code, out, _ = run(
        capsys, "interval", "--marginals", "1/2,1/2,1/2", "--rational"
    )
    assert code == 0
    assert "[-1.2500e-01, 1.2500e-01]" in out


@pytest.mark.parametrize("s", ["nan", "inf"])
def test_measure_non_finite_s_is_bad_usage(capsys, s):
    code, out, err = run(capsys, "measure", "--marginals", "0.5,0.5", "--s", s)
    assert code == 2
    assert out == ""
    assert f"error: s must be finite, got {s}" in err


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("precision", ["0", "-2", "x"])
def test_precision_must_be_a_positive_integer(capsys, rational, precision):
    marginals = "1/2,1/3" if rational else "0.5,0.3"
    argv = ["bound", "--marginals", marginals, "--k", "1", "--precision", precision]
    code, out, err = run_exit(capsys, *argv, *(["--rational"] if rational else []))
    assert code == 2
    assert out == ""
    assert "argument --precision: expected an integer >= 1" in err
    code, out, _ = run(capsys, *argv[:-1], "1", *(["--rational"] if rational else []))
    assert code == 0
    assert "sharp lower  " in out

"""End-to-end tests of the command-line interface, run in process."""

import csv
import dataclasses
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import measure_to_dict
from nearwise import BoundReport, bounds, build_measure, cli, from_raw, s_interval
from nearwise.cli import _write_json, main
from nearwise.numeric import format_scientific


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


def test_bound_all_k_keeps_its_layout_at_one_event(capsys):
    code, out, _ = run(capsys, "bound", "--marginals", "0.3", "--all-k", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "reports"}
    assert [r["k"] for r in payload["reports"]] == [1]

    code, out, _ = run(capsys, "bound", "--marginals", "0.3", "--all-k")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n = 1" and lines[1].split() == ["k", "exact", "lower", "upper"]
    assert lines[2].split() == ["1"] + ["3.0000e-01"] * 3


@pytest.mark.parametrize("n", [2048, 2049])
@pytest.mark.parametrize("kind", ["float", "rational", "tiny"])
def test_bound_all_k_json_streams_the_bytes_of_the_whole_array(capsys, kind, n):
    """The reports cross ``_write_batched``'s 2,048-item batch with the bytes
    of the document encoded whole.  Under two marginals of 1e-200 (``tiny``)
    every report's endpoints lie below the least double, and each is written
    as a bare number of 17 significant digits."""
    rng = random.Random(n)
    if kind == "rational":  # eighths keep the exact sweep's numerators short
        values = [Fraction(rng.randint(1, 7), 8) for _ in range(n)]
    else:
        values = [rng.random() for _ in range(n)]
        if kind == "tiny":
            values[:2] = [1e-200, 1e-200]
    rational = kind == "rational"
    code, out, _ = run(capsys, "bound", "--all-k", "--format", "json", "--marginals",
                       ",".join(map(str, values)), *(["--rational"] if rational else []))
    reports = bounds.bound_reports(from_raw(values, exact=rational), range(1, n + 1))
    doc = {"n": n, "reports": [bounds.report_to_dict(r) for r in reports]}
    assert code == 0 and out == cli._encoded(doc, "\n") + "\n"
    assert len(json.loads(out)["reports"]) == n
    if kind == "tiny":
        bare = re.findall(r'^      "s_at_(?:lower|upper)": -?\d\.\d{16}e-\d+,$', out, re.M)
        assert len(bare) == 2 * n
        first = json.loads(out, parse_float=Decimal)["reports"][0]
        for key in ("s_at_lower", "s_at_upper"):
            end = getattr(reports[0], key)
            assert abs(Fraction(first[key]) - end) <= abs(end) / 10**16


def test_bound_all_k_json_peak_stays_below_twice_its_output(monkeypatch, tmp_path):
    """The reports stream: on 10,000 events, 24 MB of JSON, the traced peak of
    ``bound --all-k --format json`` stays below twice the bytes it writes,
    where one string of the whole array would hold all of them at once."""
    rng = random.Random(10000)
    path = tmp_path / "marginals.csv"
    path.write_text("".join(f"{rng.random():.6f}\n" for _ in range(10000)), encoding="utf-8")

    class ByteCounter:
        written = 0

        def write(self, text):
            self.written += len(text.encode())
            return len(text)

        def flush(self):  # main flushes once the output ends
            pass

    sink = ByteCounter()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["bound", "--all-k", "--format", "json", "--input", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.written > 20_000_000
    assert peak < 2 * sink.written, (peak, sink.written)


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


def test_interval_keeps_endpoints_below_the_least_double(capsys):
    """The interval [-5e-401, 5e-401] is not collapsed, and no format prints
    0.0 for its ends: JSON writes a number of 17 significant digits with its
    own exponent, which float reads."""
    args = ("interval", "--marginals", "1e-200,1e-200,0.5")
    iv = s_interval(from_raw([1e-200, 1e-200, 0.5]))
    code, out, _ = run(capsys, *args, "--format", "json")
    payload = json.loads(out, parse_float=Decimal)
    assert code == 0 and payload["collapsed"] is False and json.loads(out)["s_max"] == 0.0
    assert '"s_min": -4.9999999999999996e-401,' in out
    assert '"s_max": 4.9999999999999996e-401,' in out
    for key, end in (("s_min", iv.s_min), ("s_max", iv.s_max)):
        assert abs(Fraction(payload[key]) - end) <= abs(end) / 10**16
    assert "s interval  [-5.0000e-401, 5.0000e-401]" in run(capsys, *args)[1]
    assert "-5.0000e-401,5.0000e-401,1,1" in run(capsys, *args, "--format", "csv")[1]
    code, out, _ = run(capsys, "measure", "--s-endpoint", "max", *args[1:], "--format", "json")
    assert code == 0 and '"s": 4.9999999999999996e-401,' in out
    code, out, _ = run(capsys, "measure", "--s-endpoint", "min", *args[1:])
    assert code == 0 and out.startswith("n = 3  s = -5.0000e-401\n")


def test_bound_json_at_two_thousand_halves_matches_rational_mode(capsys, tmp_path):
    """The benchmark's underflow probe: at n = 2,000, k = 1,000 the float
    bounds bracket the mutual tail and match rational mode to 1e-12, and the
    endpoints +-2^-2000 carry their exponent."""
    ends = {"s_at_lower": -Fraction(1, 2**2000), "s_at_upper": Fraction(1, 2**2000)}
    path = tmp_path / "halves.csv"
    path.write_text("0.5\n" * 2000, encoding="utf-8")
    docs = []
    for mode in ([], ["--rational"]):
        code, out, _ = run(capsys, "bound", "--k", "1000", "--format", "json",
                           "--input", str(path), *mode)
        assert code == 0 and '"s_at_lower": 0.0' not in out
        exact = json.loads(out, parse_float=Decimal)
        for key, end in ends.items():
            assert abs(Fraction(exact[key]) - end) <= abs(end) / 10**16
        docs.append(json.loads(out))
    got, want = docs
    assert got["lower"] < got["exact"] < got["upper"]
    for key in ("lower", "exact", "upper"):
        assert math.isclose(got[key], want[key], rel_tol=1e-12)


@pytest.mark.parametrize("command", [["interval"], ["bound", "--k", "400"]])
def test_rational_json_writes_endpoints_with_wide_numerators(capsys, command):
    """At 801 marginals of 3/8, s_max = (3/8)^801 lies below 2^-1022 and its
    numerator 3^801 has 1,270 bits, more than a float's range: JSON still
    writes it, to 17 significant digits."""
    profile = from_raw([Fraction(3, 8)] * 801)
    iv = s_interval(profile)
    assert iv.s_max.numerator.bit_length() > 1024 and iv.s_max < 2.0**-1022
    code, out, _ = run(capsys, *command, "--marginals", ",".join(["0.375"] * 801),
                       "--rational", "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_float=Decimal)
    key = "s_max" if command == ["interval"] else "s_at_upper"
    assert abs(Fraction(payload[key]) - iv.s_max) <= iv.s_max / 10**16


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


def test_measure_negative_rational_s_needs_no_equals_sign(capsys):
    argv = ["measure", "--marginals", "1/2,1/2,1/2", "--rational"]
    code, out, err = run(capsys, *argv, "--s", "-1/8")
    assert (code, err) == (0, "")
    assert out.startswith("n = 3  s = -1.2500e-01\n")
    assert run(capsys, *argv, "--s=-1/8") == (code, out, err)
    assert run(capsys, *argv, "--s-endpoint", "min") == (code, out, err)


@pytest.mark.parametrize("argv, token", [
    (["--marginals", "0.5,0.5,0.5", "--s", "-1/8"], "-1/8"),
    (["--marginals", "1/3,0.5"], "1/3"),
])
def test_fraction_syntax_without_rational_names_the_flag(capsys, argv, token):
    code, out, err = run(capsys, "measure", *argv)
    assert (code, out) == (2, "")
    assert f"could not parse value '{token}'; fraction syntax needs --rational" in err


def test_measure_refuses_s_far_outside_a_narrow_interval(capsys):
    """Twelve 0.01s have the interval [-1e-24, 9.9e-23]; an s of 9e-13 is
    refused, not printed with the atoms it would drive negative clamped."""
    marginals = ",".join(["0.01"] * 12)
    code, out, err = run(capsys, "measure", "--marginals", marginals, "--s", "9e-13", "--format", "csv")
    assert (code, out) == (2, "")
    assert "lies outside the feasible interval" in err


def test_csv_fraction_without_rational_names_the_flag(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("0.5\n1/3\n")
    code, out, err = run(capsys, "bound", "--input", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert "CSV parse error at line 2: '1/3'; fraction syntax needs --rational" in err
    assert run(capsys, "bound", "--input", str(path), "--k", "1", "--rational")[0] == 0


def _measure_by_mask(argv_profile, rational, s_arg):
    """``measure``'s output in every format, from the JSON document of
    :func:`conftest.measure_to_dict`, one ``original_subset`` call per mask."""
    values = [Fraction(v) if rational else float(v) for v in argv_profile.split(",")]
    profile = from_raw(values, exact=rational)
    iv = s_interval(profile)
    s = {"min": iv.s_min, "max": iv.s_max, "zero": 0}.get(s_arg)
    measure = build_measure(profile, (Fraction if rational else float)(s_arg) if s is None else s)
    doc = measure_to_dict(measure, profile)
    subsets = [atom["subset"] for atom in doc["atoms"]]
    probs = measure.atom_probs.tolist()
    labels = ["{" + ",".join(map(str, t)) + "}" if t else "(none)" for t in subsets]
    width = max(map(len, labels))
    return {
        "json": json.dumps(doc, indent=2) + "\n",
        "csv": "subset,prob\n" + "".join(
            f"{';'.join(map(str, t))},{format_scientific(p, 5)}\n" for t, p in zip(subsets, probs)
        ),
        "text": f"n = {profile.n}  s = {format_scientific(measure.s, 5)}\n" + "".join(
            f"{label:<{width}}  {format_scientific(p, 5)}\n" for label, p in zip(labels, probs)
        ),
    }


def _assert_same_text(out, expected):
    """``out == expected``, naming the first differing line: pytest's own diff
    of two texts of megabytes would take minutes."""
    if out != expected:
        pairs = itertools.zip_longest(out.splitlines(), expected.splitlines())
        line, (got, want) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"line {line}: {got!r} != {want!r}")


def _measure_cases(rational):
    """Unsorted profiles with ties for n = 1..12 at every endpoint, and a negative s."""
    rng = random.Random(12 + rational)
    for n in range(1, 13):
        marginals = ",".join(f"{rng.choice([2, 5, 5, 8, 10, rng.randrange(1, 13)])}/20"
                             for _ in range(n))
        if not rational:
            marginals = ",".join(str(float(Fraction(v))) for v in marginals.split(","))
        for endpoint in ("min", "zero", "max"):
            yield marginals, ["--s-endpoint", endpoint], endpoint
    s = "-1/8" if rational else "-0.125"
    yield ("1/2,1/2,1/2" if rational else "0.5,0.5,0.5"), ["--s", s], s


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("rational", [False, True])
def test_measure_output_equals_the_per_mask_route(capsys, rational, fmt):
    mode = ["--rational"] if rational else []
    for marginals, s_argv, s_arg in _measure_cases(rational):
        code, out, err = run(
            capsys, "measure", "--marginals", marginals, *mode, *s_argv, "--format", fmt
        )
        assert (code, err) == (0, "")
        _assert_same_text(out, _measure_by_mask(marginals, rational, s_arg)[fmt])


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_measure_json_crosses_every_batch(capsys, fmt):
    marginals = ",".join(str(round(0.45 - 0.03 * (i % 7), 2)) for i in range(15))
    code, out, _ = run(capsys, "measure", "--marginals", marginals, "--s-endpoint", "max",
                       "--format", fmt)
    assert code == 0
    _assert_same_text(out, _measure_by_mask(marginals, False, "max")[fmt])


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_measure_text_and_csv_are_written_a_batch_at_a_time(monkeypatch, fmt):
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):  # main flushes once the output ends
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    marginals = ",".join(str(round(0.05 + 0.06 * i, 2)) for i in range(14))
    assert main(["measure", "--marginals", marginals, "--format", fmt]) == 0
    assert len("".join(writes).splitlines()) == 1 + (1 << 14)
    assert len(writes) > (1 << 14) // 2048
    assert max(text.count("\n") for text in writes) <= 2048


#: Runs the command in its argv with stdout on the null device, then prints
#: its exit code and peak RSS.  A child's peak starts from its parent's RSS
#: at spawn, so the measured command is spawned from this small process.
_PEAK_RSS_LAUNCHER = """import os, sys
to_null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,
                     file_actions=to_null)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_measure_text_and_csv_peak_rss_stays_near_json():
    """Text and CSV stream like JSON, so at n = 18 neither peaks far above it."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    rng = random.Random(31)
    marginals = ",".join(repr(rng.random()) for _ in range(18))
    peaks = {}
    for fmt in ("json", "text", "csv"):
        done = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_LAUNCHER, "-m", "nearwise.cli", "measure",
             "--marginals", marginals, "--s-endpoint", "max", "--format", fmt],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300,
        )
        assert (done.returncode, done.stderr) == (0, "")
        code, peaks[fmt] = map(int, done.stdout.split())
        assert code == 0
    assert max(peaks["text"], peaks["csv"]) <= 1.5 * peaks["json"], peaks


def test_write_json_encoded_arrays(capsys):
    items = ['    "a"', "    1"]
    _write_json({"x": iter(items), "y": iter([]), "z": {"k": [1, {}]}})
    assert capsys.readouterr().out == json.dumps(
        {"x": ["a", 1], "y": [], "z": {"k": [1, {}]}}, indent=2
    ) + "\n"
    _write_json({})
    assert capsys.readouterr().out == "{}\n"


@pytest.mark.parametrize("argv", [["bound", "--k", "1"], ["interval"], ["measure"], ["verify"]])
def test_negative_marginals_value_reaches_the_program(capsys, argv):
    command, *rest = argv
    for profile in (["--marginals", "-0.5,0.2"], ["--marginals=-0.5,0.2"]):
        code, out, err = run(capsys, command, *profile, *rest)
        assert (code, out) == (2, "")
        assert err == "error: value out of [0,1] at index 1\n"


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
    assert "*" not in out  # no cell is flagged or footnoted


def test_table_preset_csv_matches_reference_rows(capsys, preset_cells):
    for preset, ks in (("paper-table-1", range(1, 5)), ("paper-table-2", range(5, 9))):
        code, out, _ = run(capsys, "table", "--preset", preset, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(out.strip().splitlines()))
        assert rows[0] == ["level", "kind", "k", "value"]
        seen = {(r[0], r[1], int(r[2])): r[3] for r in rows[1:]}
        for label in preset_cells:
            for kind in ("sharp_lower", "exact", "sharp_upper"):
                for k in ks:
                    assert seen[(label, kind, k)] == preset_cells[label][kind][k - 1]


def test_stored_standard_rows_are_the_full_count_closed_forms(preset_cells):
    """The 80 stored standard-bound cells are the older closed forms
    ``max(1 - min(F(k), F(k-1) + a), 0)`` and
    ``min(2 - max(F(k-1) + a, F(k-2) + 1), 1)`` with F the CDF of all 8
    events, not of the first 7: exact evaluation reproduces 76 of them, and
    the other 4 are one unit off in the last stored digit."""
    mismatches = {}
    for label in preset_cells:
        a = Fraction(label)
        pmf = [math.comb(8, i) * a**i * (1 - a) ** (8 - i) for i in range(9)]
        cdf = lambda j: sum(pmf[: j + 1], Fraction(0)) if j >= 0 else Fraction(0)  # noqa: E731
        for k in range(1, 9):
            forms = {
                "makarov_lower": max(1 - min(cdf(k), cdf(k - 1) + a), 0),
                "makarov_upper": min(2 - max(cdf(k - 1) + a, cdf(k - 2) + 1), 1),
            }
            for kind, value in forms.items():
                computed, stored = format_scientific(value, 5), preset_cells[label][kind][k - 1]
                if computed != stored:
                    mismatches[(label, kind, k)] = (computed, stored)
    assert mismatches == {
        ("0.1", "makarov_lower", 3): ("5.0244e-03", "5.0243e-03"),
        ("0.1", "makarov_lower", 7): ("1.0000e-08", "9.9999e-09"),
        ("0.4", "makarov_lower", 6): ("8.5197e-03", "8.5200e-03"),
        ("0.5", "makarov_upper", 2): ("9.9609e-01", "9.9610e-01"),
    }


@pytest.mark.parametrize("argv", [
    ["--preset", "paper-table-1"],
    ["--preset", "paper-table-2"],
    ["--n", "2", "--levels", "0.9", "--k-range", "1", "2"],
])
def test_table_makarov_rows_bracket_the_sharp_rows(capsys, argv):
    code, out, _ = run(capsys, "table", *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    for label, row in rows.items():
        for lo, sharp_lo, sharp_hi, hi in zip(
            *(map(float, row[kind]) for kind in
              ("makarov_lower", "sharp_lower", "sharp_upper", "makarov_upper"))
        ):
            assert lo <= sharp_lo and sharp_hi <= hi, label
    if argv[0] == "--n":
        # P(both occur) at marginals 0.9: the Fréchet pair [0.8, 0.9]
        assert rows["0.9"]["makarov_lower"][1] == "8.0000e-01"
        assert rows["0.9"]["makarov_upper"][1] == "9.0000e-01"


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
    assert list(payload) == ["preset", "n", "levels", "k_range", "rows"]


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


def test_bound_and_table_at_k_zero_read_exactly_one_in_float(capsys):
    """Seven events at 0.1234567, whose float mass vector sums to 1 plus an
    ulp: P(at least 0 occur) is printed as exactly 1 beside its bounds."""
    marginals = ",".join(["0.1234567"] * 7)
    code, out, _ = run(capsys, "bound", "--k", "0", "--marginals", marginals, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] == doc["lower"] == doc["upper"] == 1.0
    argv = ["table", "--n", "7", "--levels", "0.1234567", "--k-range", "0", "0", "--precision", "17"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]["0.1234567"]
    assert {cell for cells in rows.values() for cell in cells} == {"1.0000000000000000e+00"}


_RNG_60 = random.Random(60)
_EXACT_60 = ",".join(f"{_RNG_60.randint(0, 10**6)}/1000000" for _ in range(60))
_FLOAT_60 = ",".join(repr(_RNG_60.random()) for _ in range(60))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", [
    ["bound", "--rational", "--marginals", _EXACT_60, "--k", "31"],
    ["bound", "--rational", "--marginals", _EXACT_60, "--all-k"],
    ["table", "--n", "60", "--levels", "1/3,2/7,5/11", "--k-range", "1", "60"],
    # float reports hold numerators over 1 alike; 0.12345678 has a
    # denominator past 10^6, so the table reads that level as a float
    ["bound", "--marginals", _FLOAT_60, "--k", "31"],
    ["bound", "--marginals", _FLOAT_60, "--all-k"],
    ["table", "--n", "60", "--levels", "0.12345678", "--k-range", "1", "60"],
])
def test_exact_bounds_render_from_their_numerators(capsys, monkeypatch, argv, fmt):
    """Every renderer prints an exact bound from its numerator over the mass
    vector's scale: the bytes are those rendered from the reduced
    ``Fraction``s, and no report has formed a bound field to be printed."""
    built = []

    def recorded(route, reduced):
        def wrapper(*args):
            result = route(*args)
            reports = result if isinstance(result, list) else [result]
            built.extend(reports)
            if reduced:  # the same reports, every field a reduced Fraction
                reports = [BoundReport(*dataclasses.astuple(r)) for r in reports]
            return reports if isinstance(result, list) else reports[0]
        return wrapper

    outputs = []
    for reduced in (False, True):
        built.clear()
        # table reads its reports from the tails of its one convolution
        route = "_reports" if argv[0] == "table" else "bound_reports"
        monkeypatch.setattr(cli, route, recorded(getattr(bounds, route), reduced))
        monkeypatch.setattr(cli, "sharp_bounds", recorded(bounds.sharp_bounds, reduced))
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out
        outputs.append(out)
        if not reduced:
            assert built
            fields = set(bounds._BOUND_FIELDS)
            assert not any(fields & vars(report).keys() for report in built)
    assert outputs[0] == outputs[1]


def test_table_custom_requires_all_parts(capsys):
    code, _, _ = run_exit(capsys, "table", "--n", "3")
    assert code == 2
    code, _, _ = run_exit(
        capsys, "table", "--n", "3", "--levels", "0.2", "--k-range", "2", "1"
    )
    assert code == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_table_n_must_be_a_positive_integer(capsys, n):
    code, out, err = run_exit(
        capsys, "table", "--n", n, "--levels", "0.2", "--k-range", "1", "1"
    )
    assert code == 2
    assert out == ""
    assert "argument --n: expected an integer >= 1" in err


@pytest.mark.parametrize("level", ["abc", "1.5", "nan", "1/0", "-0.1"])
def test_table_level_errors_name_the_flag_and_the_token(capsys, level):
    code, out, err = run(
        capsys, "table", "--n", "3", "--levels", f"0.2,{level}", "--k-range", "1", "2"
    )
    assert (code, out) == (2, "")
    assert err == f"error: --levels: {level!r} is not a probability in [0, 1]\n"


@pytest.mark.parametrize("level", ["1e-400", "-1e-400"])
def test_table_refuses_a_level_whose_double_underflows(capsys, level):
    """A nonzero label whose double is 0.0 would print every cell as a = 0."""
    code, out, err = run(capsys, "table", "--n", "3", "--levels", f"0.2,{level}", "--k-range", "1", "2")
    assert (code, out) == (2, "")
    assert err == f"error: --levels: {level!r} is not a probability a double holds\n"
    code, out, _ = run(capsys, "table", "--n", "3", "--levels", "0e-400", "--k-range", "1", "1")
    assert code == 0 and "0.0000e+00" in out


def test_table_refuses_a_repeated_level_label(capsys):
    """JSON keys its rows by label, so a repeated one would lose a level."""
    argv = ["table", "--n", "3", "--k-range", "1", "2", "--format", "json"]
    code, out, err = run_exit(capsys, *argv, "--levels", "0.5,0.2,0.5")
    assert (code, out) == (2, "")
    assert "--levels lists a label more than once: '0.5,0.2,0.5'" in err
    # the same value under two labels is two levels
    code, out, _ = run(capsys, *argv, "--levels", "0.5,1/2")
    payload = json.loads(out)
    assert code == 0 and list(payload["rows"]) == payload["levels"] == ["0.5", "1/2"]
    assert payload["rows"]["0.5"] == payload["rows"]["1/2"]


def test_table_preset_refuses_custom_parts(capsys):
    custom = ["--n", "3", "--levels", "0.9", "--k-range", "1", "1"]
    code, out, err = run_exit(capsys, "table", "--preset", "paper-table-1", *custom)
    assert (code, out) == (2, "")
    assert "--preset cannot be combined with --n, --levels, --k-range" in err


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


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_exits_one_on_a_failing_profile(capsys, fmt):
    """Float mode cannot resolve an interval below the least double: the
    check fails, and the exit status says so."""
    argv = ["verify", "--marginals", "1e-200,1e-200,0.5", "--grid", "11", "--format", fmt]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[-1] == "result: FAIL"
    else:
        assert json.loads(out)["passed"] is False


def test_verify_seed_refuses_a_profile(capsys):
    code, out, err = run_exit(capsys, "verify", "--marginals", "0.1,0.2", "--seed", "5")
    assert (code, out) == (2, "")
    assert "--seed seeds the random suite and cannot be combined with --marginals" in err


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


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before 3.10.7"
)
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_bound_prints_a_coefficient_past_the_int_to_str_digit_limit(tmp_path, capsys, fmt):
    """C(14292, 7146) has 4,301 digits, one more than Python's default limit
    on int-to-str conversion: it prints in full, and the caller gets its
    limit back."""
    n, k = 14_293, 7_147
    path = tmp_path / "m.csv"
    path.write_text("0.25\n" * n)
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "bound", "--k", str(k), "--format", fmt, "--input", str(path))
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        coefficient = str(math.comb(n - 1, k - 1))
        if fmt == "json":
            assert json.loads(out)["coefficient"] == int(coefficient)
        else:
            assert f"coefficient  {coefficient}\n" in out
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(coefficient) == 4301


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before 3.10.7"
)
def test_input_parsing_keeps_the_int_to_str_digit_limit(capsys):
    code, _, err = run(capsys, "bound", "--rational", "--k", "1", "--marginals", "1/1" + "0" * 5000)
    assert code == 2
    assert "could not parse value" in err


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


def test_empty_profile_inputs_are_bad_usage(tmp_path, capsys):
    code, out, err = run(capsys, "bound", "--marginals", ",", "--k", "1")
    assert (code, out, err) == (2, "", "error: empty marginals\n")

    code, out, err = run_exit(capsys, "table", "--n", "3", "--levels", ",", "--k-range", "1", "2")
    assert (code, out) == (2, "")
    assert "--levels must list at least one probability" in err

    not_an_array = tmp_path / "m.json"
    not_an_array.write_text(json.dumps({"marginals": 3}))
    code, out, err = run(capsys, "interval", "--input", str(not_an_array))
    assert (code, out) == (2, "")
    assert '"marginals" must be an array of numbers' in err


def test_rational_fraction_tokens(capsys):
    code, out, _ = run(
        capsys, "interval", "--marginals", "1/2,1/2,1/2", "--rational"
    )
    assert code == 0
    assert "[-1.2500e-01, 1.2500e-01]" in out


@pytest.mark.parametrize("s", ["nan", "inf", "-inf"])
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


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_module_entry_point_in_a_subprocess(capsys, fmt):
    """``python -m nearwise.cli`` on a real stdout: 2^12 atoms cross several write batches."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}

    def child(*argv):
        return subprocess.run(
            [sys.executable, "-m", "nearwise.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    marginals = ",".join(str(round(0.05 + 0.07 * i, 2)) for i in range(12))
    argv = ["measure", "--marginals", marginals, "--s-endpoint", "max", "--format", fmt]
    done = child(*argv)
    assert (done.returncode, done.stderr) == (0, "")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if fmt == "json":
        assert len(json.loads(done.stdout)["atoms"]) == 1 << 12
        assert json.loads(done.stdout) == json.loads(out)
    else:
        assert len(done.stdout.splitlines()) == 1 + (1 << 12)
    assert done.stdout == out

    bad = child("bound", "--marginals", "0.1,1.5", "--k", "1", "--format", "json")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert "error: value out of [0,1] at index 2" in bad.stderr


def test_reader_closing_the_pipe_ends_quietly():
    """``nearwise measure ... | head -n 1``: exit 1 and nothing on stderr, also
    when the reader leaves in the middle of ``bound --all-k``'s reports."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    marginals = ",".join(str(round(0.05 + 0.06 * i, 2)) for i in range(14))
    many = ",".join(str(round(0.05 + 0.06 * (i % 15), 2)) for i in range(3000))
    # 2^14 atoms of JSON, or 3,000 reports, fill the pipe many times over, so
    # the child is still writing when the reader goes
    for argv in (["measure", "--marginals", marginals], ["bound", "--all-k", "--marginals", many]):
        with subprocess.Popen(
            [sys.executable, "-m", "nearwise.cli", *argv, "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        ) as child:
            assert child.stdout.readline() == b"{\n"
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=120)
        assert (argv[0], code, err) == (argv[0], 1, b"")

"""Whole-output regression test of the command line against stored captures.

Every case in :data:`CASES` runs ``main`` in process and must reproduce the
stored standard output, standard error and exit code byte for byte.  The
captures live in ``cli_golden.json`` beside this file.  When an output
change is intended, regenerate them with::

    PYTHONPATH=src python tests/test_cli_golden.py

The standard-bound cells of the ``table`` captures are also checked against
an exact evaluation in ``conftest.py``, so a recapture cannot store a wrong
pair.
Argparse's own usage errors are left out: their text belongs to argparse
and wraps with the terminal width.
"""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from nearwise.cli import TABLE_PRESETS, main
from nearwise.numeric import format_scientific

CAPTURES = Path(__file__).with_name("cli_golden.json")

_PROFILES = {
    "float": ["--marginals", "0.1,0.3,0.2,0.45,0.6"],
    "rational": ["--marginals", "1/10,3/10,1/5,9/20,3/5", "--rational"],
}
_FORMATS = ("text", "json", "csv")
_TIED_9 = "0.45,0.4,0.4,0.35,0.3,0.3,0.2,0.15,0.1"


def _matrix():
    for mode, profile in _PROFILES.items():
        for fmt in _FORMATS:
            out = ["--format", fmt]
            yield ["bound", *profile, "--k", "2", *out]
            yield ["bound", *profile, "--all-k", *out]
            yield ["interval", *profile, *out]
            for endpoint in ("min", "zero", "max"):
                yield ["measure", *profile, "--s-endpoint", endpoint, *out]
            yield ["verify", *profile, "--grid", "5", *out]
            yield ["verify", "--grid", "3", *out, *profile[2:]]
        yield ["measure", *profile, "--s=-1/1000" if mode == "rational" else "--s=-0.001"]
        yield ["bound", *profile, "--all-k", "--precision", "3"]
    for fmt in _FORMATS:
        out = ["--format", fmt]
        for preset in ("paper-table-1", "paper-table-2"):
            yield ["table", "--preset", preset, *out]
        yield ["table", "--n", "4", "--levels", "0.25,1/3,0.5", "--k-range", "0", "2", *out]
        # n = 9, input in descending order with ties: labels map through a real permutation
        yield ["measure", "--marginals", _TIED_9, "--s-endpoint", "max", *out]
        yield ["measure", "--marginals", _TIED_9, "--rational", "--s-endpoint", "min", *out]
    # errors raised by the program itself: exit 2, nothing on stdout
    yield ["measure", "--marginals", "0.5,0.5,0.5", "--s", "0.2"]
    yield ["measure", "--marginals", "0.5,0.5,0.5", "--s", "inf", "--format", "json"]
    yield ["bound", "--marginals", "0.1,1.5", "--k", "1", "--format", "csv"]
    yield ["verify", "--marginals", "0.5,0.3", "--grid", "1"]


CASES = list(_matrix())


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def captures():
    return json.loads(CAPTURES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_capture(captures, argv):
    assert run(argv) == captures[" ".join(argv)]


def _table_cells(argv, stdout):
    """(level, kind, k, cell) for every cell of a stored ``table`` capture."""
    fmt = argv[argv.index("--format") + 1]
    if fmt == "csv":
        for level, kind, k, cell in csv.reader(stdout.splitlines()[1:]):
            yield level, kind, int(k), cell
    elif fmt == "json":
        doc = json.loads(stdout)
        ks = range(doc["k_range"][0], doc["k_range"][1] + 1)
        for level, rows in doc["rows"].items():
            for kind, cells in rows.items():
                yield from ((level, kind, k, cell) for k, cell in zip(ks, cells))
    else:
        header, *lines = stdout.splitlines()
        ks = [int(token) for token in header.split()[2::3]]  # "k = 1  k = 2 ..."
        for line in lines:
            if line.startswith("a = "):
                level = line.removeprefix("a = ")
                continue
            words = line.split()
            kind, cells = "_".join(words[: -len(ks)]), words[-len(ks):]
            yield from ((level, kind, k, cell) for k, cell in zip(ks, cells))


def test_table_captures_hold_the_frechet_pair(captures, frechet_pair):
    """Every standard-bound cell of the stored ``table`` captures is the
    two-marginal Fréchet pair, evaluated in ``Fraction``s and rounded once
    to the printed digits."""
    checked = 0
    for argv in CASES:
        if argv[0] != "table":
            continue
        n = int(argv[argv.index("--n") + 1]) if "--n" in argv else TABLE_PRESETS[argv[2]].n
        for level, kind, k, cell in _table_cells(argv, captures[" ".join(argv)]["stdout"]):
            if kind.startswith("makarov"):
                pair = frechet_pair([Fraction(level)] * n, k)
                assert cell == format_scientific(pair[kind == "makarov_upper"], 5), (argv, level, k)
                checked += 1
    # formats x (presets x levels x rows x ks + the custom table's levels x rows x ks)
    assert checked == 3 * (2 * 5 * 2 * 4 + 3 * 2 * 3)


if __name__ == "__main__":
    CAPTURES.write_text(
        json.dumps({" ".join(argv): run(argv) for argv in CASES}, indent=1) + "\n",
        encoding="utf-8",
    )

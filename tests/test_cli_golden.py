"""Whole-output regression test of the command line against stored captures.

Every case in :data:`CASES` runs ``main`` in process and must reproduce the
stored standard output, standard error and exit code byte for byte.  The
captures live in ``cli_golden.json`` beside this file.  When an output
change is intended, regenerate them with::

    PYTHONPATH=src python tests/test_cli_golden.py

Argparse's own usage errors are left out: their text belongs to argparse
and wraps with the terminal width.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from nearwise.cli import main

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


if __name__ == "__main__":
    CAPTURES.write_text(
        json.dumps({" ".join(argv): run(argv) for argv in CASES}, indent=1) + "\n",
        encoding="utf-8",
    )

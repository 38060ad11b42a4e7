"""Shared reference evaluations for the tests."""

import json
from fractions import Fraction
from pathlib import Path

import pytest


def _frechet_pair(values, k):
    """Makarov's bounds on P(X + B >= k) over every coupling, in ``Fraction``s.

    X counts the events of all but the largest of ``values``, mutually
    independent; B is the largest event.  For integer X and B and any
    split x, P(X + B <= z) is at least F_X(x) + F_B(z - x) - 1 and at most
    F_X(x) + F_B(z - 1 - x); the tail bounds are 1 minus the best of these
    over every x, with z = k - 1.  Written from the CDFs, with no shared
    step with the library's route through the mass of X at k - 1.
    """
    *rest, top = sorted(Fraction(v) for v in values)
    pmf = [Fraction(1)]
    for a in rest:
        pmf = [x * (1 - a) + y * a for x, y in zip(pmf + [0], [0] + pmf)]

    def cdf_x(j):
        return sum(pmf[: j + 1], Fraction(0)) if j >= 0 else Fraction(0)

    def cdf_b(j):
        return Fraction(0) if j < 0 else 1 - top if j == 0 else Fraction(1)

    z, splits = k - 1, range(-1, len(pmf) + 1)
    cdf_low = max(max(Fraction(0), cdf_x(x) + cdf_b(z - x) - 1) for x in splits)
    cdf_high = min(min(Fraction(1), cdf_x(x) + cdf_b(z - 1 - x)) for x in splits)
    return 1 - cdf_high, 1 - cdf_low


@pytest.fixture(scope="session")
def frechet_pair():
    """``(lower, upper)`` of the two-marginal standard bounds, as :func:`_frechet_pair`."""
    return _frechet_pair


@pytest.fixture(scope="session")
def preset_cells():
    """Stored 5-digit renderings of the two preset tables: level -> row kind
    -> the cells for k = 1..8.  The sharp and exact rows are the program's;
    the two standard-bound rows are an older full-count evaluation."""
    return json.loads(Path(__file__).with_name("preset_cells.json").read_text(encoding="utf-8"))

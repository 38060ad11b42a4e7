"""Shared reference evaluations for the tests.

Besides the fixtures, plain helpers that a test module imports with
``from conftest import ...``: second routes to quantities the package
computes one way, kept here so that the package holds one route each.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nearwise import build_measure, from_raw, original_subset
from nearwise.measures import _signed_offsets
from nearwise.numeric import (
    ABS_TOL,
    as_numerators,
    mode_scalar,
    over,
    popcount_table,
    ratio,
    superset_sums,
)


def enumerate_tail(measure, k):
    """P(at least k events occur), summed over the atoms of at least ``k``
    events: ``k = 0`` gives the total mass, ``k = n + 1`` the empty sum."""
    return over(np.sum(measure.numerators[popcount_table(measure.n) >= k]), measure.scale)


def joint_probability(measure, mask):
    """P(all events in ``mask`` occur): the sum of the atoms over supersets,
    the entries at index 1 on the mask's axes of the table viewed as
    2 x ... x 2, highest bit first, copied in increasing mask order."""
    n = measure.n
    axes = tuple(1 if mask >> bit & 1 else slice(None) for bit in reversed(range(n)))
    supersets = measure.numerators.reshape((2,) * n)[axes + (...,)].ravel()
    return over(np.sum(supersets), measure.scale)


def atom_product(profile, mask):
    """Product-measure probability of the atom ``mask`` over the sorted
    values, multiplied left to right in ascending index order on the
    numerators, over the product of the denominators."""
    values = profile.sorted_values
    num, scale = ratio(mode_scalar(1, values))
    for j, a in enumerate(values):
        p, d = ratio(a)
        num *= p if mask >> j & 1 else d - p
        scale *= d
    return over(num, scale)


def frexp_prefix_atom(values, t):
    """Floating :func:`numeric.prefix_atom` by its first route: the product
    of the first ``t`` values and the complements of the rest, multiplied
    left to right and renormalized by ``math.frexp`` after each factor, then
    the mantissa's ``Fraction`` times ``Fraction(2) ** exponent``."""
    mantissa, exponent = 1.0, 0
    for j, a in enumerate(values):
        mantissa, shift = math.frexp(mantissa * (a if j < t else 1 - a))
        exponent += shift
    return Fraction(mantissa) * Fraction(2) ** exponent


def parity_construction(n, parity):
    """The classical extremal measure on n marginals of 1/2: mass 2^-(n-1) on
    each pattern whose count has the given parity, the family measure at
    s = 2^-n ("even") or -2^-n ("odd")."""
    s = 2.0**-n
    return build_measure(from_raw([0.5] * n), s if parity == "even" else -s)


def measure_to_dict(measure, profile):
    """``measure`` as the ``measure`` command's JSON document: atoms in mask
    order, each subset in input indices from its own ``original_subset``."""
    return {
        "n": measure.n,
        "s": None if measure.s is None else float(measure.s),
        "atoms": [
            {"subset": list(original_subset(profile, mask)), "prob": num / measure.scale}
            for mask, num in enumerate(measure.numerators.tolist())
        ],
    }


def _kernel_numerator(offsets, n):
    """Largest |sum over supersets| of ``offsets`` across all proper subsets."""
    return np.max(np.abs(superset_sums(offsets, n)[:-1]), initial=0, keepdims=True).item()


def kernel_residual(offsets, n):
    """Largest |sum over supersets| of ``offsets``, indexed by mask, across all
    proper subsets: 0 exactly when adding them to a measure changes no joint
    probability below order n.  Exact offsets are summed as numerators over
    their common denominator."""
    nums, scale = as_numerators(offsets)
    return over(_kernel_numerator(nums, n), scale)


def verify_kernel(n, s):
    """Whether the signed offsets (-1)^|J| s sum to zero over the supersets of
    every proper subset J: exactly for a ``Fraction`` s, on its numerator,
    and within ``ABS_TOL`` of max(1, |s|) for a float."""
    exact = isinstance(s, Fraction)
    num = s.numerator if exact else float(s)
    worst = _kernel_numerator(_signed_offsets(n, num, object if exact else float), n)
    return worst <= (0 if exact else ABS_TOL * max(1.0, abs(s)))


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

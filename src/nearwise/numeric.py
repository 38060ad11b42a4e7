"""Shared numeric helpers: dual-mode arithmetic, dense subset tables, formatting.

Everything in the package runs in one of two arithmetic modes:

* floating mode — IEEE doubles, equality checked with a relative tolerance
  of 1e-12 (with an absolute floor of 1e-12, since all quantities are
  probabilities bounded by 1);
* exact mode — ``fractions.Fraction`` throughout, equality checked exactly.

The helpers here are deliberately dumb and deterministic: products are
accumulated left to right in ascending index order, and dense tables over
bitmasks are built by doubling, so that the same mathematical quantity is
computed with the same sequence of floating-point operations everywhere it
appears.  Several boundary identities (for example, an atom that vanishes
exactly at an interval endpoint) then hold bit-for-bit even in floating mode.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import numpy as np

#: Relative tolerance for equality checks in floating mode.
REL_TOL = 1e-12
#: Absolute floor for the same checks (all compared values are <= 1).
ABS_TOL = 1e-12
#: Largest n for which dense 2**n atom enumeration is permitted.
ENUMERATION_CAP = 20
#: Largest denominator accepted for exact-mode inputs.
MAX_DENOMINATOR = 10**6


def is_exact(value) -> bool:
    """True when ``value`` participates in exact (rational) arithmetic."""
    return isinstance(value, Fraction)


def close(a, b, *, exact: bool) -> bool:
    """Equality under the active arithmetic mode."""
    if exact:
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def binom_or_zero(z: int, j: int) -> int:
    """Binomial coefficient C(z, j), extended by 0 outside 0 <= j <= z.

    The extension matters at the boundaries: the tail coefficient C(n-1, k-1)
    must vanish for k = 0 so that the whole family assigns probability 1 to
    "at least zero events occur".
    """
    if j < 0 or j > z:
        return 0
    return math.comb(z, j)


def prefix_atom(values: Sequence, t: int):
    """Product of the first ``t`` values times complements of the rest.

    Computes ``values[0] * ... * values[t-1] * (1-values[t]) * ... * (1-values[-1])``
    with left-associative ascending order; an empty product is 1.  This is the
    probability the product measure assigns to "exactly the first t events
    occur", and the interval endpoints are signed instances of it.
    """
    one = Fraction(1) if (values and isinstance(values[0], Fraction)) else 1.0
    out = one
    for j, a in enumerate(values):
        out = out * (a if j < t else one - a)
    return out


def atom_products_dense(values: Sequence):
    """Dense vector of product-measure atom probabilities, indexed by bitmask.

    Entry ``mask`` is the product over bits: ``values[j]`` when bit ``j`` is
    set, ``1 - values[j]`` otherwise.  Built by doubling, which reproduces the
    left-associative ascending order of :func:`prefix_atom` bit for bit.
    Returns an ``np.ndarray`` in floating mode, a list of ``Fraction`` in
    exact mode.
    """
    if values and isinstance(values[0], Fraction):
        one = Fraction(1)
        atoms = [one]
        for a in values:
            co = one - a
            atoms = [x * co for x in atoms] + [x * a for x in atoms]
        return atoms
    atoms = np.ones(1)
    for a in values:
        a = float(a)
        atoms = np.concatenate([atoms * (1.0 - a), atoms * a])
    return atoms


def subset_products_dense(values: Sequence):
    """Dense vector of plain subset products ``prod(values[j] for set bits j)``."""
    if values and isinstance(values[0], Fraction):
        prods = [Fraction(1)]
        for a in values:
            prods = prods + [x * a for x in prods]
        return prods
    prods = np.ones(1)
    for a in values:
        prods = np.concatenate([prods, prods * float(a)])
    return prods


@lru_cache(maxsize=32)
def popcount_table(n: int) -> np.ndarray:
    """Population counts for every mask in ``range(2**n)`` (read-only array)."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    pc.setflags(write=False)
    return pc


def superset_sums(atoms, n: int):
    """Zeta transform over the superset lattice.

    Returns a vector whose entry ``J`` is the sum of ``atoms[I]`` over all
    masks ``I`` with ``I & J == J`` (supersets of J, J itself included).
    Summation order is fixed, so floating results are reproducible.
    """
    if isinstance(atoms, np.ndarray):
        out = atoms.copy()
        paired = out.dtype == np.float64
        for b in range(n):
            if paired and b >= 1:
                # each complex128 holds two neighbouring float64 lanes, and
                # complex addition adds each lane as its own IEEE add, so
                # the sums are bit-identical with half as many elements
                view = out.view(np.complex128).reshape(-1, 2, 1 << (b - 1))
            else:
                view = out.reshape(-1, 2, 1 << b)
            view[:, 0, :] += view[:, 1, :]
        return out
    out = list(atoms)
    for b in range(n):
        bit = 1 << b
        for mask in range(len(out)):
            if not mask & bit:
                out[mask] += out[mask | bit]
    return out


def poisson_binomial_pmf(values: Sequence):
    """Probability mass function of a sum of independent Bernoulli variables.

    Entry ``t`` of the result is the probability that exactly ``t`` of the
    events occur under mutual independence.  O(n^2) convolution; the all- and
    none-occur entries come out as plain ascending products, bit-identical to
    :func:`prefix_atom` at the corresponding arguments.
    """
    if values and isinstance(values[0], Fraction):
        one = Fraction(1)
        pmf = [one]
        for a in values:
            co = one - a
            nxt = [pmf[0] * co]
            nxt += [pmf[t] * co + pmf[t - 1] * a for t in range(1, len(pmf))]
            nxt.append(pmf[-1] * a)
            pmf = nxt
        return pmf
    n = len(values)
    pmf = np.zeros(n + 1)
    pmf[0] = 1.0
    for a in values:
        a = float(a)
        pmf[1:] = pmf[1:] * (1.0 - a) + pmf[:-1] * a
        pmf[0] *= 1.0 - a
    return pmf


def cumulative_sums(vec):
    """Running sums ``vec[0], vec[0] + vec[1], ...``, added left to right.

    ``np.cumsum`` for an array, ``itertools.accumulate`` for a list of
    ``Fraction``.  Both add in the same order, so the same values give
    bit-identical sums in either container.
    """
    if isinstance(vec, np.ndarray):
        return np.cumsum(vec)
    return list(accumulate(vec))


def suffix_sums(vec):
    """Entry ``t`` is ``vec[t] + ... + vec[-1]``, added from the last entry down.

    Applied to a mass vector this gives every tail P(count >= t); the terms
    are nonnegative, so the sum is numerically benign even deep in the tail.
    """
    return cumulative_sums(vec[::-1])[::-1]


def format_scientific(value, sig_digits: int = 5) -> str:
    """Scientific notation with ``sig_digits`` significant digits.

    Matches the fixed table rendering: lowercase ``e``, signed two-digit
    exponent, e.g. ``5.6953e-01``.  Negative zero is canonicalized first so a
    vanished atom prints as ``0.0000e+00``.

    Floats go through the platform formatter (ties to even on the binary
    value).  Exact rationals are rounded from the true decimal expansion with
    ties away from zero, the convention fixed tables use — 1/256 prints as
    ``3.9063e-03``, where the float formatter would give ``3.9062e-03``.
    """
    if isinstance(value, float):
        if value == 0.0:
            value = 0.0
        return f"{value:.{sig_digits - 1}e}"
    frac = Fraction(value)
    if frac == 0:
        return f"{0.0:.{sig_digits - 1}e}"
    with decimal.localcontext() as ctx:
        ctx.prec = sig_digits
        ctx.rounding = decimal.ROUND_HALF_UP
        quotient = decimal.Decimal(frac.numerator) / decimal.Decimal(frac.denominator)
    # the quotient already carries at most sig_digits digits, so this
    # formatting step only places the exponent; it never rounds again
    rendered = f"{quotient:.{sig_digits - 1}e}"
    mantissa, _, exponent = rendered.partition("e")
    return f"{mantissa}e{int(exponent):+03d}"

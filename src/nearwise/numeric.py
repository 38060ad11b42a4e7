"""Shared numeric helpers: the arithmetic modes, dense subset tables, formatting.

Everything in the package runs in one of two arithmetic modes:

* floating mode — IEEE doubles, equality checked with a relative tolerance
  of 1e-12 (with an absolute floor of 1e-12, since all quantities are
  probabilities bounded by 1);
* exact mode — ``fractions.Fraction`` throughout, equality checked exactly.

Both modes run the same code: every vector is a numpy array, ``float64`` in
floating mode and ``object`` (entries are ``Fraction``) in exact mode, and
:func:`mode_dtype` is the one place that reads the mode off the values.

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


_OBJECT = np.dtype(object)
_FLOAT64 = np.dtype(np.float64)


def mode_dtype(values) -> np.dtype:
    """Array dtype of the arithmetic ``values`` are in.

    ``object`` when they are exact (a ``Fraction`` first entry), else
    ``float64``.  The one place the mode is read off the values: every dense
    and convolution kernel runs one numpy body on arrays of this dtype.  An
    ndarray keeps its own mode, so an empty exact array stays exact.
    """
    if isinstance(values, np.ndarray):
        exact = values.dtype == _OBJECT
    else:
        exact = len(values) > 0 and isinstance(values[0], Fraction)
    return _OBJECT if exact else _FLOAT64


def mode_scalar(value: int, values):
    """``value`` in the arithmetic of ``values``: a ``Fraction`` or a float.

    An empty object-array sum, or ``np.zeros(dtype=object)``, holds a plain
    ``int`` 0; starting from this scalar keeps every exact result a
    ``Fraction``.
    """
    return Fraction(value) if mode_dtype(values) is _OBJECT else float(value)


def mode_sum(vec):
    """Sum of the entries of ``vec`` as a Python float or ``Fraction``.

    The same float as ``np.sum``; an empty vector sums to 0 in its mode.
    """
    return np.sum(vec, initial=mode_scalar(0, vec), keepdims=True).item()


def subset_atom(values: Sequence, mask: int):
    """Product-measure probability of the atom ``mask``.

    ``values[j]`` for each set bit ``j``, ``1 - values[j]`` for the others,
    multiplied left to right in ascending index order; an empty product is
    1.  :func:`atom_products_dense` multiplies in the same order, so its
    entries match this bit for bit.
    """
    one = mode_scalar(1, values)
    out = one
    # the mask's bits, lowest first: one string, not a shift per value
    for a, bit in zip(values, f"{mask:0{len(values)}b}"[::-1]):
        out = out * (a if bit == "1" else one - a)
    return out


def prefix_atom(values: Sequence, t: int):
    """Product of the first ``t`` values times complements of the rest.

    ``subset_atom`` at the mask of the first ``t`` events: the probability
    the product measure assigns to "exactly the first t events occur".  The
    interval endpoints are signed instances of it.
    """
    return subset_atom(values, (1 << t) - 1)


def atom_products_dense(values: Sequence) -> np.ndarray:
    """Dense vector of product-measure atom probabilities, indexed by bitmask.

    Entry ``mask`` is :func:`subset_atom` at ``mask``.  Built by doubling,
    which reproduces its left-associative ascending order bit for bit.
    """
    atoms = np.full(1, mode_scalar(1, values))
    for a in values:
        atoms = np.concatenate([atoms * (1 - a), atoms * a])
    return atoms


def subset_products_dense(values: Sequence) -> np.ndarray:
    """Dense vector of plain subset products ``prod(values[j] for set bits j)``."""
    prods = np.full(1, mode_scalar(1, values))
    for a in values:
        prods = np.concatenate([prods, prods * a])
    return prods


@lru_cache(maxsize=32)
def popcount_table(n: int) -> np.ndarray:
    """Population counts for every mask in ``range(2**n)`` (read-only array)."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    pc.setflags(write=False)
    return pc


def superset_sums(atoms, n: int) -> np.ndarray:
    """Zeta transform over the superset lattice.

    Returns a fresh vector whose entry ``J`` is the sum of ``atoms[I]`` over
    all masks ``I`` with ``I & J == J`` (supersets of J, J itself included).
    Summation order is fixed, so floating results are reproducible.
    """
    out = np.array(atoms, dtype=mode_dtype(atoms))
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


def poisson_binomial_pmf(values: Sequence) -> np.ndarray:
    """Probability mass function of a sum of independent Bernoulli variables.

    Entry ``t`` of the result is the probability that exactly ``t`` of the
    events occur under mutual independence.  O(n^2) convolution; the all- and
    none-occur entries come out as plain ascending products, bit-identical to
    :func:`prefix_atom` at the corresponding arguments.

    Each value enters as a numerator ``p`` over a denominator ``d`` (``d`` is
    1.0 for a float), so exact mode convolves integers and divides once, by
    the product of the denominators, at the end: growing ``Fraction``
    operands would cost a gcd per multiply.
    """
    dtype = mode_dtype(values)
    exact = dtype == object
    pmf = np.zeros(len(values) + 1, dtype=dtype)
    pmf[0] = 1
    scale = 1
    for i, a in enumerate(values):
        p, d = (a.numerator, a.denominator) if exact else (a, 1.0)
        up = pmf[: i + 1] * p
        pmf[: i + 1] *= d - p
        pmf[1 : i + 2] += up
        scale *= d
    if exact:
        pmf *= Fraction(1, scale)
    return pmf


def cumulative_sums(vec) -> np.ndarray:
    """Running sums ``vec[0], vec[0] + vec[1], ...``, added left to right."""
    return np.cumsum(np.asarray(vec, dtype=mode_dtype(vec)))


def suffix_sums(vec) -> np.ndarray:
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
    if sig_digits < 1:
        raise ValueError(f"sig_digits must be >= 1, got {sig_digits}")
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

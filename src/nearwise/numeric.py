"""Shared numeric helpers: the arithmetic modes, dense subset tables, formatting.

Everything in the package runs in one of two arithmetic modes:

* floating mode — IEEE doubles, equality checked with a relative tolerance
  of 1e-12 (with an absolute floor of 1e-12, since all quantities are
  probabilities bounded by 1);
* exact mode — ``fractions.Fraction`` results, equality checked exactly.

Both modes run the same code: every vector is a numpy array, ``float64`` in
floating mode and ``object`` in exact mode.  :func:`is_exact` decides the
mode of a vector from outside, and :func:`mode_dtype` reads it back off
values of one type.  Every vector kernel returns numerators over one
common denominator, its *scale*: the dense tables, the Poisson-binomial
mass vector and the tails summed from it.  A value ``a`` enters as
:func:`ratio`, Python ``int``s in exact mode and the float itself over the
scale 1 in floating mode, so exact kernels add and multiply integers with
no gcd, and leaves by :func:`over` only where a layer reports it.

The helpers here are deliberately dumb and deterministic: products are
accumulated left to right in ascending index order, and dense tables over
bitmasks are built by doubling, so that the same mathematical quantity is
computed with the same sequence of floating-point operations everywhere it
appears.  Several boundary identities (for example, an atom that vanishes
exactly at an interval endpoint) then hold bit-for-bit even in floating mode.
"""

from __future__ import annotations

import math
import sys
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


def is_exact(values, exact: bool | None = None) -> bool:
    """The one mode rule: an explicit ``exact`` wins, else an ndarray is
    exact when its dtype is ``object``, and any other vector when any entry
    is a ``Fraction``.  Edges apply it once to each vector from outside."""
    if exact is not None:
        return exact
    if isinstance(values, np.ndarray):
        return values.dtype == _OBJECT
    return any(isinstance(v, Fraction) for v in values)


def mode_dtype(values) -> np.dtype:
    """Array dtype of the arithmetic ``values`` are in: ``object`` when they
    are exact, else ``float64``.  The values must be of one type, as every
    edge leaves them (:func:`is_exact`), so the first entry decides, with no
    scan; an ndarray keeps its own mode, so an empty exact array stays exact."""
    if isinstance(values, np.ndarray):
        exact = values.dtype == _OBJECT
    else:
        exact = len(values) > 0 and isinstance(values[0], Fraction)
    return _OBJECT if exact else _FLOAT64


def mode_scalar(value: int | Fraction, values):
    """``value`` in the arithmetic of ``values``: a ``Fraction`` or a float.

    An empty object-array sum, or ``np.zeros(dtype=object)``, holds a plain
    ``int`` 0; starting from this scalar keeps every exact result a
    ``Fraction``.
    """
    return Fraction(value) if mode_dtype(values) is _OBJECT else float(value)


def ratio(a) -> tuple:
    """``a`` as (numerator, denominator): a float over 1, or a ``Fraction``'s two ints.

    Multiplying by 1 is exact, so a float kernel that scales by the
    denominator computes the same bits as one that does not.  The float
    test comes first: ``isinstance`` against ``Fraction``, an abstract base
    class, costs about 0.25 µs, and the callers that read values by the
    thousand pass floats: ``report_to_dict`` reads three per formed report.
    The convolution reads each value once, when it builds its operands
    (:func:`_pmf_operands`), not once per multiply.
    """
    return (a, 1) if isinstance(a, float) else (a.numerator, a.denominator)


def over(num, scale):
    """The reported value ``num / scale``, the one exit from numerators.

    An ``int`` numerator gives a ``Fraction``, and an ``object`` array one
    per entry.  A float numerator (a numpy one too) gives a Python float.
    A float array over the scale 1, as every kernel leaves it, comes back
    as it is, with no copy.
    """
    if isinstance(num, np.ndarray) and num.dtype == _OBJECT:
        return num * Fraction(1, scale)
    if isinstance(num, np.ndarray):
        return num if scale == 1 else num / scale
    return Fraction(num, scale) if isinstance(num, int) else float(num) / scale


def as_numerators(values) -> tuple[np.ndarray, int]:
    """``values`` as (numerators, scale) over their least common denominator.

    Exact values (:func:`is_exact`; a float among them by its binary value)
    give ints in an ``object`` array; floats give a new ``float64`` array
    over 1.
    """
    if not is_exact(values):
        return np.array(values, dtype=_FLOAT64), 1
    fracs = [Fraction(v) if isinstance(v, float) else v for v in values]
    scale = math.lcm(*(v.denominator for v in fracs))
    return np.array([v.numerator * (scale // v.denominator) for v in fracs], dtype=_OBJECT), scale


def rescaled(nums: np.ndarray, factor: int) -> np.ndarray:
    """Numerators over a scale ``factor`` times larger: ``nums * factor``, or
    ``nums`` itself when the factor is 1, as it always is in floating mode."""
    return nums if factor == 1 else nums * factor


def prefix_atom(values: Sequence, t: int) -> Fraction:
    """Product of the first ``t`` values times complements of the rest: the
    product measure's probability that exactly the first t events occur, of
    which the interval endpoints are signed instances, as a ``Fraction``.

    Exact mode multiplies the numerators of :func:`ratio` and forms one
    ``Fraction``.  Floating mode multiplies the floats left to right, as
    :func:`atom_products_dense` does, but renormalizes the product by
    ``math.frexp`` after each factor and keeps its binary exponent in an
    ``int``.  Scaling by a power of two is exact, so wherever that table's
    entry at mask ``2^t - 1`` is a normal double this is its value, bit for
    bit; below that, every step still rounds to 53 bits and nothing
    underflows.  The result is one ``Fraction``, the mantissa's integer
    ratio with the kept exponent shifted into its numerator or denominator.
    """
    if mode_dtype(values) is _OBJECT:
        num, scale = 1, 1
        for j, a in enumerate(values):
            p, d = ratio(a)
            num *= p if j < t else d - p
            scale *= d
        return Fraction(num, scale)
    mantissa, exponent = 1.0, 0
    for j, a in enumerate(values):
        mantissa, shift = math.frexp(mantissa * (a if j < t else 1 - a))
        exponent += shift
    num, den = mantissa.as_integer_ratio()
    if exponent < 0:
        return Fraction(num, den << -exponent)
    return Fraction(num << exponent, den)


def held_float(value):
    """``float(value)`` where it holds ``value``, exactly or as a normal
    double; else ``value``, a ``Fraction`` whose float would be subnormal or 0."""
    f = float(value)
    # compared as integer ratios: exact, with no Fraction formed per call
    exact = f.as_integer_ratio() == value.as_integer_ratio()
    return f if exact or abs(f) >= sys.float_info.min else value


def _dense_products(values: Sequence, atoms: bool) -> tuple[np.ndarray, int]:
    """Products over every mask of the numerator ``p`` of each set bit's value
    and the factor ``d - p`` (``atoms``) or ``d`` of each other one, as
    (table, scale), the scale the product of the denominators ``d``.

    Built in place by doubling, lowest bit first, in one array of 2^n
    entries: for each value the entries with its bit set become the table so
    far times ``p``, and then the table so far is scaled by the unset factor.
    """
    table = np.empty(1 << len(values), dtype=mode_dtype(values))
    table[0] = 1
    size, scale = 1, 1
    for a in values:
        p, d = ratio(a)
        low = table[:size]
        np.multiply(low, p, out=table[size : 2 * size])
        factor = d - p if atoms else d
        if factor != 1:  # a factor of 1 changes no entry
            low *= factor
        size *= 2
        scale *= d
    return table, scale


def atom_products_dense(values: Sequence) -> tuple[np.ndarray, int]:
    """Dense vector of product-measure atom probabilities, indexed by bitmask.

    Returns (numerators, scale): entry ``mask`` over the scale is the
    product of ``values[j]`` for each set bit ``j`` and ``1 - values[j]`` for
    the others, multiplied left to right in ascending index order, as the
    doubling does.
    """
    return _dense_products(values, atoms=True)


def subset_products_dense(values: Sequence) -> tuple[np.ndarray, int]:
    """Dense vector of plain subset products ``prod(values[j] for set bits j)``,
    as (numerators, scale) over the scale of :func:`atom_products_dense`."""
    return _dense_products(values, atoms=False)


#: Masks of a 2^n pass held at once: the entries of each :func:`dense_blocks`
#: buffer (128 KB of ``float64`` or object refs), the labels of each numpy
#: pass in :func:`measures.subset_labels`, and the numerators of each
#: ``tolist`` in the ``measure`` command.
_SCRATCH = 1 << 14


def dense_blocks(low: np.ndarray, values: Sequence, *, atoms: bool = True, factor=1):
    """Every entry of the dense table over ``values`` times ``factor``, as
    ``(start, block)`` pairs in mask order: block entry ``i`` is the entry
    at mask ``start + i``.

    The table is :func:`atom_products_dense` of ``values``, or
    :func:`subset_products_dense` when not ``atoms``, and ``low`` is that
    table over the first log2(low.size) values.  Each entry is its low
    entry times the factor of each higher bit in ascending order, then
    times ``factor``: the doubling's own order, so every entry keeps its
    bits.  With no value above ``low`` and a ``factor`` of 1, the one block
    is ``low`` itself.  Otherwise each block holds ``_SCRATCH`` entries (or
    all of ``low``, if fewer) and is one scratch buffer, refilled before the
    next, or a slice of ``low`` where every factor is 1.  No block may be
    written.
    """
    if 1 << len(values) == low.size and factor == 1:
        yield 0, low
        return
    bits = low.size.bit_length() - 1
    # each higher value's factor when its bit is unset, and when it is set
    high = [(d - p if atoms else d, p) for p, d in map(ratio, values[bits:])]
    out = np.empty(min(low.size, _SCRATCH), dtype=low.dtype)
    for start in range(0, low.size << len(high), out.size):
        block = low[start & (low.size - 1) :][: out.size]
        for f in [pair[start >> (bits + i) & 1] for i, pair in enumerate(high)] + [factor]:
            if f != 1:  # a factor of 1 changes no entry
                block = np.multiply(block, f, out=out)
        yield start, block


@lru_cache(maxsize=32)
def popcount_table(n: int) -> np.ndarray:
    """Population counts for every mask in ``range(2**n)`` (read-only array)."""
    pc = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pc = np.concatenate([pc, pc + 1])
    pc.setflags(write=False)
    return pc


#: Blocks of at most this many elements are added along the long axis.
_SHORT_BLOCK = 16
#: Bits of the masks that :func:`superset_sums` adds block by block: a
#: block of 2^17 float64 entries, 1 MB, stays in a 2 MB L2 cache for all
#: of its passes.
_CACHE_BITS = 17


def _superset_pass(out: np.ndarray, b: int) -> None:
    """Add each block of ``2^b`` entries of ``out`` with bit ``b`` set into
    the block below it, in place."""
    if out.dtype == np.float64 and b >= 1:
        # each complex128 holds two neighbouring float64 lanes, and complex
        # addition adds each lane as its own IEEE add, so the sums are
        # bit-identical with half as many elements
        view = out.view(np.complex128).reshape(-1, 2, 1 << (b - 1))
    else:
        view = out.reshape(-1, 2, 1 << b)
    lo, hi = view[:, 0, :], view[:, 1, :]
    if view.shape[2] <= _SHORT_BLOCK:
        # one inner loop down the long axis, not one per short block
        lo, hi = lo.T, hi.T
    np.add(lo, hi, out=lo, order="C")


def superset_sums(atoms, n: int) -> np.ndarray:
    """Zeta transform over the superset lattice.

    Returns a fresh vector whose entry ``J`` is the sum of ``atoms[I]`` over
    all masks ``I`` with ``I & J == J`` (supersets of J, J itself included):
    a copy of ``atoms`` taken through :func:`superset_sums_in_place`, so the
    result is the only array it allocates.
    """
    out = np.array(atoms, dtype=mode_dtype(atoms))
    superset_sums_in_place(out, n)
    return out


def superset_sums_in_place(out: np.ndarray, n: int) -> None:
    """The passes of :func:`superset_sums`, over ``out`` itself.

    Summation order is fixed, so floating results are reproducible.  The
    sums are linear, so numerators over a scale give numerators over it.
    Pass ``b`` adds each block of ``2^b`` entries with bit ``b`` set into
    the block below it, in place, for b = 0..n-1.  Passes below
    ``_CACHE_BITS`` pair entries inside one block of ``2^_CACHE_BITS``, so
    they run block by block, each block taken through all of them while it
    is in cache; the higher passes then run over the whole vector.  Every
    entry sees the same adds in the same order as with one pass at a time
    over the whole vector.  numpy stages an add of two interleaved views
    through three buffers of its buffer size, 8192 elements by default, so
    the passes run with the smallest buffer numpy allows, restored
    afterwards, and allocate nothing.
    """
    block = 1 << min(n, _CACHE_BITS)
    bufsize = np.getbufsize()
    np.setbufsize(16)
    try:
        for start in range(0, out.size, block):
            chunk = out[start : start + block]
            for b in range(min(n, _CACHE_BITS)):
                _superset_pass(chunk, b)
        for b in range(_CACHE_BITS, n):
            _superset_pass(out, b)
    finally:
        np.setbufsize(bufsize)


#: Events per window of :func:`poisson_binomial_pmf`: of 16, 32 and 64, 32
#: was the fastest at n = 32 to 128 and at n = 10^4.
_WINDOW = 32


def _pmf_operands(values: Sequence) -> tuple[list, int]:
    """The operands of :func:`poisson_binomial_pmf` over ``values``, as
    (pairs, scale): per value its ``p`` and ``d - p`` (:func:`ratio`), each a
    0-d array of the mode's dtype, and the scale the product of the ``d``.

    Floating mode takes ``p`` from one ``float64`` array and ``1 - p`` from
    ``1.0 - ps``, the IEEE subtraction of ``1 - a``, over the scale 1.
    Exact mode reads one :func:`ratio` per value.  A 0-d array is a view of
    its vector, cut once: a ufunc given a Python scalar converts it on every
    call, about a third of an exact convolution step at n = 12.
    """
    if mode_dtype(values) is _FLOAT64:
        ps = np.array(values, dtype=_FLOAT64)
        qs, scale = 1.0 - ps, 1
    else:
        pairs = [ratio(a) for a in values]
        ps = np.array([p for p, _ in pairs], dtype=_OBJECT)
        qs = np.array([d - p for p, d in pairs], dtype=_OBJECT)
        scale = math.prod(d for _, d in pairs)
    return [(ps[i, ...], qs[i, ...]) for i in range(ps.size)], scale


def poisson_binomial_pmf(
    values: Sequence, operands: tuple[list, int] | None = None
) -> tuple[np.ndarray, int]:
    """Probability mass function of a sum of independent Bernoulli variables.

    Returns (numerators, scale), as :func:`atom_products_dense` does: entry
    ``t`` over the scale is the probability that exactly ``t`` of the events
    occur under mutual independence.  O(n^2) convolution; the all- and
    none-occur entries come out as plain ascending products, bit-identical to
    :func:`prefix_atom` at the corresponding arguments.

    It convolves the numerators of :func:`ratio`, so exact mode convolves
    integers over the product of the denominators: growing ``Fraction``
    operands would cost a gcd per multiply.  Sums of the entries, such as
    tails, stay numerators over the same scale.  ``operands`` are
    :func:`_pmf_operands` of ``values``, or of their first events alone, in
    the mode of ``values``; they are built here when not given, and an exact
    profile keeps its own (:func:`measures._kept_operands`).

    Event ``i`` moves ``p`` times each entry up by one and keeps ``d - p``
    times it in place, in three ufuncs into one scratch vector, each given
    its output by position and its operand as a 0-d array: an ``out=``
    keyword or an in-place operator dispatches the same ufunc at a higher
    fixed cost per call, and so does a Python scalar operand.  At small n
    a call costs more than its arithmetic, so the views are cut once per
    window of ``_WINDOW`` events, to the length that the last event of the
    window needs, not once per event.  Entries past ``i + 1`` are still
    exact zeros, and they stay ``+0.0`` (or ``0``): 0·(d - p) is +0.0, as
    d - p >= 0, and +0.0 plus 0·p of either sign is +0.0.  So each entry
    sees the same two products and one add as with views cut to ``i + 1``:
    the same float bits and the same integers.
    """
    pairs, scale = _pmf_operands(values) if operands is None else operands
    n = len(pairs)
    pmf = np.zeros(n + 1, dtype=mode_dtype(values))
    pmf[0] = 1
    scratch = np.empty(n, dtype=pmf.dtype)
    for start in range(0, n, _WINDOW):
        stop = min(start + _WINDOW, n)
        low, high, moved = pmf[:stop], pmf[1 : stop + 1], scratch[:stop]
        for p, q in pairs[start:stop]:
            np.multiply(low, p, moved)
            np.multiply(low, q, low)
            np.add(high, moved, high)
    return pmf, scale


def suffix_sums(vec) -> np.ndarray:
    """Entry ``t`` is ``vec[t] + ... + vec[-1]``, added from the last entry down.

    Applied to a mass vector this gives every tail P(count >= t); the terms
    are nonnegative, so the sum is numerically benign even deep in the tail.
    """
    return np.cumsum(np.asarray(vec, dtype=mode_dtype(vec))[::-1])[::-1]


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
    return format_scaled(*ratio(value if isinstance(value, float) else Fraction(value)), sig_digits)


def format_scaled(num, scale, sig_digits: int = 5) -> str:
    """:func:`format_scientific` of ``num / scale``, formed with no ``Fraction``.

    A float numerator is over the scale 1 and formats as the float.  An
    ``int`` numerator over a positive ``int`` scale is divided exactly and
    rounded once, in integers, so a pair not in lowest terms gives the same
    digits as the reduced ``Fraction``.  Its digits are one ``str`` of an
    int, so ``sig_digits`` past ``sys.get_int_max_str_digits()`` (4,300 by
    default) raises Python's ``ValueError`` unless the caller lifts that
    limit, as the CLI does while it renders.
    """
    if sig_digits < 1:
        raise ValueError(f"sig_digits must be >= 1, got {sig_digits}")
    if isinstance(num, float):
        if num == 0.0:
            num = 0.0
        return f"{num:.{sig_digits - 1}e}"
    if num == 0:
        return f"{0.0:.{sig_digits - 1}e}"
    sign, num = ("-" if num < 0 else ""), abs(num)
    # 10^low <= num / scale < 10^(low + 3), from the bit lengths, so the
    # quotient truncated to sig_digits + 1 to 3 digits is one int division
    low = math.floor((num.bit_length() - scale.bit_length()) * math.log10(2)) - 1
    shift = sig_digits - low
    digits = num * 10**shift // scale if shift >= 0 else num // (scale * 10**-shift)
    extra = 1 + (digits >= 10 ** (sig_digits + 1)) + (digits >= 10 ** (sig_digits + 2))
    digits, dropped = divmod(digits, 10**extra)
    if dropped >= 5 * 10 ** (extra - 1):  # at or past half: away from zero
        digits += 1
    exp = low + extra - 1
    if digits == 10**sig_digits:  # the rounding carried into a new digit
        digits, exp = digits // 10, exp + 1
    text = str(digits)
    mantissa = f"{text[0]}.{text[1:]}" if sig_digits > 1 else text
    return f"{sign}{mantissa}e{exp:+03d}"

"""The one-parameter family of measures under which n events are
(n-1)-wise independent.

For sorted marginals ``a_1 <= ... <= a_n``, every probability measure that
makes the n events (n-1)-wise independent with those marginals assigns to
the atom "exactly the events in J occur" the probability::

    P(atom J) = prod_{j in J} a_j * prod_{j not in J} (1 - a_j)  +  (-1)^|J| * s

for a single real parameter ``s``.  Mutual independence is ``s = 0``.  The
parameter is feasible exactly on a closed interval ``[s_min, s_max]`` whose
endpoints are signed prefix-atom products located by two integer invariants
``p`` and ``m`` computed from consecutive-pair sums of the sorted marginals.

Atoms are stored densely, indexed by bitmask in sorted index space (bit ``j``
set means sorted event ``j+1`` occurs), which keeps exhaustive enumeration
trivially addressable.  Dense storage caps ``n`` at 20 (about a million
atoms).

Every member of the family shares one product-atom table, so it is built
once per profile (:func:`product_atoms`), as are the feasible interval and
the subset-product table the oracle checks against.  The tables are
read-only arrays of numerators over one scale, the product of the
denominators of the events they cover (1 in floating mode), and stay on the
profile while it lives.  Each covers the first min(n, 17) sorted events, so
it holds at most 2^17 entries, one superset block (1 MB of ``float64``, plus
one Python ``int`` per entry in exact mode); :func:`numeric.dense_blocks`
extends it to every higher mask a block at a time, with the same bits as a
whole 2^n table.  A measure keeps its 2^n atoms the same way, as numerators
over one scale, so the exact oracle adds integers and forms a ``Fraction``
only for a reported scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, wraps
from typing import Callable, Iterable, Iterator

import numpy as np

from .marginals import MarginalProfile
from .numeric import (
    _CACHE_BITS,
    _SCRATCH,
    _pmf_operands,
    ENUMERATION_CAP,
    REL_TOL,
    as_numerators,
    atom_products_dense,
    dense_blocks,
    held_float,
    over,
    prefix_atom,
    ratio,
)

#: An event subset encoded as an n-bit mask in sorted index space:
#: bit j (0-based) set means sorted event j+1 occurs.
SubsetMask = int


class FeasibilityError(ValueError):
    """The requested parameter s lies outside the feasible interval."""


class CapExceededError(ValueError):
    """Dense atom enumeration was requested for n beyond the supported cap."""


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise CapExceededError(
            f"dense enumeration supports n <= {ENUMERATION_CAP}, got n = {n}"
        )


def _coerce_s(s, exact: bool):
    """``s`` in the given arithmetic: a ``Fraction`` or a finite float.  A
    numpy integer is an ``int`` and a bool is refused, as in :func:`marginals.from_raw`."""
    if type(s) is not float and type(s) is not int:
        if isinstance(s, (bool, np.bool_)):
            raise TypeError(f"s must be a number, not a bool, got {s!r}")
        if isinstance(s, np.integer):
            s = int(s)
    if not exact:
        s = float(s)
        if not math.isfinite(s):
            raise ValueError(f"s must be finite, got {s}")
        return s
    if isinstance(s, bool) or not isinstance(s, (int, Fraction)):
        raise TypeError("exact profiles require an exact s (int or Fraction)")
    return Fraction(s)


def subset_mask(indices: Iterable[int]) -> SubsetMask:
    """Mask for a subset given by 1-based sorted-space event indices."""
    mask = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"event indices are 1-based, got {i}")
        mask |= 1 << (i - 1)
    return mask


def mask_indices(mask: SubsetMask) -> tuple[int, ...]:
    """1-based sorted-space event indices of the set bits of ``mask``."""
    if mask < 0:
        raise ValueError(f"subset masks are nonnegative, got {mask}")
    return tuple(j + 1 for j, bit in enumerate(reversed(f"{mask:b}")) if bit == "1")


def original_subset(profile: MarginalProfile, mask: SubsetMask) -> tuple[int, ...]:
    """Translate a sorted-space mask to 1-based indices in the input order."""
    return tuple(sorted(profile.permutation[i - 1] + 1 for i in mask_indices(mask)))


def _half_labels(indices: range, sep, item) -> list:
    """Labels of the subsets of ``indices``, by bit over them, each index led by ``sep``."""
    table = [sep[:0]]
    for i in indices:  # i exceeds every index already in the table: ascending order
        piece = sep + item(i)
        table += [label + piece for label in table]
    return table


def _input_masks(profile: MarginalProfile) -> np.ndarray:
    """The input-order mask of every sorted-space mask, filled in place by
    doubling, as the dense tables are: sorted bit j is input bit
    ``permutation[j]``."""
    masks = np.empty(1 << profile.n, dtype=np.int64)
    masks[0] = 0
    for j, position in enumerate(profile.permutation):
        np.bitwise_or(masks[: 1 << j], 1 << position, out=masks[1 << j : 2 << j])
    return masks


def subset_labels(profile: MarginalProfile, sep=",", item=str) -> Iterator:
    """Label of every sorted-space mask, in mask order: :func:`original_subset`
    with each index ``i`` as ``item(i)`` and ``sep`` between two.

    The empty subset, mask 0 and always first, is labelled ``sep[:0]``.
    Strings and tuples both work (``sep=(), item=lambda i: (i,)`` gives the
    tuples themselves).  numpy maps every mask to its input-order mask; a
    label then joins the labels of the low and the high half of that mask,
    each from a table of about 2^(n/2) entries, so the only per-mask Python
    work is one concatenation.  Labels are generated ``numeric._SCRATCH``
    masks at a time.
    """
    n = profile.n
    _check_cap(n)
    input_masks = _input_masks(profile)
    half = n // 2
    low = _half_labels(range(1, half + 1), sep, item)
    high = _half_labels(range(half + 1, n + 1), sep, item)
    cut = len(sep)  # every half label starts with sep; drop the first one
    for start in range(0, 1 << n, _SCRATCH):
        batch = input_masks[start:start + _SCRATCH]
        yield from [
            (low[a] + high[b])[cut:]
            for a, b in zip((batch & ((1 << half) - 1)).tolist(), (batch >> half).tolist())
        ]


@dataclass(frozen=True, eq=False, init=False)
class AtomicMeasure:
    """A probability assignment to all 2^n atoms.

    Atom ``mask`` has probability ``numerators[mask] / scale``: read-only
    Python ``int``s (an ``object`` array) in exact mode, ``float64`` over the
    scale 1 in floating mode; ``atom_probs`` gives the probabilities.  Built
    from ``atom_probs`` alone (``Fraction``s, of any denominators, or floats,
    in any sequence) it takes their least common denominator as the scale;
    given a ``scale``, ``atom_probs`` holds numerators over it.  ``s`` is the
    family parameter of the measure, ``None`` for an external one.
    """

    n: int
    numerators: np.ndarray
    scale: int
    s: object

    def __init__(self, n: int, atom_probs, s=None, *, scale: int | None = None):
        numerators = atom_probs
        if scale is None:
            numerators, scale = as_numerators(atom_probs)
        elif numerators.flags.writeable:
            numerators = numerators.copy()
        numerators.setflags(write=False)
        for name, value in (("n", n), ("numerators", numerators), ("scale", scale), ("s", s)):
            object.__setattr__(self, name, value)

    @property
    def exact(self) -> bool:
        return self.numerators.dtype == object

    @cached_property
    def atom_probs(self) -> np.ndarray:
        """The atom probabilities as a read-only array, formed on first use."""
        probs = over(self.numerators, self.scale)
        probs.setflags(write=False)
        return probs

    def atom(self, mask: SubsetMask):
        return over(self.numerators.item(mask), self.scale)

    def total(self):
        return over(np.sum(self.numerators), self.scale)


@dataclass(frozen=True)
class SInterval:
    """Feasible range of the family parameter, with its locating invariants.

    ``p`` is the largest p with ``a_{2i} + a_{2i+1} <= 1`` for every i in
    1..p, in {0, ..., floor((n-1)/2)}; it locates the smallest atom product
    of odd cardinality, at the prefix subset of size 2p+1.  ``m`` is the
    largest m with ``a_{2i-1} + a_{2i} <= 1`` for every i in 1..m, in
    {0, ..., floor(n/2)}; it locates the smallest of even cardinality, at
    the prefix subset of size 2m.  So ``s_min = -prefix_atom(a, 2m)`` and
    ``s_max = prefix_atom(a, 2p+1)``; both collapse to 0 when any marginal
    is degenerate (0 or 1), and for a single event, where the marginal
    constraint pins s = 0.
    Both are ``Fraction``s in both modes, in floating mode the float product
    with its own exponent (:func:`numeric.prefix_atom`), so neither reads 0
    below 2^-1074; a float consumer converts once, with ``float``.
    """

    s_min: object
    s_max: object
    p: int
    m: int

    @property
    def is_collapsed(self) -> bool:
        """True when the interval is the single point {0}."""
        return self.s_min == self.s_max


def _leading_pairs(a) -> int:
    """How many pairs ``(a[0], a[1]), (a[2], a[3]), ...`` in a row, from the first, sum to <= 1."""
    return next((i for i, (x, y) in enumerate(zip(a[::2], a[1::2])) if x + y > 1), len(a) // 2)


def per_profile(build: Callable) -> Callable:
    """Decorator: ``build(profile)`` computed once per profile.

    The value is kept in the instance ``__dict__`` under ``build``'s name,
    as ``functools.cached_property`` does, so it is freed with the profile.
    A cache keyed on the profile would be wrong: a float and an exact
    profile with equal values compare and hash equal.
    """
    name = build.__name__

    @wraps(build)
    def cached(profile: MarginalProfile):
        cache = profile.__dict__
        if name not in cache:
            cache[name] = build(profile)
        return cache[name]

    return cached


@per_profile
def s_interval(profile: MarginalProfile) -> SInterval:
    """Feasible interval of the family parameter, computed once per profile.

    The endpoints are the signed minimal atom products of even and odd
    cardinality.  For n = 1 the marginal constraint alone pins s = 0, so the
    interval is the single point [0, 0].
    """
    values = profile.sorted_values
    p = _leading_pairs(values[1:])
    m = _leading_pairs(values)
    if profile.n == 1:
        return SInterval(s_min=Fraction(0), s_max=Fraction(0), p=p, m=m)
    s_min = -prefix_atom(values, 2 * m)
    s_max = prefix_atom(values, 2 * p + 1)
    return SInterval(s_min=s_min, s_max=s_max, p=p, m=m)


@per_profile
def endpoint_numerators(profile: MarginalProfile) -> tuple[tuple, tuple]:
    """``s_min`` and ``s_max`` times :func:`table_scale`, each as an integer
    ratio ``(num, den)``, computed once per profile.

    An exact endpoint is a signed prefix atom, whose reduced denominator
    divides that product of the marginals' denominators, the scale of the
    mass vector too (:func:`numeric.poisson_binomial_pmf`), so its ratio is
    ``(c, 1)``: an exact bound is its tail plus the slope times ``c``, over
    that scale, with no division.  A float one is its ``Fraction``'s ratio.
    """
    iv, scale = s_interval(profile), table_scale(profile)
    return tuple((s * scale).as_integer_ratio() for s in (iv.s_min, iv.s_max))


@per_profile
def product_atoms(profile: MarginalProfile) -> tuple[np.ndarray, int]:
    """Product-measure atom table of the first min(n, 17) sorted events
    (``numeric._CACHE_BITS``) as (numerators, scale), built once and
    read-only; :func:`numeric.dense_blocks` extends it to every mask."""
    table, scale = atom_products_dense(profile.sorted_values[:_CACHE_BITS])
    table.setflags(write=False)
    return table, scale


@per_profile
def _kept_operands(profile: MarginalProfile) -> tuple[list, int]:
    """The Poisson-binomial kernel's operands over the sorted marginals of an
    exact profile (:func:`numeric._pmf_operands`), built once per profile so
    that each exact convolution reads them as they are.  A float profile
    keeps its tails instead, and no operands: 2n array objects, which at
    n = 30,000 would outweigh the tails."""
    return _pmf_operands(profile.sorted_values)


def table_scale(profile: MarginalProfile) -> int:
    """Scale of the dense tables over all n sorted events: the product of
    the marginals' denominators, the scale of the exact profile's kept
    operands, and 1 in floating mode."""
    return _kept_operands(profile)[1] if profile.exact else 1


def _signed_offsets(n: int, s, dtype) -> np.ndarray:
    """Vector of (-1)^|J| * s over all masks, matching atom storage order.

    A fresh array of ``dtype`` that the caller may sum into, filled by
    doubling as the dense tables are: the masks with bit ``b`` set hold the
    negated masks below them.  Every odd mask holds ``-s`` and every even
    one ``s`` itself, since negating twice keeps a float's bits, its sign
    included.
    """
    out = np.empty(1 << n, dtype=dtype)
    out[0] = s
    for b in range(n):
        size = 1 << b
        np.negative(out[:size], out=out[size : 2 * size])
    return out


@per_profile
def feasibility_slack(profile: MarginalProfile):
    """How far ``s``, and so a family atom, may pass its bound by rounding:
    0 in exact mode and, in floating mode, 1e-12 of the interval's larger
    end, so a narrow interval gets a narrow band.  Where a dense table can
    be formed (n up to ``ENUMERATION_CAP``), the band is at least n units of
    2^-1074: a subnormal table entry, rounded at each of n factors, and the
    float of the endpoint, rounded once, can differ by that much.  Past the
    cap no table is formed, and a floor would let ``probability_at_s``
    scale an s far outside a tiny interval by C(n-1, k-1)."""
    if profile.exact:
        return 0
    iv = s_interval(profile)
    band = REL_TOL * max(-iv.s_min, iv.s_max)
    return max(band, profile.n * math.ulp(0.0)) if profile.n <= ENUMERATION_CAP else band


def check_feasible(profile: MarginalProfile, s, atoms=None):
    """Raise :class:`FeasibilityError` unless ``s`` lies in the feasible interval.

    The slack is :func:`feasibility_slack`; it is returned so that a caller
    can clamp rounding dust.  Given the atoms of the family measure at ``s``
    (numerators over a positive scale are enough), the message also names
    one that would be negative.
    """
    iv = s_interval(profile)
    slack = feasibility_slack(profile)
    band = Fraction(slack)  # exact: a float sum rounds an endpoint below 2^-1074 to 0
    if s < iv.s_min - band or s > iv.s_max + band:
        name, end = ("s_min", iv.s_min) if s < iv.s_min else ("s_max", iv.s_max)
        detail = f"violates {name} = {end if profile.exact else held_float(end)}"
        if atoms is not None:
            bad = np.flatnonzero(atoms < -slack)
            first_bad = int(bad[0]) if bad.size else int(np.argmin(atoms))
            detail += f"; atom {set(original_subset(profile, first_bad)) or '{}'} would be negative"
        raise FeasibilityError(f"s = {s} lies outside the feasible interval: {detail}")
    return slack


def build_measure(profile: MarginalProfile, s, *, validate: bool = True) -> AtomicMeasure:
    """Construct the family measure with parameter ``s``.

    Atom ``J`` receives its product-measure probability plus
    ``(-1)^|J| * s``.  With ``validate=True`` (the default), ``s`` must lie
    in the feasible interval, within :func:`feasibility_slack`, and negative
    rounding dust in (-slack, 0) is clamped to exact zero, since endpoint
    measures legitimately contain zero atoms.  With ``validate=False`` the
    atoms are returned as computed, which is how the infeasibility of
    out-of-interval parameters is demonstrated.
    """
    n = profile.n
    _check_cap(n)
    s = _coerce_s(s, profile.exact)

    # numerators over the least common multiple of the denominator of s and
    # the table's scale; a float s is a numerator over 1, as the table is.
    # s is scaled before the doubling, so exact mode forms one int per atom;
    # the table's blocks are then added into the offsets
    s_num, s_den = ratio(s)
    low, _ = product_atoms(profile)
    full_scale = table_scale(profile)
    scale = math.lcm(full_scale, s_den)
    atoms = _signed_offsets(n, s_num * (scale // s_den), low.dtype)
    for start, block in dense_blocks(low, profile.sorted_values, factor=scale // full_scale):
        part = atoms[start : start + block.size]
        np.add(block, part, out=part)

    if validate:
        slack = check_feasible(profile, s, atoms)
        # the mask costs three 2^n temporaries, so skip it when no atom is
        # negative; with no slack (exact mode) there is no dust to clamp
        if slack and atoms.min() < 0.0:
            atoms[(atoms > -slack) & (atoms < 0.0)] = 0.0

    # the measure holds a read-only view; the array filled here stays
    # writable behind it, for :func:`_writable_atoms`
    frozen = atoms.view()
    frozen.setflags(write=False)
    return AtomicMeasure(n, frozen, s, scale=scale)


def _writable_atoms(measure: AtomicMeasure) -> np.ndarray:
    """The atoms of a measure that :func:`build_measure` returned, as the
    writable array behind its read-only view, with no copy, for a caller
    that built the measure and drops it; a copy for any other measure."""
    atoms = measure.numerators.base
    if atoms is None or not atoms.flags.writeable:
        atoms = measure.numerators.copy()
    return atoms

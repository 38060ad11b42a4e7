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
once per profile (:func:`product_atoms`), as is the subset-product table the
oracle checks against.  Both are read-only arrays and stay on the profile
while it lives: 2^n entries of 8 bytes each, 8 MB per table at n = 20, plus
one ``Fraction`` per entry in exact mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from .marginals import MarginalProfile
from .numeric import (
    ABS_TOL,
    ENUMERATION_CAP,
    atom_products_dense,
    mode_dtype,
    mode_scalar,
    mode_sum,
    popcount_table,
    prefix_atom,
    subset_atom,
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


def _coerce_s(profile: MarginalProfile, s):
    """``s`` in the profile's arithmetic: a ``Fraction`` or a finite float."""
    if not profile.exact:
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
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j + 1)
        mask >>= 1
        j += 1
    return tuple(out)


def original_subset(profile: MarginalProfile, mask: SubsetMask) -> tuple[int, ...]:
    """Translate a sorted-space mask to 1-based indices in the input order."""
    return tuple(sorted(profile.permutation[i - 1] + 1 for i in mask_indices(mask)))


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """A probability assignment to all 2^n atoms.

    ``atom_probs[mask]`` is the probability that exactly the events in
    ``mask`` occur: a read-only array, ``float64`` or, in exact mode,
    ``object`` holding ``Fraction``s.  A tuple, list or writable array given
    here is copied into one.  ``s`` records the family parameter that
    generated the measure; it is ``None`` for externally supplied measures.
    """

    n: int
    atom_probs: np.ndarray
    s: object = None

    def __post_init__(self):
        atoms = self.atom_probs
        if not isinstance(atoms, np.ndarray) or atoms.flags.writeable:
            atoms = np.array(atoms, dtype=mode_dtype(atoms))
            atoms.setflags(write=False)
            object.__setattr__(self, "atom_probs", atoms)

    @property
    def exact(self) -> bool:
        return self.atom_probs.dtype == object

    def atom(self, mask: SubsetMask):
        return self.atom_probs.item(mask)

    def total(self):
        return mode_sum(self.atom_probs)


@dataclass(frozen=True)
class SInterval:
    """Feasible range of the family parameter, with its locating invariants.

    ``s_min = -prefix_atom(a, 2m)`` and ``s_max = prefix_atom(a, 2p+1)``;
    both collapse to 0 when any marginal is degenerate (0 or 1), and for a
    single event, where the marginal constraint pins s = 0.
    """

    s_min: object
    s_max: object
    p: int
    m: int

    @property
    def is_collapsed(self) -> bool:
        """True when the interval is the single point {0}."""
        return self.s_min == self.s_max


def atom_product(profile: MarginalProfile, mask: SubsetMask):
    """Product-measure probability of the atom ``mask``.

    ``prod_{j in J} a_j * prod_{j not in J} (1 - a_j)`` over sorted values;
    empty products are 1.  Accumulated in ascending index order, matching the
    dense table built by :func:`build_measure` bit for bit.
    """
    values = profile.sorted_values
    if mask < 0 or mask >> len(values):
        raise ValueError(f"mask {mask:#x} is not an {len(values)}-bit subset mask")
    return subset_atom(values, mask)


def invariant_p(profile: MarginalProfile) -> int:
    """Largest p with ``a_{2i} + a_{2i+1} <= 1`` for every i in 1..p.

    Ranges over {0, ..., floor((n-1)/2)}; 0 when n < 3 or the first such
    pair already violates the condition.  Locates the smallest atom product
    of odd cardinality, at the prefix subset of size 2p+1.
    """
    a = profile.sorted_values
    p = 0
    for i in range(1, (profile.n - 1) // 2 + 1):
        if a[2 * i - 1] + a[2 * i] <= 1:
            p = i
        else:
            break
    return p


def invariant_m(profile: MarginalProfile) -> int:
    """Largest m with ``a_{2i-1} + a_{2i} <= 1`` for every i in 1..m.

    Ranges over {0, ..., floor(n/2)}; 0 when n < 2 or ``a_1 + a_2 > 1``.
    Locates the smallest atom product of even cardinality, at the prefix
    subset of size 2m.
    """
    a = profile.sorted_values
    m = 0
    for i in range(1, profile.n // 2 + 1):
        if a[2 * i - 2] + a[2 * i - 1] <= 1:
            m = i
        else:
            break
    return m


def s_interval(profile: MarginalProfile) -> SInterval:
    """Feasible interval of the family parameter.

    The endpoints are the signed minimal atom products of even and odd
    cardinality.  For n = 1 the marginal constraint alone pins s = 0, so the
    interval is the single point [0, 0].
    """
    p = invariant_p(profile)
    m = invariant_m(profile)
    values = profile.sorted_values
    zero = mode_scalar(0, values)
    if profile.n == 1:
        return SInterval(s_min=zero, s_max=zero, p=p, m=m)
    s_min = -prefix_atom(values, 2 * m)
    s_max = prefix_atom(values, 2 * p + 1)
    if s_min == 0:
        s_min = zero  # canonicalize -0.0
    return SInterval(s_min=s_min, s_max=s_max, p=p, m=m)


def _profile_table(profile: MarginalProfile, name: str, build: Callable):
    """The dense table ``build(profile.sorted_values)``, built once per profile.

    Kept as a read-only array in the instance ``__dict__`` under ``name``,
    as ``functools.cached_property`` does, so it is freed with the profile.
    A cache keyed on the profile would be wrong: a float and an exact
    profile with equal values compare and hash equal.
    """
    cache = profile.__dict__
    if name not in cache:
        table = build(profile.sorted_values)
        table.setflags(write=False)
        cache[name] = table
    return cache[name]


def product_atoms(profile: MarginalProfile):
    """Product-measure atom table of ``profile`` (see :func:`_profile_table`)."""
    return _profile_table(profile, "product_atoms", atom_products_dense)


@lru_cache(maxsize=32)
def _odd_parity(n: int) -> np.ndarray:
    """Whether each mask in ``range(2**n)`` has odd cardinality (read-only)."""
    odd = (popcount_table(n) & 1).astype(bool)
    odd.setflags(write=False)
    return odd


def _signed_offsets(n: int, s) -> np.ndarray:
    """Vector of (-1)^|J| * s over all masks, matching atom storage order.

    A fresh array that the caller may sum into: ``object`` holding
    ``Fraction``s for a ``Fraction`` s, else ``float64``.
    """
    return np.where(_odd_parity(n), -s, s)


def build_measure(profile: MarginalProfile, s, *, validate: bool = True) -> AtomicMeasure:
    """Construct the family measure with parameter ``s``.

    Atom ``J`` receives ``atom_product(J) + (-1)^|J| * s``.  With
    ``validate=True`` (the default), ``s`` must lie in the feasible interval
    — within an absolute slack of 1e-12 in floating mode, exactly in exact
    mode — and negative rounding dust in (-slack, 0) is clamped to exact
    zero, since endpoint measures legitimately contain zero atoms.  With
    ``validate=False`` the atoms are returned as computed, which is how the
    infeasibility of out-of-interval parameters is demonstrated.
    """
    n = profile.n
    _check_cap(n)
    s = _coerce_s(profile, s)

    atoms = _signed_offsets(n, s)
    np.add(product_atoms(profile), atoms, out=atoms)

    if validate:
        iv = s_interval(profile)
        slack = 0 if profile.exact else ABS_TOL
        if s < iv.s_min - slack or s > iv.s_max + slack:
            endpoint = ("s_min", iv.s_min) if s < iv.s_min else ("s_max", iv.s_max)
            bad = np.flatnonzero(atoms < -slack)
            first_bad = int(bad[0]) if bad.size else int(np.argmin(atoms))
            raise FeasibilityError(
                f"s = {s} lies outside the feasible interval: violates "
                f"{endpoint[0]} = {endpoint[1]}; atom {set(mask_indices(first_bad)) or '{}'} "
                f"would be negative"
            )
        # the mask costs three 2^n temporaries, so skip it when no atom is
        # negative; with no slack (exact mode) there is no dust to clamp
        if slack and atoms.min() < 0.0:
            atoms[(atoms > -slack) & (atoms < 0.0)] = 0.0

    atoms.setflags(write=False)
    return AtomicMeasure(n=n, atom_probs=atoms, s=s)


def parity_construction(n: int, parity: str) -> AtomicMeasure:
    """The classical extremal example on uniform-1/2 marginals.

    Uniform mass 1/2^(n-1) on the outcome patterns whose total number of
    occurrences has the given parity, zero on the rest.  Equals the family
    measure at ``s = +1/2^n`` (parity "even": all odd-cardinality atoms
    vanish) or ``s = -1/2^n`` (parity "odd"); its independence order is
    n-1, never n.
    """
    if n < 2:
        raise ValueError(f"parity construction needs n >= 2, got n = {n}")
    if parity not in ("even", "odd"):
        raise ValueError(f'parity must be "even" or "odd", got {parity!r}')
    from .marginals import from_raw

    profile = from_raw([0.5] * n)
    s = 2.0 ** -n
    return build_measure(profile, s if parity == "even" else -s)


def joint_probability(measure: AtomicMeasure, mask: SubsetMask):
    """P(all events in ``mask`` occur): the sum of atoms over supersets."""
    n = measure.n
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} is not an {n}-bit subset mask")
    sel = (np.arange(1 << n) & mask) == mask
    return mode_sum(measure.atom_probs[sel])


def independence_order(measure: AtomicMeasure, profile: MarginalProfile) -> int:
    """Largest l for which all l-subsets satisfy the product rule.

    Checks ``P(intersection of J) == prod_{j in J} a_j`` for every subset J,
    by increasing cardinality, stopping at the first failure; returns n for
    mutual independence.  A marginal mismatch reports order 0 rather than
    raising.  Comparison tolerance follows the arithmetic mode.  Read off
    the residuals of :func:`nearwise.oracle.verify_measure`.
    """
    from .oracle import verify_measure  # the oracle module imports this one

    return verify_measure(measure, profile).independence_order


def measure_to_dict(measure: AtomicMeasure, profile: MarginalProfile) -> dict:
    """JSON-ready form: atoms in mask order, subsets in original input indices."""
    return {
        "n": measure.n,
        "s": None if measure.s is None else float(measure.s),
        "atoms": [
            {
                "subset": list(original_subset(profile, mask)),
                "prob": float(measure.atom_probs.item(mask)),
            }
            for mask in range(1 << measure.n)
        ],
    }

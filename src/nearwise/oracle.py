"""Brute-force verification of measures and bounds at desk scale (n <= 20).

Everything here recomputes claims the slow, unstructured way — dense
enumeration over all 2^n outcome patterns — so that the closed forms in
:mod:`nearwise.bounds` and the constructions in :mod:`nearwise.measures`
can be checked against an implementation that shares none of their
shortcuts.  The checks:

* ``verify_measure``: normalization, atom nonnegativity, marginals, and the
  product rule P(all events in J occur) = prod_{j in J} a_j for every
  |J| <= n-1, straight from superset sums of the atom vector, taken over
  a copy so the caller's measure is left as it is.
* ``verify_extremal_atoms``: among product-measure atoms of equal
  cardinality the prefix subset is minimal, and the overall odd/even
  cardinality minima sit at the two prefix atoms that define the feasible
  interval.
* ``check_profile``: the one scan of the family on an s-grid, reading the
  tails of each grid measure and then running ``verify_measure`` over its
  own atoms in place, so a grid point holds one 2^n array; it runs
  ``verify_extremal_atoms`` once, and confirms that the claimed bounds are
  attained at the predicted endpoints and never beaten.
  ``run_random_suite`` drives it over a seeded cohort of random profiles,
  in float or exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .bounds import _check_k, _law, _reports
from .marginals import MarginalProfile, from_raw
from .measures import (
    AtomicMeasure,
    _check_cap,
    _writable_atoms,
    build_measure,
    feasibility_slack,
    mask_indices,
    per_profile,
    product_atoms,
    s_interval,
    table_scale,
)
from .numeric import (
    _CACHE_BITS,
    ABS_TOL,
    close,
    dense_blocks,
    format_scientific,
    mode_scalar,
    over,
    popcount_table,
    ratio,
    rescaled,
    subset_products_dense,
    suffix_sums,
    superset_sums,
    superset_sums_in_place,
)

#: Seed used when none is supplied; any fixed value works, it just has to be
#: recorded so runs are reproducible.
DEFAULT_SEED = 271828


@per_profile
def subset_products(profile: MarginalProfile) -> tuple[np.ndarray, int]:
    """Subset-product table of the first min(n, 17) sorted events as
    (numerators, scale), built once and read-only;
    :func:`numeric.dense_blocks` extends it to every mask.

    Entry J is ``prod_{j in J} a_j`` over the sorted values: what the product
    rule requires of P(all events in J occur).
    """
    table, scale = subset_products_dense(profile.sorted_values[:_CACHE_BITS])
    table.setflags(write=False)
    return table, scale


@dataclass(frozen=True)
class VerificationReport:
    """Residuals and failures from brute-force checking one measure.

    ``marginal_residuals`` is in the caller's input order.  Each entry of
    ``lemma_violations`` is (check id, witness subset of 1-based sorted
    indices); the report passes iff the list is empty, which coincides with
    normalization_residual ~ 0, min_atom >= -tolerance, all marginal
    residuals ~ 0, and independence_order >= n - 1.  ``independence_order``
    is the largest l for which every l-subset satisfies the product rule,
    within the mode's tolerance: n under mutual independence, 0 when a
    marginal is off.
    """

    normalization_residual: float
    min_atom: float
    marginal_residuals: tuple
    independence_order: int
    worst_product_residual: float
    lemma_violations: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return not self.lemma_violations

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "normalization_residual": float(self.normalization_residual),
            "min_atom": float(self.min_atom),
            "marginal_residuals": [float(r) for r in self.marginal_residuals],
            "independence_order": self.independence_order,
            "worst_product_residual": float(self.worst_product_residual),
            "lemma_violations": [
                {"lemma": lemma, "witness": list(witness)}
                for lemma, witness in self.lemma_violations
            ],
        }


def _tail_vector(measure: AtomicMeasure) -> np.ndarray:
    """All tails P(at least k occur), k = 0..n, from one pass over atoms, as
    numerators over the measure's scale."""
    atoms = measure.numerators
    by_count = np.zeros(measure.n + 1, dtype=atoms.dtype)
    # adds in mask order, as ``np.bincount`` would
    np.add.at(by_count, popcount_table(measure.n), atoms)
    return suffix_sums(by_count)


class _GridMeasure(AtomicMeasure):
    """A measure that :func:`check_profile` built, holds alone and drops
    after one grid point, with its atoms writable
    (:func:`measures._writable_atoms`): once the tails are read,
    :func:`verify_measure` takes superset sums over them in place, not over
    a copy, so a grid point holds one 2^n array."""

    def __init__(self, measure: AtomicMeasure):
        for name in ("n", "scale", "s"):
            object.__setattr__(self, name, getattr(measure, name))
        object.__setattr__(self, "numerators", _writable_atoms(measure))


def verify_measure(measure: AtomicMeasure, profile: MarginalProfile) -> VerificationReport:
    """Check one measure against its profile by dense enumeration.

    Reads the minimum atom, then takes superset sums of the atom vector
    once and reads off normalization (empty subset), marginals
    (singletons), every product-rule residual for |J| <= n-1, and the
    independence order.  Failures are recorded, never raised.  The sums
    run over a copy of the atoms, so the caller's measure stays as it is;
    only a :func:`check_profile` grid measure, which is dropped after its
    check, gives up its own atoms to them.
    """
    n = measure.n
    _check_cap(n)
    if profile.n != n:
        raise ValueError(f"profile has n = {profile.n} but measure has n = {n}")

    # every check compares numerators over one common scale; a tolerance is
    # an absolute probability, so it scales too
    atoms, atom_scale = measure.numerators, measure.scale
    product_scale = table_scale(profile)
    scale = math.lcm(atom_scale, product_scale)
    tol = (0 if measure.exact else ABS_TOL) * scale

    # Nonnegativity, read before the sums overwrite a grid measure's atoms,
    # within the band s may leave its interval by: a float atom misses 0 by
    # rounding dust of s, not by an absolute 1e-12.  A negative atom's
    # witness is the first minimal mask.
    band = 0 if measure.exact else feasibility_slack(profile)
    min_atom = atoms.min(keepdims=True).item()
    negative = None if min_atom >= -band * atom_scale else int(np.argmin(atoms))

    # signed residual of every joint probability against the product rule,
    # in place from here on, the products a block at a time
    if isinstance(measure, _GridMeasure):
        residuals = atoms
        superset_sums_in_place(residuals, n)
    else:
        residuals = superset_sums(atoms, n)
    if scale != atom_scale:
        residuals *= scale // atom_scale
    low, _ = subset_products(profile)
    factor = scale // product_scale
    for start, block in dense_blocks(low, profile.sorted_values, atoms=False, factor=factor):
        part = residuals[start : start + block.size]
        np.subtract(part, block, out=part)

    violations = []

    # Normalization: total mass is the superset sum at the empty subset.
    # Each check asks "within tolerance?", so a NaN fails it.
    norm_residual = residuals.item(0)
    if not abs(norm_residual) <= tol:
        violations.append(("normalization", tuple(range(1, n + 1))))

    if negative is not None:
        violations.append(("nonnegativity", tuple(mask_indices(negative))))

    # Marginals, reported in the caller's input order.
    sorted_residuals = [residuals.item(1 << j) for j in range(n)]
    marginal_residuals = [None] * n
    for j in range(n):
        marginal_residuals[profile.permutation[j]] = over(sorted_residuals[j], scale)
    bad = [j for j in range(n) if not abs(sorted_residuals[j]) <= tol]
    if bad:
        violations.append(("marginal", (bad[0] + 1,)))

    # Product rule across every subset; only |J| <= n-1 counts against the
    # measure, but the full subset decides whether the order reaches n.
    order = n
    # Only the full set, the last mask, has |J| = n.
    residuals = np.abs(residuals, out=residuals)
    worst_product = residuals.item(int(np.argmax(residuals[:-1])))
    # the empty set's residual is the normalization defect, already
    # reported; the product rule starts at |J| = 1.  When every mask below
    # the full set is within tolerance (a NaN is not), only the full set
    # can be off, so the 2^n compare is skipped
    start = residuals.size - 1 if worst_product <= tol else 1
    bad_masks = np.flatnonzero(~(residuals[start:] <= tol)) + start
    if bad_masks.size:
        bad_levels = popcount_table(n)[bad_masks]
        first_bad_level = int(bad_levels.min())
        order = first_bad_level - 1
        if first_bad_level <= n - 1:
            first_bad_mask = int(bad_masks[bad_levels == first_bad_level].min())
            violations.append(("product-rule", tuple(mask_indices(first_bad_mask))))

    return VerificationReport(
        normalization_residual=over(norm_residual, scale),
        min_atom=over(min_atom, atom_scale),
        marginal_residuals=tuple(marginal_residuals),
        independence_order=order,
        worst_product_residual=over(worst_product, scale),
        lemma_violations=tuple(violations),
    )


def verify_extremal_atoms(profile: MarginalProfile) -> bool:
    """Confirm, by enumeration, which product atoms sit at the bottom.

    Three claims over the product-measure atoms of the sorted marginals:
    (a) every atom is at least the prefix atom of its cardinality,
    (b) the minimum over odd cardinalities is the prefix atom of size 2p+1,
    (c) the minimum over even cardinalities is the prefix atom of size 2m —
    the two quantities that bound the feasible interval.  The prefix atom of
    size t is the table's entry at the mask of the first t events, so every
    comparison is between numerators over the table's scale.  All three
    claims read the least atom of each cardinality, found in one pass.
    """
    n = profile.n
    _check_cap(n)
    exact = profile.exact

    low, _ = product_atoms(profile)
    tol = 0 if exact else ABS_TOL
    # the least atom of each cardinality t, and the prefix atom of size t,
    # the entry at mask 2^t - 1, read from the block that holds it
    level_min = np.full(n + 1, math.inf, dtype=low.dtype)
    prefixes = level_min.copy()
    counts = popcount_table(n)
    for start, block in dense_blocks(low, profile.sorted_values):
        np.minimum.at(level_min, counts[start : start + block.size], block)
        held = range(start.bit_length(), (start + block.size).bit_length())
        prefixes[held.start : held.stop] = block[[(1 << t) - 1 - start for t in held]]
    if np.any(level_min < prefixes - tol):
        return False
    # n >= 1, so both parities have atoms
    odd_min = level_min[1::2].min()
    even_min = level_min[::2].min()

    iv = s_interval(profile)
    return close(odd_min, prefixes.item(2 * iv.p + 1), exact=exact) and close(
        even_min, prefixes.item(2 * iv.m), exact=exact
    )


def random_profiles(count: int, max_n: int, seed: int, *, exact: bool = False):
    """Deterministic cohort of random profiles, n drawn from 1..max_n.

    Float mode draws marginals uniformly from [0, 1); rational mode draws
    numerators on a fixed denominator of 10^6 so every value is an exact
    Fraction.
    """
    rng = random.Random(seed)
    profiles = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        if exact:
            values = [Fraction(rng.randint(0, 10**6), 10**6) for _ in range(n)]
        else:
            values = [rng.random() for _ in range(n)]
        profiles.append(from_raw(values, exact=exact))
    return profiles


class _OracleReport:
    """What :class:`ProfileCheck` and :class:`SuiteReport` share: a verdict
    read from ``failures`` and one JSON-ready form."""

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """``passed``, then every field in declaration order: tuples become
        lists, floats and Fractions become floats."""
        out = {"passed": self.passed}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, (float, Fraction)):
                value = float(value)
            out[f.name] = value
        return out


#: The statistics of a check, in :class:`ProfileCheck`'s field order, which
#: :class:`SuiteReport` folds over its profiles and ``nearwise verify`` prints.
STATISTICS = ("measures_checked", "worst_normalization", "worst_marginal", "worst_product",
              "min_atom_seen", "tail_match_gap", "sharpness_gap")


@dataclass(frozen=True)
class ProfileCheck(_OracleReport):
    """Every oracle check applied to one profile, aggregated.

    Gap fields are the worst absolute discrepancies seen: ``tail_match_gap``
    between enumerated tails and the linear-in-s formula, ``sharpness_gap``
    between scanned extremes and the closed-form bounds.
    """

    measures_checked: int
    worst_normalization: float
    worst_marginal: float
    worst_product: float
    min_atom_seen: float
    tail_match_gap: float
    sharpness_gap: float
    scanned_ks: tuple
    failures: tuple = field(default_factory=tuple)


def check_profile(
    profile: MarginalProfile,
    *,
    s_points: int = 11,
    scan_ks=None,
    label: str = "profile",
) -> ProfileCheck:
    """Run the full oracle battery against one profile.

    Builds the measure at ``s_points`` evenly spaced parameter values
    including both endpoints (``measures_checked``), once per distinct value
    and freed before the next build.  From each it reads the enumerated
    tails, checked against the linear-in-s formula for every k, and then
    runs :func:`verify_measure`, whose superset sums overwrite the atoms in
    place: one 2^n array per grid point.  For each k in ``scan_ks``
    (default: 1, a middle k, and n) the least and greatest scanned tail,
    taken once after the scan, must match the closed-form bounds — exactly
    in rational mode, to tolerance in float.  Also checks the extremal-atom
    claims.
    """
    n = profile.n
    exact = profile.exact
    if s_points < 2:
        raise ValueError(f"s_points must be >= 2, got {s_points}")
    ks = sorted({1, (n + 1) // 2, n}) if scan_ks is None else scan_ks
    scan_ks = tuple(_check_k(k, n) for k in ks)
    failures = []
    zero = mode_scalar(0, profile.sorted_values)
    worst_norm = worst_marg = worst_prod = tail_gap = sharp_gap = zero
    min_atom_seen = mode_scalar(1, profile.sorted_values)
    # the reports that bound --all-k prints, for every k, and the linear
    # formula mutual + (-1)^k C(n-1, k-1) s, held as numerators: the mutual
    # tails over the mass vector's scale, the signed slopes as they are
    mutual, mutual_scale, _, _ = _law(profile)
    reports = _reports(profile, range(n + 1), mutual, mutual_scale)
    slopes = np.array([(-1) ** r.k * r.coefficient for r in reports], dtype=mutual.dtype)
    iv = s_interval(profile)
    if exact:
        width = iv.s_max - iv.s_min
        grid = [iv.s_min + width * Fraction(i, s_points - 1) for i in range(s_points)]
    else:
        grid = np.linspace(float(iv.s_min), float(iv.s_max), s_points).tolist()
    # the tails at the scan ks, one row per distinct s
    scanned = []
    # the grid ascends, so equal s are neighbours
    for s, _ in itertools.groupby(grid):
        # the tails first: verify_measure then overwrites the atoms with
        # their superset sums, and the measure is dropped with them
        measure = _GridMeasure(build_measure(profile, s))
        tails, scale = _tail_vector(measure), measure.scale
        report = verify_measure(measure, profile)
        del measure  # one 2^n table at a time
        if not report.passed:
            failures.append(
                f"{label}: verify_measure failed at s = {s}: "
                f"{[v[0] for v in report.lemma_violations]}"
            )
        worst_norm = max(worst_norm, abs(report.normalization_residual))
        worst_marg = max(
            worst_marg, max((abs(r) for r in report.marginal_residuals), default=zero)
        )
        worst_prod = max(worst_prod, report.worst_product_residual)
        min_atom_seen = min(min_atom_seen, report.min_atom)
        expected_order = n if s == 0 else n - 1
        if report.independence_order < expected_order:
            failures.append(
                f"{label}: independence order {report.independence_order} "
                f"< {expected_order} at s = {s}"
            )
        # tails and formula as numerators over the measure's scale, which
        # both the mutual tails' and the denominator of s divide
        s_num, s_den = ratio(s)
        # P(at least 0 occur) = 1 for every s: the mutual tail at 0 is its scale
        linear = rescaled(mutual, scale // mutual_scale) + slopes * (s_num * (scale // s_den))
        gaps = np.abs(tails - linear).tolist()
        for k, (tail, formula) in enumerate(zip(tails.tolist(), linear.tolist())):
            if not close(tail, formula, exact=exact):
                failures.append(
                    f"{label}: enumerated tail != linear formula "
                    f"at k = {k}, s = {s}"
                )
                break
        tail_gap = max(tail_gap, over(max(gaps), scale))
        scanned.append([over(tails.item(k), scale) for k in scan_ks])

    if len(scanned) < s_points and iv.s_min != iv.s_max:
        failures.append(
            f"{label}: the float grid over [{format_scientific(iv.s_min)}, "
            f"{format_scientific(iv.s_max)}] has {len(scanned)} distinct s, not "
            f"{s_points}; float mode cannot resolve this interval"
        )
    if not verify_extremal_atoms(profile):
        failures.append(f"{label}: extremal-atom check failed")

    for k, values in zip(scan_ks, zip(*scanned)):
        report = reports[k]
        empirical_min, empirical_max = min(values), max(values)
        lo_gap = abs(empirical_min - report.sharp_lower)
        hi_gap = abs(empirical_max - report.sharp_upper)
        sharp_gap = max(sharp_gap, lo_gap, hi_gap)
        if not (
            close(empirical_min, report.sharp_lower, exact=exact)
            and close(empirical_max, report.sharp_upper, exact=exact)
        ):
            failures.append(f"{label}: sharpness scan extremes off at k = {k}")

    return ProfileCheck(
        measures_checked=s_points,
        worst_normalization=worst_norm,
        worst_marginal=worst_marg,
        worst_product=worst_prod,
        min_atom_seen=min_atom_seen,
        tail_match_gap=tail_gap,
        sharpness_gap=sharp_gap,
        scanned_ks=scan_ks,
        failures=tuple(failures),
    )


@dataclass(frozen=True)
class SuiteReport(_OracleReport):
    """Aggregate result of the randomized verification suite."""

    seed: int
    count: int
    max_n: int
    exact: bool
    measures_checked: int
    worst_normalization: float
    worst_marginal: float
    worst_product: float
    min_atom_seen: float
    tail_match_gap: float
    sharpness_gap: float
    failures: tuple = field(default_factory=tuple)


def run_random_suite(
    count: int = 200,
    max_n: int = 12,
    seed: int = DEFAULT_SEED,
    *,
    exact: bool = False,
    s_points: int = 11,
) -> SuiteReport:
    """Drive the full oracle battery over a seeded cohort of random profiles.

    See :func:`check_profile` for what is checked per profile.  The seed is
    recorded in the report so any failure is reproducible.
    """
    checks = [
        check_profile(profile, s_points=s_points, label=f"profile {idx}")
        for idx, profile in enumerate(random_profiles(count, max_n, seed, exact=exact))
    ]
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    worst = {
        name: max([zero, *(getattr(check, name) for check in checks)])
        for name in STATISTICS
        if name not in ("measures_checked", "min_atom_seen")
    }
    return SuiteReport(
        seed=seed,
        count=count,
        max_n=max_n,
        exact=exact,
        measures_checked=sum(check.measures_checked for check in checks),
        min_atom_seen=min([one, *(check.min_atom_seen for check in checks)]),
        failures=tuple(f for check in checks for f in check.failures),
        **worst,
    )

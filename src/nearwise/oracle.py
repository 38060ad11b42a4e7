"""Brute-force verification of measures and bounds at desk scale (n <= 20).

Everything here recomputes claims the slow, unstructured way — dense
enumeration over all 2^n outcome patterns — so that the closed forms in
:mod:`nearwise.bounds` and the constructions in :mod:`nearwise.measures`
can be checked against an implementation that shares none of their
shortcuts.  The checks:

* ``verify_measure``: normalization, atom nonnegativity, marginals, and the
  product rule P(all events in J occur) = prod_{j in J} a_j for every
  |J| <= n-1, straight from superset sums of the atom vector.
* ``verify_kernel``: the signed offset vector (-1)^{|J|} s sums to zero over
  every proper subset's supersets, which is why adding it preserves all
  small-subset joint probabilities.
* ``verify_extremal_atoms``: among product-measure atoms of equal
  cardinality the prefix subset is minimal, and the overall odd/even
  cardinality minima sit at the two prefix atoms that define the feasible
  interval.
* ``scan_sharpness``: sample the family on an s-grid and confirm the
  claimed bounds are attained at the predicted endpoints and never beaten.
* ``run_random_suite``: drive all of the above over a seeded cohort of
  random profiles, in float or exact rational arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bounds import _check_k, _shifted, sharp_bounds, tail_probabilities
from .marginals import MarginalProfile, from_raw
from .measures import (
    AtomicMeasure,
    _check_cap,
    _odd_parity,
    _profile_table,
    _signed_offsets,
    build_measure,
    invariant_m,
    invariant_p,
    mask_indices,
    product_atoms,
    s_interval,
)
from .numeric import (
    ABS_TOL,
    close,
    mode_scalar,
    mode_sum,
    popcount_table,
    prefix_atom,
    subset_products_dense,
    suffix_sums,
    superset_sums,
)

#: Seed used when none is supplied; any fixed value works, it just has to be
#: recorded so runs are reproducible.
DEFAULT_SEED = 271828


def subset_products(profile: MarginalProfile):
    """Subset-product table of ``profile``, built once and read-only.

    Entry J is ``prod_{j in J} a_j`` over the sorted values: what the product
    rule requires of P(all events in J occur).
    """
    return _profile_table(profile, "subset_products", subset_products_dense)


@dataclass(frozen=True)
class VerificationReport:
    """Residuals and failures from brute-force checking one measure.

    ``marginal_residuals`` is in the caller's input order.  Each entry of
    ``lemma_violations`` is (check id, witness subset of 1-based sorted
    indices); the report passes iff the list is empty, which coincides with
    normalization_residual ~ 0, min_atom >= -tolerance, all marginal
    residuals ~ 0, and independence_order >= n - 1.
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


@dataclass(frozen=True)
class SharpnessScan:
    """Empirical extremes of P(at least k occur) over an s-grid."""

    empirical_min: object
    empirical_max: object
    argmin_s: object
    argmax_s: object


def enumerate_tail(measure: AtomicMeasure, k: int):
    """P(at least k events occur), summed atom by atom.

    The dumb route: filter all 2^n outcome patterns by population count.
    ``k = 0`` returns the total mass; ``k = n + 1`` the empty sum.
    """
    n = measure.n
    _check_cap(n)
    _check_k(k, n, high=n + 1)
    return mode_sum(measure.atom_probs[popcount_table(n) >= k])


def _tail_vector(measure: AtomicMeasure):
    """All tails P(at least k occur), k = 0..n, from one pass over atoms."""
    atoms = measure.atom_probs
    by_count = np.zeros(measure.n + 1, dtype=atoms.dtype)
    # adds in mask order, as ``np.bincount`` would; every count has an atom,
    # so no exact entry stays the int 0 it starts as
    np.add.at(by_count, popcount_table(measure.n), atoms)
    return suffix_sums(by_count)


def verify_measure(measure: AtomicMeasure, profile: MarginalProfile) -> VerificationReport:
    """Check one measure against its profile by dense enumeration.

    Computes superset sums of the atom vector once, then reads off
    normalization (empty subset), marginals (singletons), and every
    product-rule residual for |J| <= n-1; also finds the minimum atom and
    the independence order.  Failures are recorded, never raised.
    """
    n = measure.n
    _check_cap(n)
    if profile.n != n:
        raise ValueError(f"profile has n = {profile.n} but measure has n = {n}")
    tol = 0 if measure.exact else ABS_TOL

    atoms = measure.atom_probs
    sums = superset_sums(atoms, n)
    products = subset_products(profile)
    pc = popcount_table(n)

    violations = []

    # Normalization: total mass is the superset sum at the empty subset.
    norm_residual = sums.item(0) - 1
    if abs(norm_residual) > tol:
        violations.append(("normalization", tuple(range(1, n + 1))))

    # Nonnegativity; ``argmin`` reports the first minimal mask.
    argmin_mask = int(np.argmin(atoms))
    min_atom = atoms.item(argmin_mask)
    if min_atom < -tol:
        violations.append(("nonnegativity", tuple(mask_indices(argmin_mask))))

    # Marginals, reported in the caller's input order.
    sorted_residuals = [
        sums.item(1 << j) - profile.sorted_values[j] for j in range(n)
    ]
    marginal_residuals = [None] * n
    for j in range(n):
        marginal_residuals[profile.permutation[j]] = sorted_residuals[j]
    bad = [j for j in range(n) if abs(sorted_residuals[j]) > tol]
    if bad:
        violations.append(("marginal", (bad[0] + 1,)))

    # Product rule across every subset; only |J| <= n-1 counts against the
    # measure, but the full subset decides whether the order reaches n.
    first_bad_mask = None
    order = n
    # In place: ``sums`` is a fresh copy whose entries 0 and 1 << j were
    # read above.  Only the full set, the last mask, has |J| = n.
    residuals = np.abs(np.subtract(sums, products, out=sums), out=sums)
    worst_product = residuals.item(int(np.argmax(residuals[:-1])))
    # the empty set's residual is the normalization defect, already
    # reported; the product rule starts at |J| = 1
    bad_masks = np.flatnonzero(residuals[1:] > tol) + 1
    if bad_masks.size:
        bad_levels = pc[bad_masks]
        first_bad_level = int(bad_levels.min())
        order = first_bad_level - 1
        if first_bad_level <= n - 1:
            at_level = bad_masks[bad_levels == first_bad_level]
            first_bad_mask = int(at_level.min())
    if first_bad_mask is not None:
        violations.append(("product-rule", tuple(mask_indices(first_bad_mask))))

    return VerificationReport(
        normalization_residual=norm_residual,
        min_atom=min_atom,
        marginal_residuals=tuple(marginal_residuals),
        independence_order=order,
        worst_product_residual=worst_product,
        lemma_violations=tuple(violations),
    )


def kernel_residual(offsets: Sequence, n: int):
    """Largest |sum over supersets| across all proper subsets.

    ``offsets`` is indexed by subset mask.  A vector lies in the kernel of
    the joint-probability constraints exactly when this is zero: adding it
    to any valid measure changes no P(all of J occur) for proper J.
    """
    _check_cap(n)
    sums = np.abs(superset_sums(offsets, n)[:-1])
    return np.max(sums, initial=mode_scalar(0, sums), keepdims=True).item()


def verify_kernel(n: int, s) -> bool:
    """Does the signed offset vector (-1)^{|J|} s really sum away?

    Builds the vector over all 2^n subsets and checks, for every proper
    subset J, that the sum of entries over supersets of J vanishes — the
    reason the whole family shares all joint probabilities below order n.
    Exact for int/Fraction s; within tolerance for floats.
    """
    _check_cap(n)
    if isinstance(s, (Fraction, int)) and not isinstance(s, bool):
        return kernel_residual(_signed_offsets(n, Fraction(s)), n) == 0
    worst = kernel_residual(_signed_offsets(n, float(s)), n)
    return worst <= ABS_TOL * max(1.0, abs(float(s)))


def verify_extremal_atoms(profile: MarginalProfile) -> bool:
    """Confirm, by enumeration, which product atoms sit at the bottom.

    Three claims over the product-measure atoms of the sorted marginals:
    (a) every atom is at least the prefix atom of its cardinality,
    (b) the minimum over odd cardinalities is the prefix atom of size 2p+1,
    (c) the minimum over even cardinalities is the prefix atom of size 2m —
    the two quantities that bound the feasible interval.
    """
    n = profile.n
    _check_cap(n)
    values = profile.sorted_values
    exact = profile.exact
    tol = 0 if exact else ABS_TOL

    atoms = product_atoms(profile)
    pc = popcount_table(n)
    prefixes = [prefix_atom(values, t) for t in range(n + 1)]
    floors = np.array([f - tol for f in prefixes], dtype=atoms.dtype)
    if np.any(atoms < floors[pc]):
        return False
    odd = _odd_parity(n)
    # n >= 1, so both parities have atoms
    odd_min = atoms[odd].min()
    even_min = atoms[~odd].min()

    p = invariant_p(profile)
    m = invariant_m(profile)
    return close(odd_min, prefixes[2 * p + 1], exact=exact) and close(
        even_min, prefixes[2 * m], exact=exact
    )


def _s_grid(profile: MarginalProfile, points: int):
    iv = s_interval(profile)
    if profile.exact:
        width = iv.s_max - iv.s_min
        return [iv.s_min + width * Fraction(i, points - 1) for i in range(points)]
    return np.linspace(iv.s_min, iv.s_max, points)


def scan_sharpness(profile: MarginalProfile, k: int, grid_points: int = 1001) -> SharpnessScan:
    """Sample the family tail over an s-grid and record its extremes.

    The tail is linear in s, so the grid is a redundancy check rather than
    a search: the extremes must land on the interval endpoints, on the side
    given by the parity of k.  Endpoints are always grid members.  Ties go
    to the earliest grid point (relevant when the slope is zero).
    """
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    _check_cap(profile.n)
    best_min = best_max = None
    arg_min = arg_max = None
    for s in _s_grid(profile, grid_points):
        value = enumerate_tail(build_measure(profile, s), k)
        if best_min is None or value < best_min:
            best_min, arg_min = value, s
        if best_max is None or value > best_max:
            best_max, arg_max = value, s
    return SharpnessScan(
        empirical_min=best_min,
        empirical_max=best_max,
        argmin_s=arg_min,
        argmax_s=arg_max,
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
    including both endpoints, once each, and reads three checks from it and
    its enumerated tails: verification; the tail against the linear-in-s
    formula for every k; and, for each k in ``scan_ks`` (default: 1, a
    middle k, and n), the running extremes of the tail over the grid, which
    must match the closed-form bounds — exactly in rational mode, to
    tolerance in float.  Also checks the extremal-atom claims.
    """
    n = profile.n
    exact = profile.exact
    if s_points < 2:
        raise ValueError(f"s_points must be >= 2, got {s_points}")
    scan_ks = tuple(sorted({1, (n + 1) // 2, n}) if scan_ks is None else scan_ks)
    for k in scan_ks:
        _check_k(k, n, high=n)
    failures = []
    zero = mode_scalar(0, profile.sorted_values)
    worst_norm = worst_marg = worst_prod = tail_gap = sharp_gap = zero
    min_atom_seen = mode_scalar(1, profile.sorted_values)
    measures_checked = 0
    mutual = tail_probabilities(profile).tolist()
    # running extremes of the tail at each scan k over the grid
    lows = highs = None

    for s in _s_grid(profile, s_points):
        measure = build_measure(profile, s)
        measures_checked += 1
        report = verify_measure(measure, profile)
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
        tails = _tail_vector(measure).tolist()
        del measure  # free the 2^n atoms before the next build
        for k in range(n + 1):
            linear = _shifted(profile, k, mutual[k], s)
            tail_gap = max(tail_gap, abs(tails[k] - linear))
            if not close(tails[k], linear, exact=exact):
                failures.append(
                    f"{label}: enumerated tail != linear formula "
                    f"at k = {k}, s = {s}"
                )
                break
        values = [tails[k] for k in scan_ks]
        lows = values if lows is None else list(map(min, lows, values))
        highs = values if highs is None else list(map(max, highs, values))

    if not verify_extremal_atoms(profile):
        failures.append(f"{label}: extremal-atom check failed")

    for k, empirical_min, empirical_max in zip(scan_ks, lows, highs):
        report = sharp_bounds(profile, k)
        lo_gap = abs(empirical_min - report.sharp_lower)
        hi_gap = abs(empirical_max - report.sharp_upper)
        sharp_gap = max(sharp_gap, lo_gap, hi_gap)
        if not (
            close(empirical_min, report.sharp_lower, exact=exact)
            and close(empirical_max, report.sharp_upper, exact=exact)
        ):
            failures.append(f"{label}: sharpness scan extremes off at k = {k}")

    return ProfileCheck(
        measures_checked=measures_checked,
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
        for name in (
            "worst_normalization",
            "worst_marginal",
            "worst_product",
            "tail_match_gap",
            "sharpness_gap",
        )
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

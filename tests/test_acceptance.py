"""Package-level acceptance checks.

Each test here covers one end-to-end contract: reproducing the sharp and
exact rows of the stored preset tables, the closed-form interval for
uniform marginals, agreement between formulas and dense enumeration over
seeded random cohorts, the ordering of every bound family, and the scaling
of the tail recurrence.
Every test finishes by printing a single ``ACCEPTANCE <i>: PASS`` line
(visible with ``pytest -s``); the per-test pass/fail verdict of ``pytest -v``
carries the same information.
"""

import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from conftest import enumerate_tail
from nearwise import (
    DEFAULT_SEED,
    FeasibilityError,
    bonferroni_applicable,
    build_measure,
    check_profile,
    from_raw,
    lll_comparison,
    makarov_bounds,
    probability_at_s,
    random_profiles,
    s_interval,
    sharp_bounds,
    tail_probabilities,
    verify_extremal_atoms,
    verify_measure,
)
from nearwise.numeric import ABS_TOL, close, format_scientific

LEVELS = ("0.1", "0.2", "0.3", "0.4", "0.5")


@lru_cache(maxsize=1)
def float_cohort():
    return tuple(random_profiles(200, 12, DEFAULT_SEED))


@lru_cache(maxsize=1)
def rational_cohort():
    return tuple(random_profiles(40, 10, DEFAULT_SEED, exact=True))


def both_cohorts():
    return float_cohort() + rational_cohort()


def _scan_ks(n):
    return sorted({1, 2, (n + 1) // 2, n - 1, n} & set(range(1, n + 1)))


def test_criterion_1_reference_table_reproduction(preset_cells):
    profiles = {
        label: from_raw([Fraction(label)] * 8, exact=True) for label in LEVELS
    }

    start = time.perf_counter()
    rendered = {}
    for label, profile in profiles.items():
        for k in range(1, 9):
            rep = sharp_bounds(profile, k)
            rendered[(label, "sharp_lower", k)] = format_scientific(rep.sharp_lower, 5)
            rendered[(label, "exact", k)] = format_scientific(rep.exact_mutual, 5)
            rendered[(label, "sharp_upper", k)] = format_scientific(rep.sharp_upper, 5)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"table computation took {elapsed:.3f}s"

    cells = 0
    for label in LEVELS:
        for kind in ("sharp_lower", "exact", "sharp_upper"):
            for k in range(1, 9):
                expected = preset_cells[label][kind][k - 1]
                assert rendered[(label, kind, k)] == expected, (label, kind, k)
                cells += 1
    assert cells == 120

    # two spot cells pinned independently of the bundled table
    assert rendered[("0.3", "sharp_lower", 4)] == "1.9181e-01"
    assert rendered[("0.3", "exact", 4)] == "1.9410e-01"
    assert rendered[("0.3", "sharp_upper", 4)] == "1.9946e-01"
    assert rendered[("0.1", "sharp_lower", 7)] == "1.0000e-07"
    assert rendered[("0.1", "exact", 7)] == "7.3000e-07"
    assert rendered[("0.1", "sharp_upper", 7)] == "8.0000e-07"

    # the two standard-bound rows are not pinned to stored cells (see
    # tests/test_cli.py), but they must bracket the sharp bounds
    for label, profile in profiles.items():
        for k in range(1, 9):
            rep = sharp_bounds(profile, k)
            mk = makarov_bounds(profile, k)
            assert mk.lower <= rep.sharp_lower, (label, k)
            assert rep.sharp_upper <= mk.upper, (label, k)
    print("ACCEPTANCE 1: PASS")


def test_criterion_2_no_event_probability_vs_product_bound():
    comparison = lll_comparison(from_raw([0.1] * 6))
    assert f"{comparison.sharp_no_bad_event:.5e}" == "5.31440e-01"
    assert f"{comparison.product_bound:.5e}" == "2.62144e-01"
    assert comparison.positivity
    assert comparison.sharp_no_bad_event > comparison.product_bound
    print("ACCEPTANCE 2: PASS")


def test_criterion_3_uniform_half_interval_closed_form():
    for n in range(2, 17):
        profile = from_raw([Fraction(1, 2)] * n, exact=True)
        iv = s_interval(profile)
        assert iv.s_max == Fraction(1, 2**n), n
        assert iv.s_min == -Fraction(1, 2**n), n
        assert iv.p == (n - 1) // 2, n
        assert iv.m == n // 2, n
    print("ACCEPTANCE 3: PASS")


def test_criterion_4_family_agrees_with_enumeration():
    for profile in float_cohort():
        n = profile.n
        iv = s_interval(profile)
        for s in np.linspace(float(iv.s_min), float(iv.s_max), 11):
            s = float(s)
            measure = build_measure(profile, s)
            report = verify_measure(measure, profile)
            assert report.passed, (profile.sorted_values, s, report.lemma_violations)
            for k in range(n + 1):
                assert close(
                    enumerate_tail(measure, k),
                    probability_at_s(profile, k, s),
                    exact=False,
                ), (profile.sorted_values, s, k)
        # the grid's extremes at each scanned k match the closed-form bounds
        check = check_profile(profile, s_points=11, scan_ks=_scan_ks(n))
        assert check.passed, (profile.sorted_values, check.failures)

    for profile in rational_cohort():
        n = profile.n
        iv = s_interval(profile)
        width = iv.s_max - iv.s_min
        for i in range(11):
            s = iv.s_min + width * Fraction(i, 10)
            measure = build_measure(profile, s)
            assert verify_measure(measure, profile).passed
            for k in range(n + 1):
                assert enumerate_tail(measure, k) == probability_at_s(profile, k, s)
        check = check_profile(profile, s_points=11, scan_ks=_scan_ks(n))
        assert check.passed, (profile.sorted_values, check.failures)
        assert check.sharpness_gap == 0
    print("ACCEPTANCE 4: PASS")


def test_criterion_5_extremal_atoms_and_invariant_pairing():
    for profile in both_cohorts():
        assert verify_extremal_atoms(profile), profile.sorted_values
        iv = s_interval(profile)
        assert iv.m in (iv.p, iv.p + 1), profile.sorted_values
    print("ACCEPTANCE 5: PASS")


def test_criterion_6_endpoint_atoms_vanish_and_beyond_is_infeasible():
    step = Fraction(1, 10**9)
    endpoints_checked = 0
    for profile in rational_cohort():
        if profile.n < 2:
            continue
        iv = s_interval(profile)

        at_max = build_measure(profile, iv.s_max)
        assert at_max.atom_probs[(1 << (2 * iv.p + 1)) - 1] == 0
        at_min = build_measure(profile, iv.s_min)
        assert at_min.atom_probs[(1 << (2 * iv.m)) - 1] == 0

        beyond_max = iv.s_max * (1 + step) if iv.s_max > 0 else step
        beyond_min = iv.s_min * (1 + step) if iv.s_min < 0 else -step
        for bad in (beyond_max, beyond_min):
            unchecked = build_measure(profile, bad, validate=False)
            assert min(unchecked.atom_probs) < 0, (profile.sorted_values, bad)
            with pytest.raises(FeasibilityError):
                build_measure(profile, bad)
            endpoints_checked += 1
    assert endpoints_checked >= 2  # the cohort must actually exercise this
    print("ACCEPTANCE 6: PASS")


def test_criterion_7_bound_orderings_and_coincidences():
    for profile in both_cohorts():
        n = profile.n
        exact = profile.exact
        tol = 0 if exact else ABS_TOL
        for k in range(n + 1):
            rep = sharp_bounds(profile, k)
            mk = makarov_bounds(profile, k)
            assert rep.sharp_lower <= rep.exact_mutual + tol
            assert rep.exact_mutual <= rep.sharp_upper + tol
            assert mk.lower <= rep.sharp_lower + tol
            assert rep.sharp_upper <= mk.upper + tol

        if n >= 2:
            status = bonferroni_applicable(profile)
            union = sharp_bounds(profile, 1)
            if status.kind == "upper-coincides":
                target = union.sharp_upper
            elif status.kind == "lower-coincides":
                target = union.sharp_lower
            else:
                assert status.value is None
                continue
            if exact:
                assert status.value == target
            else:
                assert abs(status.value - target) <= ABS_TOL
    print("ACCEPTANCE 7: PASS")


def test_criterion_8_tail_recurrence_matches_enumeration_and_scales():
    for profile in both_cohorts():
        measure = build_measure(profile, Fraction(0) if profile.exact else 0.0)
        for k in range(profile.n + 1):
            direct = enumerate_tail(measure, k)
            via_dp = sharp_bounds(profile, k).exact_mutual
            if profile.exact:
                assert direct == via_dp, (profile.sorted_values, k)
            else:
                assert close(direct, via_dp, exact=False), (profile.sorted_values, k)

    big = from_raw([0.5] * 10_000)
    start = time.perf_counter()
    tails = tail_probabilities(big)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"full sweep at n = 10000 took {elapsed:.3f}s"
    assert len(tails) == 10_001
    assert close(float(tails[0]), 1.0, exact=False)
    assert np.all(np.diff(tails) <= 1e-12)  # tails never increase in k
    print("ACCEPTANCE 8: PASS")

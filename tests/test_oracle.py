"""Unit tests for the brute-force verification oracle."""

from fractions import Fraction

import numpy as np
import pytest

from nearwise import (
    AtomicMeasure,
    CapExceededError,
    build_measure,
    check_profile,
    enumerate_tail,
    from_raw,
    kernel_residual,
    parity_construction,
    probability_at_s,
    random_profiles,
    run_random_suite,
    s_interval,
    scan_sharpness,
    sharp_bounds,
    tail_probability_dp,
    verify_extremal_atoms,
    verify_kernel,
    verify_measure,
)
from nearwise.numeric import close, format_scientific, popcount_table


def test_enumerate_tail_product_measure():
    profile = from_raw([0.1] * 8)
    measure = build_measure(profile, 0.0)
    assert format_scientific(enumerate_tail(measure, 3)) == "3.8092e-02"
    assert close(enumerate_tail(measure, 0), 1.0, exact=False)
    assert enumerate_tail(measure, 9) == 0.0


def test_enumerate_tail_parity_measure():
    measure = parity_construction(8, "even")
    # Mass 2/2^8 sits on the empty pattern; everything else has >= 1 event.
    assert enumerate_tail(measure, 1) == 0.9921875


def test_enumerate_tail_validation():
    measure = build_measure(from_raw([0.5, 0.5]), 0.0)
    with pytest.raises(ValueError, match="k out of range"):
        enumerate_tail(measure, 4)
    with pytest.raises(ValueError, match="integer"):
        enumerate_tail(measure, None)
    oversized = AtomicMeasure(n=21, atom_probs=np.zeros(1))
    with pytest.raises(CapExceededError, match="n <= 20"):
        enumerate_tail(oversized, 1)


def test_enumerate_tail_exact():
    profile = from_raw([Fraction(1, 2)] * 3, exact=True)
    measure = build_measure(profile, Fraction(1, 8))
    assert enumerate_tail(measure, 1) == Fraction(3, 4)
    assert enumerate_tail(measure, 0) == 1


def test_verify_measure_passes_family_members():
    profile = from_raw([0.15, 0.4, 0.65, 0.8])
    iv = s_interval(profile)
    for s in (0.0, iv.s_min, iv.s_max, iv.s_max / 3):
        report = verify_measure(build_measure(profile, s), profile)
        assert report.passed, report.lemma_violations
        assert report.normalization_residual == pytest.approx(0.0, abs=1e-14)
        assert report.worst_product_residual <= 1e-13
        assert report.min_atom >= -1e-15
        expected = 4 if s == 0.0 else 3
        assert report.independence_order == expected


def test_verify_measure_catches_injected_fault():
    """A 1e-6 reshuffle of atom mass must not slip through."""
    profile = from_raw([0.3, 0.5, 0.7])
    measure = build_measure(profile, 0.0)
    atoms = measure.atom_probs.copy()
    atoms[0b000] += 1e-6
    atoms[0b001] -= 1e-6  # keeps the total, breaks the first marginal
    tampered = AtomicMeasure(n=3, atom_probs=atoms)
    report = verify_measure(tampered, profile)
    assert not report.passed
    kinds = {v[0] for v in report.lemma_violations}
    assert "marginal" in kinds or "product-rule" in kinds
    assert max(abs(r) for r in report.marginal_residuals) >= 1e-6 * (1 - 1e-9)


def test_verify_measure_perturbation_shows_in_residuals():
    profile = from_raw([0.2, 0.6])
    measure = build_measure(profile, 0.0)
    atoms = measure.atom_probs.copy()
    atoms[0b01] += 1e-3
    atoms[0b10] -= 1e-3
    report = verify_measure(AtomicMeasure(n=2, atom_probs=atoms), profile)
    assert not report.passed
    assert report.worst_product_residual >= 1e-3 * (1 - 1e-9)
    assert report.independence_order == 0


def test_verify_measure_flags_negative_atom_and_normalization():
    profile = from_raw([0.5, 0.5])
    atoms = np.array([0.6, -0.1, 0.25, 0.25])
    report = verify_measure(AtomicMeasure(n=2, atom_probs=atoms), profile)
    kinds = [v[0] for v in report.lemma_violations]
    assert "nonnegativity" in kinds
    witness = dict(report.lemma_violations)["nonnegativity"]
    assert witness == (1,)


def test_verify_measure_exact_mode_is_strict():
    profile = from_raw([Fraction(1, 3), Fraction(1, 2)], exact=True)
    measure = build_measure(profile, Fraction(1, 100))
    assert verify_measure(measure, profile).passed
    atoms = list(measure.atom_probs)
    atoms[0] += Fraction(1, 10**12)
    report = verify_measure(AtomicMeasure(n=2, atom_probs=tuple(atoms)), profile)
    assert not report.passed


@pytest.mark.parametrize("exact", [False, True])
def test_verify_measure_total_mass_defect_is_only_normalization(exact):
    """Mass added to the empty-set atom changes no joint of a nonempty J."""
    profile = from_raw([0.2, Fraction(1, 3), 0.5], exact=exact)
    atoms = list(build_measure(profile, 0).atom_probs)
    atoms[0] += Fraction(1, 1000) if exact else 1e-3
    measure = AtomicMeasure(n=3, atom_probs=tuple(atoms) if exact else np.array(atoms))
    report = verify_measure(measure, profile)
    assert [v[0] for v in report.lemma_violations] == ["normalization"]
    assert report.independence_order == 3
    assert close(report.worst_product_residual, 1e-3, exact=False)


def test_verify_measure_n_mismatch():
    measure = build_measure(from_raw([0.5, 0.5]), 0.0)
    with pytest.raises(ValueError, match="profile has n"):
        verify_measure(measure, from_raw([0.5]))


def test_verification_report_to_dict():
    profile = from_raw([0.4, 0.6])
    doc = verify_measure(build_measure(profile, 0.0), profile).to_dict()
    assert doc["passed"] is True
    assert doc["independence_order"] == 2
    assert len(doc["marginal_residuals"]) == 2
    assert doc["lemma_violations"] == []


def test_verify_kernel_float_and_exact():
    assert verify_kernel(5, 0.3)
    assert verify_kernel(2, 0.0)
    assert verify_kernel(6, Fraction(1, 7))
    assert verify_kernel(1, Fraction(3))


def test_kernel_residual_detects_tampering():
    n, s = 5, 0.3
    pc = popcount_table(n)
    signs = 1.0 - 2.0 * (pc & 1).astype(float)
    offsets = signs * s
    assert kernel_residual(offsets, n) <= 1e-12
    offsets[0] += 1.0  # the empty-set entry now fails every superset sum
    assert kernel_residual(offsets, n) >= 1.0 - 1e-12


def test_kernel_residual_exact():
    n = 4
    pc = popcount_table(n)
    s = Fraction(2, 9)
    offsets = [-s if int(c) & 1 else s for c in pc]
    assert kernel_residual(offsets, n) == 0
    offsets[0] += 1
    assert kernel_residual(offsets, n) == 1


def test_verify_extremal_atoms_known_profiles():
    assert verify_extremal_atoms(from_raw([0.1, 0.2, 0.3, 0.4]))
    assert verify_extremal_atoms(from_raw([0.6, 0.7, 0.8]))
    assert verify_extremal_atoms(from_raw([0.3, 0.3, 0.3]))  # ties
    assert verify_extremal_atoms(from_raw([Fraction(1, 6)] * 5, exact=True))
    assert verify_extremal_atoms(from_raw([0.5]))


def test_scan_sharpness_known_cell():
    profile = from_raw([0.4] * 8)
    scan = scan_sharpness(profile, 5, grid_points=101)
    assert format_scientific(scan.empirical_min) == "1.3926e-01"
    assert format_scientific(scan.empirical_max) == "1.9661e-01"
    iv = s_interval(profile)
    # k = 5 is odd: minimized at s_max, maximized at s_min.
    assert scan.argmin_s == iv.s_max
    assert scan.argmax_s == iv.s_min


def test_scan_sharpness_matches_sharp_bounds_exactly_in_rational_mode():
    profile = from_raw([Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)], exact=True)
    for k in (1, 2, 3):
        scan = scan_sharpness(profile, k, grid_points=9)
        report = sharp_bounds(profile, k)
        assert scan.empirical_min == report.sharp_lower
        assert scan.empirical_max == report.sharp_upper
        assert scan.argmin_s == report.s_at_lower
        assert scan.argmax_s == report.s_at_upper


def test_scan_sharpness_grid_validation():
    with pytest.raises(ValueError, match="grid_points"):
        scan_sharpness(from_raw([0.5, 0.5]), 1, grid_points=1)


def test_random_profiles_deterministic():
    a = random_profiles(10, 6, seed=31)
    b = random_profiles(10, 6, seed=31)
    assert [p.sorted_values for p in a] == [p.sorted_values for p in b]
    assert all(1 <= p.n <= 6 for p in a)
    c = random_profiles(10, 6, seed=32)
    assert [p.sorted_values for p in a] != [p.sorted_values for p in c]


def test_random_profiles_exact_mode():
    profiles = random_profiles(5, 4, seed=5, exact=True)
    for p in profiles:
        assert p.exact
        assert all(isinstance(v, Fraction) for v in p.sorted_values)
        assert all(0 <= v <= 1 for v in p.sorted_values)


def test_check_profile_clean_run():
    check = check_profile(from_raw([0.1, 0.2, 0.3, 0.4]))
    assert check.passed, check.failures
    assert check.measures_checked == 11
    assert check.scanned_ks == (1, 2, 4)
    assert check.tail_match_gap <= 1e-13
    assert check.sharpness_gap <= 1e-13
    doc = check.to_dict()
    assert doc["passed"] is True and doc["failures"] == []


def test_check_profile_exact():
    check = check_profile(from_raw([Fraction(1, 3), Fraction(1, 2)], exact=True))
    assert check.passed
    assert check.tail_match_gap == 0
    assert check.sharpness_gap == 0


@pytest.mark.parametrize("exact", [False, True])
def test_check_profile_validates_inputs_before_building(monkeypatch, exact):
    from nearwise import oracle

    def no_build(*args, **kwargs):
        raise AssertionError("a measure was built before the inputs were checked")

    monkeypatch.setattr(oracle, "build_measure", no_build)
    profile = from_raw([Fraction(1, 2), Fraction(1, 3)], exact=exact)
    for points in (1, 0, -3):
        with pytest.raises(ValueError, match="s_points"):
            check_profile(profile, s_points=points)
    for ks in ([-1], [profile.n + 1], [1, 3]):
        with pytest.raises(ValueError, match="k out of range"):
            check_profile(profile, scan_ks=ks)


def test_check_profile_builds_each_measure_once(monkeypatch):
    from nearwise import bounds, oracle

    calls = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(oracle, "build_measure")
    counting(oracle, "scan_sharpness")
    counting(bounds, "poisson_binomial_pmf")
    counting(bounds, "probability_at_s")
    check = check_profile(from_raw([0.15, 0.3, 0.45, 0.6, 0.75]), s_points=9, scan_ks=[1, 2, 5, 4])
    assert check.passed, check.failures
    assert check.measures_checked == 9
    assert calls == {"build_measure": 9, "poisson_binomial_pmf": 1 + 4}


def test_check_profile_sharpness_extremes_match_scan_sharpness_exact():
    profile = from_raw(
        [Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(5, 6)],
        exact=True,
    )
    check = check_profile(profile, s_points=6, scan_ks=range(profile.n + 1))
    assert check.passed, check.failures
    assert check.sharpness_gap == 0
    for k in range(profile.n + 1):
        scan = scan_sharpness(profile, k, 6)
        report = sharp_bounds(profile, k)
        assert (scan.empirical_min, scan.empirical_max) == (
            report.sharp_lower,
            report.sharp_upper,
        )


def test_run_random_suite_small():
    suite = run_random_suite(count=12, max_n=8, seed=1234)
    assert suite.passed, suite.failures
    assert suite.seed == 1234
    assert suite.measures_checked == 12 * 11
    assert suite.worst_normalization <= 1e-12
    assert suite.worst_marginal <= 1e-12
    assert suite.worst_product <= 1e-12
    assert suite.tail_match_gap <= 1e-12
    assert suite.min_atom_seen >= -1e-15
    doc = suite.to_dict()
    assert doc["passed"] is True and doc["count"] == 12


def test_run_random_suite_small_exact():
    suite = run_random_suite(count=4, max_n=6, seed=77, exact=True)
    assert suite.passed, suite.failures
    assert suite.exact
    assert suite.worst_product == 0
    assert suite.tail_match_gap == 0


def test_enumerated_tails_match_linear_formula_on_a_family():
    """Spot check of the core identity outside the random harness."""
    profile = from_raw([0.2, 0.45, 0.55, 0.9])
    iv = s_interval(profile)
    for s in np.linspace(iv.s_min, iv.s_max, 7):
        measure = build_measure(profile, s)
        for k in range(profile.n + 1):
            assert close(
                enumerate_tail(measure, k),
                probability_at_s(profile, k, s),
                exact=False,
            )


def test_enumerate_tail_agrees_with_dp_at_product_measure():
    profile = from_raw([Fraction(1, 7), Fraction(2, 7), Fraction(5, 7)], exact=True)
    measure = build_measure(profile, 0)
    for k in range(profile.n + 2):
        assert enumerate_tail(measure, k) == tail_probability_dp(profile, k)


def test_exact_mode_scalars_are_fractions():
    """Empty object-array sums hold int 0; every exact result must not."""
    profile = from_raw([Fraction(1, 3), Fraction(2, 7), Fraction(999999, 10**6)], exact=True)
    n = profile.n
    iv = s_interval(profile)
    measure = build_measure(profile, iv.s_max)
    scalars = [
        iv.s_min,
        iv.s_max,
        enumerate_tail(measure, n + 1),
        enumerate_tail(measure, 0),
        tail_probability_dp(profile, n + 1),
        tail_probability_dp(profile, 0),
        measure.total(),
        measure.atom(0),
    ]
    report = verify_measure(measure, profile)
    scalars += [
        report.normalization_residual,
        report.min_atom,
        report.worst_product_residual,
        *report.marginal_residuals,
    ]
    for k in range(n + 1):
        bound = sharp_bounds(profile, k)
        scalars += [bound.exact_mutual, bound.sharp_lower, bound.sharp_upper]
        scalars.append(probability_at_s(profile, k, iv.s_min))
    check = check_profile(profile, s_points=3)
    assert check.passed
    scalars += [
        check.worst_normalization,
        check.worst_marginal,
        check.worst_product,
        check.min_atom_seen,
        check.tail_match_gap,
        check.sharpness_gap,
    ]
    assert enumerate_tail(measure, n + 1) == 0
    for value in scalars:
        assert type(value) is Fraction, value

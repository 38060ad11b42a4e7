"""Unit tests for tail probabilities, sharp bounds, and the classical bounds.

The union/intersection closed forms are implemented from scratch here and
compared against the library — exactly in rational mode, to tolerance in
float — so the delegation inside the library cannot mask an algebra error.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from nearwise import (
    FeasibilityError,
    bonferroni_applicable,
    from_raw,
    intersection_bounds,
    invariant_m,
    invariant_p,
    lll_comparison,
    makarov_bounds,
    poisson_binomial_cdf,
    probability_at_s,
    report_to_dict,
    s_interval,
    sharp_bounds,
    tail_probabilities,
    tail_probability_dp,
    union_bounds,
)
from nearwise import bounds
from nearwise.numeric import close, format_scientific, prefix_atom


def _product(values, one):
    out = one
    for v in values:
        out = out * v
    return out


def test_tail_dp_known_values():
    profile = from_raw([0.1] * 8)
    assert format_scientific(tail_probability_dp(profile, 3)) == "3.8092e-02"
    # the float pmf sums to 1 only up to rounding; rational mode is exact
    assert close(tail_probability_dp(profile, 0), 1.0, exact=False)
    assert tail_probability_dp(profile, 9) == 0.0


def test_tail_dp_exact_small_case():
    profile = from_raw([Fraction(1, 10), Fraction(3, 10)], exact=True)
    assert tail_probability_dp(profile, 1) == Fraction(37, 100)
    assert tail_probability_dp(profile, 2) == Fraction(3, 100)
    assert tail_probability_dp(profile, 0) == 1


def test_tail_dp_k_validation():
    profile = from_raw([0.5, 0.5])
    with pytest.raises(ValueError, match="k out of range"):
        tail_probability_dp(profile, 4)
    with pytest.raises(ValueError, match="k out of range"):
        tail_probability_dp(profile, -1)
    with pytest.raises(ValueError, match="integer"):
        tail_probability_dp(profile, 1.5)


def test_tail_probabilities_matches_per_k_dp():
    profile = from_raw([0.13, 0.44, 0.78, 0.9])
    sweep = tail_probabilities(profile)
    for k in range(profile.n + 1):
        assert math.isclose(sweep[k], tail_probability_dp(profile, k), rel_tol=1e-14)
    exact = from_raw([Fraction(1, 3)] * 3, exact=True)
    assert list(tail_probabilities(exact)) == [
        tail_probability_dp(exact, k) for k in range(4)
    ]


def test_tail_probabilities_nonincreasing():
    sweep = tail_probabilities(from_raw([0.2, 0.5, 0.7, 0.9]))
    assert all(sweep[k] >= sweep[k + 1] for k in range(len(sweep) - 1))
    assert sweep[0] == 1.0


def test_every_tail_route_agrees_bit_for_bit():
    rng = np.random.default_rng(20221103)
    profile = from_raw(rng.random(100).tolist())
    sweep = tail_probabilities(profile)
    for k in range(profile.n + 1):
        mutual = tail_probability_dp(profile, k)
        assert mutual == sharp_bounds(profile, k).exact_mutual == sweep[k]


def test_sharp_bounds_convolves_once_and_reads_the_interval_once(monkeypatch):
    calls = {"poisson_binomial_pmf": 0, "s_interval": 0}

    def counting(name):
        original = getattr(bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bounds, name, counting(name))
    sharp_bounds(from_raw([0.1, 0.3, 0.5, 0.7, 0.9]), 3)
    assert calls == {"poisson_binomial_pmf": 1, "s_interval": 1}


def test_probability_at_s_linear_in_s():
    profile = from_raw([0.3, 0.4, 0.5, 0.6])
    iv = s_interval(profile)
    for k in range(profile.n + 1):
        base = probability_at_s(profile, k, 0.0)
        coeff = math.comb(3, k - 1) if 1 <= k <= 4 else 0
        at_max = probability_at_s(profile, k, iv.s_max)
        expected = base + coeff * iv.s_max * (1 if k % 2 == 0 else -1)
        assert math.isclose(at_max, expected, rel_tol=1e-12, abs_tol=1e-15)


def test_probability_at_s_tiny_upper_tail():
    profile = from_raw([0.1] * 8)
    assert format_scientific(probability_at_s(profile, 7, 9e-8)) == "1.0000e-07"


def test_huge_slope_coefficients_do_not_overflow():
    # C(9999, 4999) cannot convert to float; the endpoints underflow to 0,
    # so all three values collapse onto the product-measure tail
    profile = from_raw([0.5] * 10000)
    report = sharp_bounds(profile, 5000)
    assert report.sharp_lower == report.exact_mutual == report.sharp_upper

    # at n = 60 the slope already exceeds 2^53 while s = 2^-60 is still a
    # normal float: the shift is a visible probability, and the float route
    # must agree with the fully exact one
    floats = from_raw([0.5] * 60)
    exact = from_raw([Fraction(1, 2)] * 60, exact=True)
    for k in (29, 30):
        got = sharp_bounds(floats, k)
        want = sharp_bounds(exact, k)
        assert got.coefficient.bit_length() > 53
        assert math.isclose(got.sharp_lower, float(want.sharp_lower), rel_tol=1e-12)
        assert math.isclose(got.sharp_upper, float(want.sharp_upper), rel_tol=1e-12)
        assert got.sharp_upper - got.sharp_lower > 0.05  # the shift is real


def test_probability_at_s_k_zero_is_one():
    profile = from_raw([0.2, 0.9])
    iv = s_interval(profile)
    assert probability_at_s(profile, 0, iv.s_min) == 1.0
    exact = from_raw([Fraction(1, 4)] * 3, exact=True)
    assert probability_at_s(exact, 0, Fraction(0)) == 1


def test_probability_at_s_validates_s():
    profile = from_raw([0.5, 0.5, 0.5])
    with pytest.raises(FeasibilityError, match="outside the feasible interval"):
        probability_at_s(profile, 1, 0.5)
    exact = from_raw([Fraction(1, 2)] * 3, exact=True)
    with pytest.raises(TypeError, match="exact s"):
        probability_at_s(exact, 1, 0.1)


def test_sharp_bounds_known_cells():
    profile = from_raw([0.3] * 8)
    report = sharp_bounds(profile, 4)
    assert format_scientific(report.sharp_lower) == "1.9181e-01"
    assert format_scientific(report.exact_mutual) == "1.9410e-01"
    assert format_scientific(report.sharp_upper) == "1.9946e-01"


def test_sharp_bounds_envelope_edges():
    profile = from_raw([0.5] * 8)
    report = sharp_bounds(profile, 8)
    assert report.sharp_lower == 0.0
    assert format_scientific(report.sharp_upper) == "7.8125e-03"
    tiny = sharp_bounds(from_raw([0.1] * 8), 7)
    assert format_scientific(tiny.sharp_lower) == "1.0000e-07"
    assert format_scientific(tiny.exact_mutual) == "7.3000e-07"
    assert format_scientific(tiny.sharp_upper) == "8.0000e-07"


def test_sharp_bounds_endpoint_parity():
    profile = from_raw([0.2, 0.4, 0.6, 0.8])
    iv = s_interval(profile)
    odd = sharp_bounds(profile, 3)
    assert odd.s_at_lower == iv.s_max and odd.s_at_upper == iv.s_min
    even = sharp_bounds(profile, 2)
    assert even.s_at_lower == iv.s_min and even.s_at_upper == iv.s_max
    assert even.coefficient == math.comb(3, 1)


def test_sharp_bounds_k_zero():
    report = sharp_bounds(from_raw([0.3, 0.7]), 0)
    assert report.sharp_lower == 1.0 == report.sharp_upper == report.exact_mutual
    assert report.coefficient == 0


def test_sharp_bounds_ordering_and_monotonicity():
    profile = from_raw([0.15, 0.35, 0.55, 0.75, 0.95])
    reports = [sharp_bounds(profile, k) for k in range(profile.n + 1)]
    for r in reports:
        assert r.sharp_lower <= r.exact_mutual + 1e-15
        assert r.exact_mutual <= r.sharp_upper + 1e-15
    for a, b in zip(reports, reports[1:]):
        assert b.sharp_upper <= a.sharp_upper + 1e-15
        assert b.sharp_lower <= a.sharp_lower + 1e-15
        assert b.exact_mutual <= a.exact_mutual + 1e-15


def test_family_stays_inside_sharp_bounds():
    """Grid sweep: every family member lands between the claimed bounds."""
    for values in ([0.3, 0.6, 0.9], [0.1, 0.1, 0.8, 0.8], [0.25] * 6):
        profile = from_raw(values)
        iv = s_interval(profile)
        for k in range(profile.n + 1):
            report = sharp_bounds(profile, k)
            for s in np.linspace(iv.s_min, iv.s_max, 9):
                value = probability_at_s(profile, k, s)
                assert report.sharp_lower - 1e-12 <= value <= report.sharp_upper + 1e-12


def _union_closed_forms(profile):
    a = profile.sorted_values
    p = invariant_p(profile)
    m = invariant_m(profile)
    one = Fraction(1) if profile.exact else 1.0
    t = 2 * p + 1
    lower = one - (
        _product([one - x for x in a[:t]], one) + _product(a[:t], one)
    ) * _product([one - x for x in a[t:]], one)
    u = 2 * m
    upper = one - (
        _product([one - x for x in a[:u]], one) - _product(a[:u], one)
    ) * _product([one - x for x in a[u:]], one)
    return lower, upper


def test_union_bounds_against_closed_forms():
    profile = from_raw([0.2, 0.3, 0.4])
    report = union_bounds(profile)
    assert close(report.sharp_lower, 0.64, exact=False)
    assert close(report.sharp_upper, 0.7, exact=False)
    lower, upper = _union_closed_forms(profile)
    assert close(report.sharp_lower, lower, exact=False)
    assert close(report.sharp_upper, upper, exact=False)


def test_union_bounds_closed_forms_exactly_in_rational_mode():
    profile = from_raw([Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)], exact=True)
    report = union_bounds(profile)
    lower, upper = _union_closed_forms(profile)
    assert report.sharp_lower == lower
    assert report.sharp_upper == upper
    assert report == sharp_bounds(profile, 1)


def _intersection_closed_forms(profile):
    a = profile.sorted_values
    p = invariant_p(profile)
    m = invariant_m(profile)
    one = Fraction(1) if profile.exact else 1.0
    t, u = 2 * p + 1, 2 * m
    if profile.n % 2 == 0:
        lower = _product(a[:u], one) * (
            _product(a[u:], one) - _product([one - x for x in a[u:]], one)
        )
        upper = _product(a[:t], one) * (
            _product(a[t:], one) + _product([one - x for x in a[t:]], one)
        )
    else:
        lower = _product(a[:t], one) * (
            _product(a[t:], one) - _product([one - x for x in a[t:]], one)
        )
        upper = _product(a[:u], one) * (
            _product(a[u:], one) + _product([one - x for x in a[u:]], one)
        )
    return lower, upper


def test_intersection_bounds_against_closed_forms():
    even = from_raw([0.5] * 4)
    report = intersection_bounds(even)
    assert close(report.sharp_lower, 0.0, exact=False)
    assert close(report.sharp_upper, 0.125, exact=False)
    lo, hi = _intersection_closed_forms(even)
    assert close(report.sharp_lower, lo, exact=False)
    assert close(report.sharp_upper, hi, exact=False)

    odd = from_raw([0.5] * 3)
    report = intersection_bounds(odd)
    assert close(report.sharp_upper, 0.25, exact=False)
    lo, hi = _intersection_closed_forms(odd)
    assert close(report.sharp_lower, lo, exact=False)
    assert close(report.sharp_upper, hi, exact=False)


def test_intersection_bounds_exact_and_field_identical():
    profile = from_raw([Fraction(2, 5), Fraction(1, 2), Fraction(7, 10)], exact=True)
    report = intersection_bounds(profile)
    lo, hi = _intersection_closed_forms(profile)
    assert report.sharp_lower == lo
    assert report.sharp_upper == hi
    assert report == sharp_bounds(profile, profile.n)


def test_bonferroni_applicable_cases():
    even = bonferroni_applicable(from_raw([0.1, 0.2, 0.3, 0.4]))
    assert even.kind == "upper-coincides"
    assert close(even.value, 0.7, exact=False)
    assert close(even.value, union_bounds(from_raw([0.1, 0.2, 0.3, 0.4])).sharp_upper, exact=False)

    odd = bonferroni_applicable(from_raw([0.1, 0.1, 0.1]))
    assert odd.kind == "lower-coincides"
    assert close(odd.value, 1 - 0.9**3 - 0.1**3, exact=False)
    assert close(odd.value, union_bounds(from_raw([0.1] * 3)).sharp_lower, exact=False)

    neither = bonferroni_applicable(from_raw([0.1, 0.1, 0.6, 0.6]))
    assert neither.kind == "neither"
    assert neither.value is None

    with pytest.raises(ValueError, match="two events"):
        bonferroni_applicable(from_raw([0.4]))


def test_lll_comparison_uniform_example():
    result = lll_comparison(from_raw([0.1] * 6))
    assert f"{result.sharp_no_bad_event:.5e}" == "5.31440e-01"
    assert f"{result.product_bound:.5e}" == "2.62144e-01"
    assert result.positivity
    assert result.sharp_no_bad_event > result.product_bound


def test_lll_comparison_vacuous_product_bound():
    result = lll_comparison(from_raw([0.6, 0.2]))
    assert result.product_bound < 0
    assert result.sharp_no_bad_event > 0
    assert result.positivity
    with pytest.raises(ValueError, match="two events"):
        lll_comparison(from_raw([0.4]))


def test_poisson_binomial_cdf_values():
    f = poisson_binomial_cdf([0.5])
    assert f(0) == 0.5 and f(1) == 1.0
    assert f(-1) == 0.0 and f(10) == 1.0
    g = poisson_binomial_cdf([0.1] * 7)
    assert close(g(0), 0.4782969, exact=False)
    empty = poisson_binomial_cdf([])
    assert empty(0) == 1.0 and empty(-1) == 0.0
    assert empty.support_max == 0


def test_poisson_binomial_cdf_exact_inference_and_validation():
    f = poisson_binomial_cdf([Fraction(1, 2), Fraction(1, 3)])
    assert f.exact
    assert f(0) == Fraction(1, 3)
    assert f(2) == 1
    with pytest.raises(ValueError, match="index 1"):
        poisson_binomial_cdf([1.5])


def test_poisson_binomial_cdf_monotone_to_one():
    rng = np.random.default_rng(99)
    for _ in range(20):
        vals = rng.random(rng.integers(1, 9)).tolist()
        f = poisson_binomial_cdf(vals)
        seq = [f(j) for j in range(-1, len(vals) + 2)]
        assert all(x <= y + 1e-15 for x, y in zip(seq, seq[1:]))
        assert math.isclose(seq[-1], 1.0, rel_tol=1e-12)


def test_makarov_bounds_printed_forms():
    profile = from_raw([0.1] * 8)
    mk = makarov_bounds(profile, 1)
    assert mk.upper == 1.0
    assert close(mk.lower, 0.4217031, exact=False)
    zero = makarov_bounds(profile, 0)
    assert zero.lower == zero.upper == zero.conv_lower == zero.conv_upper == 1.0


def test_makarov_variants_differ_when_largest_marginal_exceeds_half():
    profile = from_raw([0.9, 0.95])
    mk = makarov_bounds(profile, 2)
    sharp = sharp_bounds(profile, 2)
    # The printed upper form drops below the true value here...
    assert mk.upper < sharp.sharp_lower
    assert mk.variants_differ
    # ...while the two-marginal convolution form stays valid and tight.
    assert close(mk.conv_upper, 0.9, exact=False)
    assert sharp.sharp_upper <= mk.conv_upper + 1e-12
    assert mk.conv_lower <= sharp.sharp_lower + 1e-12


def test_makarov_envelope_small_marginals():
    profile = from_raw([0.05, 0.2, 0.35, 0.5])
    for k in range(profile.n + 1):
        mk = makarov_bounds(profile, k)
        sharp = sharp_bounds(profile, k)
        assert mk.lower <= sharp.sharp_lower + 1e-12
        assert sharp.sharp_upper <= mk.upper + 1e-12
        assert mk.conv_lower <= sharp.sharp_lower + 1e-12
        assert sharp.sharp_upper <= mk.conv_upper + 1e-12


def test_makarov_exact_mode():
    profile = from_raw([Fraction(1, 4), Fraction(1, 2)], exact=True)
    mk = makarov_bounds(profile, 2)
    assert isinstance(mk.lower, Fraction) and isinstance(mk.conv_upper, Fraction)
    sharp = sharp_bounds(profile, 2)
    assert mk.conv_lower <= sharp.sharp_lower
    assert sharp.sharp_upper <= mk.conv_upper


def test_makarov_lower_never_exceeds_convolution_lower():
    rng = np.random.default_rng(7)
    for _ in range(25):
        values = rng.random(rng.integers(2, 9)).tolist()
        profile = from_raw(values)
        for k in range(1, profile.n + 1):
            mk = makarov_bounds(profile, k)
            assert mk.lower <= mk.conv_lower + 1e-12


def test_report_to_dict_schema():
    report = sharp_bounds(from_raw([0.2, 0.3]), 1)
    doc = report_to_dict(report)
    assert list(doc) == [
        "k", "exact", "lower", "upper", "s_at_lower", "s_at_upper", "coefficient",
    ]
    assert doc["k"] == 1 and doc["coefficient"] == 1
    assert isinstance(doc["lower"], float)


def test_prefix_atom_consistency_with_interval():
    """Endpoints are signed prefix atoms of the sorted profile."""
    profile = from_raw([0.15, 0.25, 0.6, 0.85])
    iv = s_interval(profile)
    a = profile.sorted_values
    assert iv.s_max == prefix_atom(a, 2 * iv.p + 1)
    assert iv.s_min == -prefix_atom(a, 2 * iv.m)


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_probability_at_s_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match="s must be finite"):
        probability_at_s(from_raw([0.5, 0.5]), 1, s)


def test_makarov_single_event_exact_stays_exact():
    # n = 1 hands an empty vector to the CDF; it must stay exact
    profile = from_raw([Fraction(1, 3)], exact=True)
    for k in (0, 1):
        mk = makarov_bounds(profile, k)
        for value in (mk.lower, mk.upper, mk.conv_lower, mk.conv_upper):
            assert type(value) is Fraction
    exact, floating = makarov_bounds(profile, 1), makarov_bounds(from_raw([1 / 3]), 1)
    for field in ("lower", "upper", "conv_lower", "conv_upper"):
        assert float(getattr(exact, field)) == pytest.approx(getattr(floating, field))
    empty = poisson_binomial_cdf([], exact=True)
    assert empty.values == (1,) and type(empty.values[0]) is Fraction
    assert type(empty(-1)) is Fraction and type(empty(3)) is Fraction


def test_lll_product_bound_multiplies_left_to_right():
    values = [0.11, 0.23, 0.37, 0.41]
    expected = 1.0
    for a in values:
        expected = expected * (1.0 - 2 * a)
    assert lll_comparison(from_raw(values)).product_bound == expected

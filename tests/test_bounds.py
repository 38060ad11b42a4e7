"""Unit tests for tail probabilities, sharp bounds, and the classical bounds.

The union/intersection closed forms are implemented from scratch here and
compared against the library — exactly in rational mode, to tolerance in
float — so the delegation inside the library cannot mask an algebra error.
"""

import copy
import dataclasses
import itertools
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest

from nearwise import (
    BoundReport,
    FeasibilityError,
    bonferroni_applicable,
    bound_reports,
    build_measure,
    check_profile,
    from_raw,
    lll_comparison,
    makarov_bounds,
    probability_at_s,
    report_to_dict,
    s_interval,
    sharp_bounds,
    tail_probabilities,
)
from nearwise import bounds, cli, measures, numeric
from nearwise.numeric import close, format_scientific, prefix_atom


def _product(values, one):
    out = one
    for v in values:
        out = out * v
    return out


def test_tail_dp_known_values():
    profile = from_raw([0.1] * 8)
    assert format_scientific(sharp_bounds(profile, 3).exact_mutual) == "3.8092e-02"
    # the float pmf sums to 1 only up to rounding, but the tail at 0 is the scale
    assert sharp_bounds(profile, 0).exact_mutual == 1.0
    assert math.isclose(sharp_bounds(profile, 8).exact_mutual, 0.1**8, rel_tol=1e-14)


def test_tail_dp_exact_small_case():
    profile = from_raw([Fraction(1, 10), Fraction(3, 10)], exact=True)
    assert sharp_bounds(profile, 1).exact_mutual == Fraction(37, 100)
    assert sharp_bounds(profile, 2).exact_mutual == Fraction(3, 100)
    assert sharp_bounds(profile, 0).exact_mutual == 1


def test_tail_dp_k_validation():
    profile = from_raw([0.5, 0.5])
    for k in (3, 4, -1):
        with pytest.raises(ValueError, match="k out of range"):
            sharp_bounds(profile, k)
    with pytest.raises(ValueError, match="integer"):
        sharp_bounds(profile, 1.5)


def test_tail_probabilities_matches_per_k_dp():
    profile = from_raw([0.13, 0.44, 0.78, 0.9])
    sweep = tail_probabilities(profile)
    for k in range(profile.n + 1):
        assert math.isclose(sweep[k], sharp_bounds(profile, k).exact_mutual, rel_tol=1e-14)
    exact = from_raw([Fraction(1, 3)] * 3, exact=True)
    assert list(tail_probabilities(exact)) == [
        sharp_bounds(exact, k).exact_mutual for k in range(4)
    ]


def test_tail_probabilities_nonincreasing():
    sweep = tail_probabilities(from_raw([0.2, 0.5, 0.7, 0.9]))
    assert all(sweep[k] >= sweep[k + 1] for k in range(len(sweep) - 1))
    assert sweep[0] == 1.0


def test_every_tail_route_agrees_bit_for_bit():
    rng = np.random.default_rng(20221103)
    profile = from_raw(rng.random(100).tolist())
    sweep = tail_probabilities(profile)
    reports = bound_reports(profile, range(profile.n + 1))
    for k in range(profile.n + 1):
        mutual = sharp_bounds(profile, k).exact_mutual
        assert mutual == reports[k].exact_mutual == sweep[k]


def test_sharp_bounds_convolves_once_and_reads_the_interval_once(monkeypatch):
    """A float profile convolves once, however many ``sharp_bounds``,
    ``bound_reports`` and ``probability_at_s`` calls read it; an exact profile
    convolves once per call.  Every call reads the slope once, and every
    bound call the interval once."""
    calls = {"poisson_binomial_pmf": 0, "s_interval": 0, "binom_or_zero": 0}

    def counting(name):
        original = getattr(bounds, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def counted(read):
        calls.update(dict.fromkeys(calls, 0))
        read()
        return list(calls.values())

    for name in calls:
        monkeypatch.setattr(bounds, name, counting(name))
    values = [0.1, 0.3, 0.5, 0.7, 0.9]
    profile = from_raw(values)
    assert counted(lambda: sharp_bounds(profile, 3)) == [1, 1, 1]
    # the tails stay on the profile, whatever the number of k
    for ks in (range(1, 4), range(0, 6)):
        assert counted(lambda: bound_reports(profile, ks)) == [0, 1, 1]
    assert counted(lambda: [sharp_bounds(profile, k) for k in range(6)]) == [0, 6, 6]
    assert counted(lambda: [probability_at_s(profile, k, 0.0) for k in range(6)]) == [0, 0, 6]

    def mixed(p, s):
        probability_at_s(p, 2, s)
        bound_reports(p, range(0, 6))
        sharp_bounds(p, 4)

    assert counted(lambda: mixed(from_raw(values), 0.0)) == [1, 2, 3]
    exact = from_raw([Fraction(v).limit_denominator(10) for v in values], exact=True)
    assert counted(lambda: mixed(exact, Fraction(0))) == [3, 2, 3]
    assert counted(lambda: [sharp_bounds(exact, k) for k in range(6)]) == [6, 6, 6]


def test_an_exact_per_k_loop_builds_the_kernel_operands_once(monkeypatch):
    """An exact loop of n + 1 ``sharp_bounds`` calls convolves n + 1 times
    from one set of operands: one builder call and one ``ratio`` per event."""
    counts = {"build": 0, "ratio": 0}
    build, read = measures._pmf_operands, numeric.ratio

    def counted_build(values):
        counts["build"] += 1
        return build(values)

    def counted_ratio(a):
        counts["ratio"] += 1
        return read(a)

    monkeypatch.setattr(measures, "_pmf_operands", counted_build)
    monkeypatch.setattr(numeric, "ratio", counted_ratio)
    rng = random.Random(29)
    for n in (1, 12, 40):
        profile = from_raw([Fraction(rng.randint(0, 10**6), 10**6) for _ in range(n)], exact=True)
        s_interval(profile)  # its prefix atoms read each value on their own
        counts.update(build=0, ratio=0)
        per_k = [sharp_bounds(profile, k) for k in range(n + 1)]
        assert counts == {"build": 1, "ratio": n}
        assert per_k == bound_reports(profile, range(n + 1))


def test_a_float_profile_keeps_tails_and_no_operands():
    rng = random.Random(10_000)
    profile = from_raw([rng.uniform(0.0, 0.5) for _ in range(10_000)])
    bound_reports(profile, range(profile.n + 1))
    assert "_law" in profile.__dict__
    assert "_kept_operands" not in profile.__dict__
    assert measures.table_scale(profile) == 1
    assert not any(isinstance(v, list) for v in profile.__dict__.values())


def test_equal_float_and_exact_profiles_keep_their_own_kernel_entries():
    floating = from_raw([0.5, 0.25, 0.75])
    exact = from_raw([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)], exact=True)
    assert floating == exact and hash(floating) == hash(exact)
    # the float profile first: an equality-keyed cache would hand its entries on
    float_reports = bound_reports(floating, range(4))
    exact_reports = bound_reports(exact, range(4))
    tails, scale, head, head_scale = floating.__dict__["_law"]
    assert tails.dtype == head.dtype == np.float64 and scale == head_scale == 1
    assert "_kept_operands" not in floating.__dict__
    pairs, exact_scale = exact.__dict__["_kept_operands"]
    assert "_law" not in exact.__dict__
    assert exact_scale == measures.table_scale(exact) == 2 * 4 * 4
    assert [(p.shape, p.dtype, q.shape, q.dtype) for p, q in pairs] == [((), object, (), object)] * 3
    assert [(p.item(), q.item()) for p, q in pairs] == [(1, 3), (1, 1), (3, 1)]
    assert all(type(r.sharp_lower) is float for r in float_reports)
    assert all(type(r.sharp_lower) is Fraction for r in exact_reports)


#: n = 1, 0/1 marginals, and the sizes at the edge of a kernel window.
_KEPT_CASES = [
    [Fraction(3, 7)],
    [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(1), Fraction(0), Fraction(2, 5)],
    [Fraction(1)] * 4,
    [Fraction(0)] * 3,
] + [
    [Fraction(random.Random(n).randint(0, 10**6), 10**6) for _ in range(n)]
    for n in (numeric._WINDOW - 1, numeric._WINDOW, numeric._WINDOW + 1)
]


@pytest.mark.parametrize("values", _KEPT_CASES, ids=lambda v: f"n={len(v)}")
def test_kept_operands_give_the_tails_of_a_fresh_convolution(values):
    """The record's tails, convolved from the kept operands, equal those of
    a fresh one-argument ``poisson_binomial_pmf`` at every k >= 1, and its
    mass vector that of the n - 1 smallest events, integers and float bits
    alike; its tail at 0 is the scale itself.  A float profile keeps the
    record, read-only; an exact one keeps none."""
    for exact in (True, False):
        profile = from_raw(values if exact else [float(v) for v in values], exact=exact)
        pmf, scale = numeric.poisson_binomial_pmf(profile.sorted_values)
        want = numeric.suffix_sums(pmf)
        want_head, want_head_scale = numeric.poisson_binomial_pmf(profile.sorted_values[:-1])
        for _ in range(2):  # the first call builds what the second reads
            got, got_scale, head, head_scale = bounds._law(profile)
            assert got_scale == scale and got.dtype == head.dtype == want.dtype
            assert got.tolist()[1:] == want.tolist()[1:]
            assert got.item(0) == scale and type(got.item(0)) is type(want.item(0))
            assert head_scale == want_head_scale and head.tolist() == want_head.tolist()
            if not exact:
                assert np.array_equal(np.signbit(got), np.signbit(want))
                assert np.array_equal(np.signbit(head), np.signbit(want_head))
                assert not got.flags.writeable and not head.flags.writeable
        assert ("_kept_operands" in profile.__dict__) is exact
        assert ("_law" in profile.__dict__) is not exact


def test_writing_into_tail_probabilities_leaves_the_bounds_unchanged():
    for exact in (False, True):
        profile = from_raw([Fraction(1, 10), Fraction(1, 4), Fraction(3, 5)], exact=exact)
        before = sharp_bounds(profile, 2)
        tails = tail_probabilities(profile)
        want = list(tails)
        tails[:] = 0
        assert sharp_bounds(profile, 2) == before
        assert list(tail_probabilities(profile)) == want
    cached, _, head, _ = bounds._law(from_raw([0.1, 0.4]))
    for kept in (cached, head):
        with pytest.raises(ValueError, match="read-only"):
            kept[1] = 0.0


def _sweep_profiles():
    """The three float families of the benchmark sweep at n = 32, 64 and 128,
    one float profile at n = 1,000, then seeded exact profiles with n <= 40."""
    for low, high in ((0.0, 0.5), (0.0, 1.0), (0.45, 0.55)):
        for n in (32, 64, 128):
            rng = random.Random(n)
            yield from_raw([rng.uniform(low, high) for _ in range(n)])
    rng = random.Random(1000)
    yield from_raw([rng.uniform(0.0, 0.5) for _ in range(1000)])
    rng = random.Random(4017)
    for _ in range(40):
        n = rng.randint(1, 40)
        yield from_raw([Fraction(rng.randint(0, 10**6), 10**6) for _ in range(n)], exact=True)


def _bits(report):
    """Every field of a report, floats by their bits."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(report)]


def test_bound_reports_equal_sharp_bounds_at_every_k():
    """The running slope C(n-1, k) = C(n-1, k-1) (n-k) / k and the one mass
    vector give every field of the one-k route, floats by their bits, in
    both modes: a per-k loop, which on a float profile reads the tails kept
    there, against one sweep of a fresh profile."""
    for profile in _sweep_profiles():
        n = profile.n
        per_k = [sharp_bounds(profile, k) for k in range(0, n + 1)]
        reports = bound_reports(from_raw(profile.sorted_values), range(0, n + 1))
        assert list(map(_bits, reports)) == list(map(_bits, per_k)), n
        assert bound_reports(profile, range(n // 3, n)) == reports[n // 3 : n]


def test_per_k_loops_in_any_order_equal_bound_reports():
    """Per-k calls in every order, repeats and calls interleaved across two
    profiles included, give every field of the sweep, floats by their bits,
    in both modes and at k = 0 and k = n."""
    rng = random.Random(24)
    profiles = [p for p in _sweep_profiles() if p.n <= 128][:19]
    assert {p.exact for p in profiles} == {False, True}
    for profile, other in zip(profiles, profiles[1:] + profiles[:1]):
        n = profile.n
        reports = bound_reports(from_raw(profile.sorted_values), range(n + 1))
        want = list(map(_bits, reports))
        other_want = list(map(_bits, bound_reports(other, range(other.n + 1))))
        ks = list(range(n + 1))
        repeated = [k for k in ks for _ in range(2)] + [n // 2] * 3 + [0, n, 0]
        for order in (ks, ks[::-1], rng.sample(ks, len(ks)), repeated):
            assert [_bits(sharp_bounds(profile, k)) for k in order] == [want[k] for k in order]
        for k, j in zip(ks, itertools.cycle(range(other.n, -1, -1))):
            assert _bits(sharp_bounds(profile, k)) == want[k]
            assert _bits(sharp_bounds(other, j)) == other_want[j]
        for k in rng.sample(ks, len(ks)):
            r = reports[k]
            at_ends = dataclasses.replace(
                r,
                sharp_lower=probability_at_s(profile, k, r.s_at_lower),
                sharp_upper=probability_at_s(profile, k, r.s_at_upper),
            )
            assert _bits(at_ends) == want[k], k


def test_bound_reports_empty_range():
    profile = from_raw([0.2, 0.5, 0.7])
    assert bound_reports(profile, range(0)) == []
    assert bound_reports(profile, range(2, 2)) == []


@pytest.mark.parametrize("ks", [range(-1, 2), range(0, 5), range(4, 5), range(-3, -2)])
def test_bound_reports_rejects_a_range_past_0_or_n(ks):
    profile = from_raw([0.2, 0.5, 0.7])
    k = ks[0] if ks[0] < 0 else ks[-1]
    message = f"k out of range: expected 0 <= k <= 3 for n = 3, got {k}$"
    with pytest.raises(ValueError, match=message):
        bound_reports(profile, ks)
    with pytest.raises(ValueError, match=message):
        sharp_bounds(profile, k)


def test_bound_reports_rejects_a_stepped_range():
    with pytest.raises(ValueError, match="consecutive"):
        bound_reports(from_raw([0.2, 0.5, 0.7]), range(0, 4, 2))


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
    # C(9999, 4999) cannot convert to float, and the endpoints +-2^-10000 lie
    # far below the least double; their product is still a visible shift of
    # the product-measure tail, rounded once
    profile = from_raw([0.5] * 10000)
    report = sharp_bounds(profile, 5000)
    shift = float(Fraction(report.coefficient, 2**10000))
    assert report.s_at_upper == -report.s_at_lower == Fraction(1, 2**10000)
    assert report.sharp_lower < report.exact_mutual < report.sharp_upper
    assert report.sharp_lower == report.exact_mutual - shift
    assert report.sharp_upper == report.exact_mutual + shift

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
    # the check build_measure makes, with the violated endpoint named
    with pytest.raises(FeasibilityError, match=r"violates s_min = -0\.125$"):
        probability_at_s(profile, 1, -0.5)
    exact = from_raw([Fraction(1, 2)] * 3, exact=True)
    with pytest.raises(FeasibilityError, match=r"violates s_max = 1/8$"):
        probability_at_s(exact, 1, Fraction(1, 8) + Fraction(1, 10**30))
    with pytest.raises(TypeError, match="exact s"):
        probability_at_s(exact, 1, 0.1)


def test_probability_at_s_refuses_s_far_outside_a_narrow_interval():
    """The interval of twelve 0.01s ends at 9.9e-23, and the sharp upper
    bound at k = 11 is 1.2e-21: at s = 5e-13 the tail would be -5.5e-12."""
    profile = from_raw([0.01] * 12)
    with pytest.raises(FeasibilityError, match="violates s_max"):
        probability_at_s(profile, 11, 5e-13)


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
    """P(at least 0 occur) is exactly 1 in every report and tail vector, in
    float mode too, where the sum of the mass vector may miss 1 in its last
    bits (it reads 1.0000000000000002 for seven events at 0.1234567)."""
    rng = random.Random(3200)
    raws = [[0.3, 0.7], [0.1234567] * 7]
    raws += [[rng.random() for _ in range(rng.randint(2, 1000))] for _ in range(20)]
    missed = 0
    for raw in raws:
        pmf, _ = numeric.poisson_binomial_pmf(raw)
        missed += numeric.suffix_sums(pmf)[0] != 1.0
        profile = from_raw(raw)
        assert report_to_dict(sharp_bounds(profile, 0))["exact"] == 1.0
        report = sharp_bounds(profile, 0)
        assert report.sharp_lower == 1.0 == report.sharp_upper == report.exact_mutual
        assert report.coefficient == 0
        assert tail_probabilities(profile)[0] == 1.0
        assert bound_reports(profile, range(2))[0] == report
        assert probability_at_s(profile, 0, s_interval(profile).s_max) == 1.0
    assert missed >= 2


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
    iv = s_interval(profile)
    p, m = iv.p, iv.m
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
    report = sharp_bounds(profile, 1)
    assert close(report.sharp_lower, 0.64, exact=False)
    assert close(report.sharp_upper, 0.7, exact=False)
    lower, upper = _union_closed_forms(profile)
    assert close(report.sharp_lower, lower, exact=False)
    assert close(report.sharp_upper, upper, exact=False)


def test_union_bounds_closed_forms_exactly_in_rational_mode():
    profile = from_raw([Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)], exact=True)
    report = sharp_bounds(profile, 1)
    lower, upper = _union_closed_forms(profile)
    assert report.sharp_lower == lower
    assert report.sharp_upper == upper
    assert report == bound_reports(profile, range(profile.n + 1))[1]


def _intersection_closed_forms(profile):
    a = profile.sorted_values
    iv = s_interval(profile)
    p, m = iv.p, iv.m
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
    report = sharp_bounds(even, even.n)
    assert close(report.sharp_lower, 0.0, exact=False)
    assert close(report.sharp_upper, 0.125, exact=False)
    lo, hi = _intersection_closed_forms(even)
    assert close(report.sharp_lower, lo, exact=False)
    assert close(report.sharp_upper, hi, exact=False)

    odd = from_raw([0.5] * 3)
    report = sharp_bounds(odd, odd.n)
    assert close(report.sharp_upper, 0.25, exact=False)
    lo, hi = _intersection_closed_forms(odd)
    assert close(report.sharp_lower, lo, exact=False)
    assert close(report.sharp_upper, hi, exact=False)


def test_intersection_bounds_exact_and_field_identical():
    profile = from_raw([Fraction(2, 5), Fraction(1, 2), Fraction(7, 10)], exact=True)
    report = sharp_bounds(profile, profile.n)
    lo, hi = _intersection_closed_forms(profile)
    assert report.sharp_lower == lo
    assert report.sharp_upper == hi
    assert report == bound_reports(profile, range(profile.n + 1))[profile.n]


def test_bonferroni_applicable_cases():
    even = bonferroni_applicable(from_raw([0.1, 0.2, 0.3, 0.4]))
    assert even.kind == "upper-coincides"
    assert close(even.value, 0.7, exact=False)
    union = sharp_bounds(from_raw([0.1, 0.2, 0.3, 0.4]), 1)
    assert close(even.value, union.sharp_upper, exact=False)

    odd = bonferroni_applicable(from_raw([0.1, 0.1, 0.1]))
    assert odd.kind == "lower-coincides"
    assert close(odd.value, 1 - 0.9**3 - 0.1**3, exact=False)
    assert close(odd.value, sharp_bounds(from_raw([0.1] * 3), 1).sharp_lower, exact=False)

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


def test_makarov_bounds_small_marginals():
    # X ~ Bin(7, 0.1): lower = P(X >= 1), upper = P(X >= 1) + min(P(X = 0), 0.1)
    profile = from_raw([0.1] * 8)
    mk = makarov_bounds(profile, 1)
    assert close(mk.lower, 1 - 0.9**7, exact=False)
    assert close(mk.upper, 1 - 0.9**7 + 0.1, exact=False)
    zero = makarov_bounds(profile, 0)
    assert zero.lower == zero.upper == 1.0


def test_makarov_bounds_when_largest_marginal_exceeds_half():
    profile = from_raw([0.9, 0.95])
    mk = makarov_bounds(profile, 2)
    sharp = sharp_bounds(profile, 2)
    # 1 - 0.95 is exact (Sterbenz), so the Fréchet term rounds once
    assert mk.lower == sharp.sharp_lower == 0.85
    assert close(mk.upper, 0.9, exact=False)
    assert sharp.sharp_upper <= mk.upper + 1e-12


def test_makarov_envelope_small_marginals():
    profile = from_raw([0.05, 0.2, 0.35, 0.5])
    for k in range(profile.n + 1):
        mk = makarov_bounds(profile, k)
        sharp = sharp_bounds(profile, k)
        assert mk.lower <= sharp.sharp_lower + 1e-12
        assert sharp.sharp_upper <= mk.upper + 1e-12


def test_makarov_exact_mode():
    profile = from_raw([Fraction(1, 4), Fraction(1, 2)], exact=True)
    mk = makarov_bounds(profile, 2)
    assert isinstance(mk.lower, Fraction) and isinstance(mk.upper, Fraction)
    sharp = sharp_bounds(profile, 2)
    assert mk.lower <= sharp.sharp_lower
    assert sharp.sharp_upper <= mk.upper


def test_makarov_bounds_are_the_frechet_pair(frechet_pair):
    """Exact, at every k: the pair equals Makarov's two-marginal bounds and
    brackets the sharp bounds, also when the largest marginal is above 1/2."""
    rng = random.Random(2211)
    above_half = 0
    for _ in range(200):
        values = [Fraction(rng.randint(0, 1000), 1000) for _ in range(rng.randint(1, 9))]
        profile = from_raw(values, exact=True)
        above_half += max(values) > Fraction(1, 2)
        for k in range(profile.n + 1):
            mk, sharp = makarov_bounds(profile, k), sharp_bounds(profile, k)
            assert (mk.lower, mk.upper) == frechet_pair(values, k), (values, k)
            assert mk.lower <= sharp.sharp_lower, (values, k)
            assert sharp.sharp_upper <= mk.upper, (values, k)
    assert above_half >= 100


def test_table_levels_equal_makarov_bounds_and_bound_reports_at_every_k(monkeypatch, capsys):
    """Each ``table`` level gives every k's five cells with the bits of a
    ``makarov_bounds`` call and of ``bound_reports`` at that k, in both
    modes, from one kernel call per level."""
    rng = random.Random(1612)
    profiles = [from_raw([rng.random() for _ in range(200)])]
    for _ in range(30):
        values = [Fraction(rng.randint(0, 1000), 1000) for _ in range(rng.randint(1, 12))]
        profiles += [from_raw(values, exact=True), from_raw([float(v) for v in values])]
    pmf_calls, cells = [], []
    convolve, render = bounds.poisson_binomial_pmf, cli.format_scaled

    def counted(values, operands=None):
        pmf_calls.append(len(values))
        return convolve(values, operands)

    def recorded(num, scale, *args):
        cells.append(numeric.over(num, scale))
        return render(num, scale, *args)

    monkeypatch.setattr(bounds, "poisson_binomial_pmf", counted)
    monkeypatch.setattr(cli, "format_scaled", recorded)
    for profile in profiles:
        n = profile.n
        makarov = [makarov_bounds(profile, k) for k in range(n + 1)]
        reports = bound_reports(profile, range(n + 1))
        want = [
            [m.lower, r.sharp_lower, r.exact_mutual, r.sharp_upper, m.upper]
            for m, r in zip(makarov, reports)
        ]
        # every level of a table is a fresh copy of this profile, under its
        # own label, as a float profile keeps its record once convolved
        monkeypatch.setattr(
            cli, "_level_profile",
            lambda label, n, profile=profile: from_raw(profile.sorted_values, exact=profile.exact),
        )
        ranges = [(0, n + 1), (1, n), (n // 2, n // 2 + 1), (n, n + 1)]
        for lo, hi in [(lo, hi) for lo, hi in ranges if lo < hi]:
            for levels in ("a", "a,b"):
                pmf_calls.clear()
                cells.clear()
                argv = ["--n", str(n), "--levels", levels, "--k-range", str(lo), str(hi - 1)]
                assert cli.main(["table", *argv, "--format", "csv"]) == 0
                assert len(pmf_calls) == levels.count(",") + 1
                # CSV rows run by level, then kind, then k
                got = [cells[i : i + hi - lo] for i in range(0, len(cells), hi - lo)]
                per_level = [list(row) for row in zip(*want[lo:hi])]
                assert list(map(_cell_bits, got)) == list(map(_cell_bits, per_level * len(pmf_calls)))
        capsys.readouterr()
        _, _, head, head_scale = bounds._law(profile)
        assert bounds._makarov_numerators(profile, range(3, 3), head, head_scale) == ([], [])
        for ks in (range(-1, 1), range(0, n + 2)):
            with pytest.raises(ValueError, match="k out of range"):
                bounds._makarov_numerators(profile, ks, head, head_scale)
        with pytest.raises(ValueError, match="consecutive"):
            bounds._makarov_numerators(profile, range(0, n + 1, 2), head, head_scale)


def test_a_per_k_makarov_loop_reads_the_kept_record(monkeypatch):
    """A float per-k ``makarov_bounds`` loop makes one kernel call in all, as
    a ``sharp_bounds`` loop does, from the record they share, with the bits
    of a fresh profile's call; an exact profile convolves once per call."""
    calls = []
    convolve = bounds.poisson_binomial_pmf

    def counted(values, operands=None):
        calls.append(len(values))
        return convolve(values, operands)

    monkeypatch.setattr(bounds, "poisson_binomial_pmf", counted)
    rng = random.Random(3201)
    raw = [rng.random() for _ in range(400)]
    profile = from_raw(raw)
    pairs = [makarov_bounds(profile, k) for k in range(profile.n + 1)]
    sharp_bounds(profile, 7)
    assert len(calls) == 1
    for k in (0, 1, 200, 399, 400):
        fresh = makarov_bounds(from_raw(raw), k)
        assert (pairs[k].lower.hex(), pairs[k].upper.hex()) == (fresh.lower.hex(), fresh.upper.hex())
    exact = from_raw([Fraction(v).limit_denominator(1000) for v in raw[:12]], exact=True)
    calls.clear()
    for k in range(exact.n + 1):
        makarov_bounds(exact, k)
    assert len(calls) == exact.n + 1


def _cell_bits(values):
    """Floats by their bits, the rest as they are."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("values", _KEPT_CASES, ids=lambda v: f"n={len(v)}")
def test_exact_makarov_pairs_are_the_frechet_pair_with_no_fraction_on_the_table_route(
    values, frechet_pair, monkeypatch
):
    """At every k, at n = 1, at the kernel window's edges and on 0/1
    marginals (``a_n = 1`` makes ``d - c`` zero, ``a_n = 0`` makes ``c``
    zero), exact ``makarov_bounds`` and ``table``'s numerators over their
    scale give the Fréchet pair, and ``table``'s route reaches no
    ``math.gcd``, so it forms no ``Fraction``."""
    profile = from_raw(values, exact=True)
    n = profile.n
    want = [frechet_pair(values, k) for k in range(n + 1)]
    pairs = [makarov_bounds(profile, k) for k in range(n + 1)]
    assert [(m.lower, m.upper) for m in pairs] == want
    gcd_calls = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda *args: gcd_calls.append(args) or gcd(*args))
    _, scale, head, head_scale = bounds._law(profile)
    lower, upper = bounds._makarov_numerators(profile, range(n + 1), head, head_scale)
    assert gcd_calls == []
    assert Fraction(1, 2) + Fraction(1, 3) and gcd_calls  # the counter sees a Fraction formed
    assert [(Fraction(lo, scale), Fraction(hi, scale)) for lo, hi in zip(lower, upper)] == want


def test_table_builds_no_makarov_bounds(monkeypatch, capsys):
    """``table`` prints its Makarov rows from numerators: no record is built."""

    def refused(*args, **kwargs):
        raise AssertionError("MakarovBounds built on the table route")

    monkeypatch.setattr(bounds, "MakarovBounds", refused)
    for level in ("1/3", "0.1234567"):  # an exact level and a float one
        assert cli.main(["table", "--n", "40", "--levels", level, "--k-range", "0", "40"]) == 0
    with pytest.raises(AssertionError, match="table route"):
        makarov_bounds(from_raw([0.2, 0.3]), 1)


def _dual_cells(values, ks, exact):
    """For each k: (the bound report at k, that of the complement profile at
    n - k + 1), with the two intervals."""
    n = len(values)
    profile, dual = from_raw(values, exact=exact), from_raw([1 - v for v in values], exact=exact)
    pairs = [(sharp_bounds(profile, k), sharp_bounds(dual, n - k + 1)) for k in ks]
    return s_interval(profile), s_interval(dual), pairs


def test_complement_duality_exact():
    """Complements of (n-1)-wise independent events are (n-1)-wise
    independent, with s' = (-1)^n s: the interval maps onto itself, ends
    swapped and negated at odd n, and P(at least k) onto 1 - P(at least
    n - k + 1) of the complements, exactly at any n."""
    rng = random.Random(1596)
    cells = 0
    for _ in range(100):
        n = rng.randint(1, 40)
        values = [Fraction(rng.randint(0, 1000), 1000) for _ in range(n)]
        iv, dual_iv, pairs = _dual_cells(values, range(1, n + 1), exact=True)
        expected = (iv.s_min, iv.s_max) if n % 2 == 0 else (-iv.s_max, -iv.s_min)
        assert (dual_iv.s_min, dual_iv.s_max) == expected, values
        for rep, dual in pairs:
            assert rep.sharp_lower == 1 - dual.sharp_upper, (values, rep.k)
            assert rep.sharp_upper == 1 - dual.sharp_lower, (values, rep.k)
            assert rep.exact_mutual == 1 - dual.exact_mutual, (values, rep.k)
            cells += 1
    assert cells > 1500


def test_complement_duality_float_at_n_1000():
    rng = random.Random(1000)
    values = [rng.random() for _ in range(1000)]
    _, _, pairs = _dual_cells(values, (1, 2, 500, 999, 1000), exact=False)
    for rep, dual in pairs:
        assert abs(rep.sharp_lower - (1 - dual.sharp_upper)) <= 1e-12, rep.k
        assert abs(rep.sharp_upper - (1 - dual.sharp_lower)) <= 1e-12, rep.k
        assert abs(rep.exact_mutual - (1 - dual.exact_mutual)) <= 1e-12, rep.k


def test_report_to_dict_schema():
    report = sharp_bounds(from_raw([0.2, 0.3]), 1)
    doc = report_to_dict(report)
    assert list(doc) == [
        "k", "exact", "lower", "upper", "s_at_lower", "s_at_upper", "coefficient",
    ]
    assert doc["k"] == 1 and doc["coefficient"] == 1
    assert isinstance(doc["lower"], float)


@pytest.mark.parametrize("exact", [False, True])
def test_bound_report_is_still_a_frozen_dataclass(exact):
    """A report built on numerators, once read, is the record that the
    generated ``__init__`` builds from its seven values."""
    report = sharp_bounds(from_raw([0.1, 0.2, 0.3, 0.4], exact=exact), 2)
    names = [field.name for field in dataclasses.fields(BoundReport)]
    assert names == [
        "k", "exact_mutual", "sharp_lower", "sharp_upper", "s_at_lower", "s_at_upper", "coefficient"
    ]
    fields = {name: getattr(report, name) for name in names}
    assert vars(report) == fields and dataclasses.asdict(report) == fields
    twins = [
        BoundReport(*fields.values()),
        BoundReport(**fields),
        dataclasses.replace(report),
        copy.copy(report),
        pickle.loads(pickle.dumps(report)),
    ]
    for twin in twins:
        assert type(twin) is BoundReport and vars(twin) == fields
        assert (twin, hash(twin), repr(twin)) == (report, hash(report), repr(report))
    assert repr(report) == "BoundReport(" + ", ".join(f"{k}={v!r}" for k, v in fields.items()) + ")"
    assert dataclasses.replace(report, k=3).k == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.k = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del report.coefficient
    assert vars(report) == fields


def test_prefix_atom_consistency_with_interval():
    """Endpoints are signed prefix atoms of the sorted profile."""
    profile = from_raw([0.15, 0.25, 0.6, 0.85])
    iv = s_interval(profile)
    a = profile.sorted_values
    assert iv.s_max == prefix_atom(a, 2 * iv.p + 1)
    assert iv.s_min == -prefix_atom(a, 2 * iv.m)


@pytest.mark.parametrize("n", [1075, 1100, 2000])
def test_float_bounds_at_one_half_keep_endpoints_below_the_least_double(n):
    """At marginals 1/2 the endpoints are -+2^-n, below 2^-1074 here.  The
    float bounds must not collapse onto the mutual tail: each is within
    4 ulps of exact mode, and the endpoints are exact."""
    k = n // 2
    got = sharp_bounds(from_raw([0.5] * n), k)
    want = sharp_bounds(from_raw([Fraction(1, 2)] * n), k)
    assert (got.s_at_lower, got.s_at_upper) == (want.s_at_lower, want.s_at_upper)
    assert sorted([got.s_at_lower, got.s_at_upper]) == [-Fraction(1, 2**n), Fraction(1, 2**n)]
    assert got.sharp_lower < got.exact_mutual < got.sharp_upper
    for name in ("sharp_lower", "exact_mutual", "sharp_upper"):
        value, exact = getattr(got, name), getattr(want, name)
        assert abs(Fraction(value) - exact) <= 4 * Fraction(math.ulp(value)), name


def test_probability_at_s_reads_an_endpoint_below_the_least_double():
    """At 1,100 marginals of 1/2, the family tail at each reported endpoint
    is the reported bound, off the mutual tail."""
    profile = from_raw([0.5] * 1100)
    for report in bound_reports(profile, range(549, 552)):
        lower = probability_at_s(profile, report.k, report.s_at_lower)
        upper = probability_at_s(profile, report.k, report.s_at_upper)
        assert (lower, upper) == (report.sharp_lower, report.sharp_upper)
        assert lower < report.exact_mutual < upper


def test_probability_at_s_refuses_s_past_an_interval_below_the_least_double():
    """At 1,100 marginals of 1/2 the interval is [-2^-1100, 2^-1100].  An s of
    1e-321 lies far past it; scaled by C(1099, 549) it would give a
    'probability' near 1.6e8, so it is refused, as is the least double."""
    profile = from_raw([0.5] * 1100)
    for s in (1e-321, math.ulp(0.0), -math.ulp(0.0)):
        with pytest.raises(FeasibilityError, match="outside the feasible interval"):
            probability_at_s(profile, 550, s)
    assert probability_at_s(profile, 550, 0.0) == sharp_bounds(profile, 550).exact_mutual


@pytest.mark.parametrize("s", [float("nan"), float("inf")])
def test_probability_at_s_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match="s must be finite"):
        probability_at_s(from_raw([0.5, 0.5]), 1, s)


def test_makarov_single_event_exact_stays_exact():
    # n = 1 convolves an empty vector; it must stay exact
    profile = from_raw([Fraction(1, 3)], exact=True)
    for k in (0, 1):
        mk = makarov_bounds(profile, k)
        for value in (mk.lower, mk.upper):
            assert type(value) is Fraction
    exact, floating = makarov_bounds(profile, 1), makarov_bounds(from_raw([1 / 3]), 1)
    for field in ("lower", "upper"):
        assert float(getattr(exact, field)) == pytest.approx(getattr(floating, field))


def test_lll_product_bound_multiplies_left_to_right():
    values = [0.11, 0.23, 0.37, 0.41]
    expected = 1.0
    for a in values:
        expected = expected * (1.0 - 2 * a)
    assert lll_comparison(from_raw(values)).product_bound == expected


def test_large_slope_term_keeps_the_fraction_route_bits():
    """The slope term is one correctly rounded int division, the bits of
    ``float(Fraction(slope) * Fraction(s))``, at every slope: above 2^53, at
    most 2^53 (where ``slope * s`` would round the same product once),
    subnormal ``s`` and a product out of float range included."""
    rng = random.Random(4999)
    profile = from_raw([0.5, 0.5])
    slopes = [math.comb(9999, 4999), 1, 2**53 - 1, 2**53]
    for i in range(60):
        n = rng.randint(60, 1100 if i % 2 else 9999)  # half with s * slope near 1 in range
        slopes.append(math.comb(n - 1, rng.randint(30, n - 30)))
    for _ in range(20):  # slopes within a float's 53 bits
        n = rng.randint(2, 50)
        slopes.append(math.comb(n - 1, rng.randint(0, n - 1)))
    for slope in slopes:
        # exponents that put the product near 1, in the subnormals and past
        # the top of the float range, where both routes overflow
        exponents = [-1074, rng.randint(-1074, -1000), -slope.bit_length() + rng.randint(-40, 40)]
        for e in exponents:
            for s in (math.ldexp(rng.random(), e), -math.ldexp(rng.random(), e), 5e-324, -5e-324, 0.0, -0.0):
                tail = rng.random()
                s_num, s_den = s.as_integer_ratio()
                try:
                    term = float(Fraction(slope) * Fraction(s))
                except OverflowError:
                    with pytest.raises(OverflowError):
                        bounds._shift(tail, slope, s_num, s_den)
                    continue
                # an even k's slope is +slope, an odd k's -slope
                cases = [(tail, slope, tail + term), (tail, -slope, tail - term), (0.0, -slope, 0.0 - term)]
                for t, c, want in cases:
                    value, factor = bounds._shift(t, c, s_num, s_den)
                    assert value.hex() == want.hex() and factor == 1


def test_exact_shifted_bound_is_one_fraction_of_the_numerators():
    """An exact shift is one integer over the tails' scale times the
    denominator of s, which ``probability_at_s`` forms as one ``Fraction``."""
    profile = from_raw([Fraction(1, 3), Fraction(2, 5), Fraction(1, 2), Fraction(3, 4)])
    tails, scale, _, _ = bounds._law(profile)
    iv = s_interval(profile)
    for k in range(profile.n + 1):
        slope = math.comb(profile.n - 1, k - 1) if k else 0
        for s in (iv.s_min, Fraction(0), iv.s_max, Fraction(1, 7)):
            c = (-1) ** k * slope
            num, factor = bounds._shift(tails.item(k), c, s.numerator * scale, s.denominator)
            assert type(num) is int and factor == s.denominator
            expected = 1 if k == 0 else Fraction(tails.item(k), scale) + c * s
            assert Fraction(num, scale * factor) == expected
            if s != Fraction(1, 7):  # outside the interval
                value = probability_at_s(profile, k, s)
                assert type(value) is Fraction and value == expected


def _integer_bounds(values):
    """Every k's sharp bounds from integers alone, sharing no step with the
    package: each atom of the sorted events is a product of numerators
    ``p`` and complements ``d - p`` over D, the product of the
    denominators; the interval ends at the least odd atom and minus the
    least even one (at 0 for one event); each tail sums the atoms of at
    least k events; and the bounds are the tail shifted by
    ``(-1)^k C(n-1, k-1) s`` at either end, the lesser first.
    Yields (k, mutual, lower, upper, s at lower, s at upper, slope)."""
    fracs = sorted(map(Fraction, values))
    n, scale = len(fracs), math.prod(f.denominator for f in fracs)
    by_count = [0] * (n + 1)
    least = {0: None, 1: None}
    for mask in range(1 << n):
        atom = 1
        for j, f in enumerate(fracs):
            atom *= f.numerator if mask >> j & 1 else f.denominator - f.numerator
        count = bin(mask).count("1")
        by_count[count] += atom
        if least[count % 2] is None or atom < least[count % 2]:
            least[count % 2] = atom
    ends = (0, 0) if n == 1 else (-least[0], least[1])
    for k in range(n + 1):
        tail = sum(by_count[k:])
        slope = math.comb(n - 1, k - 1) if k else 0
        shifted = [(Fraction(tail + (-1) ** k * slope * c, scale), Fraction(c, scale)) for c in ends]
        (lower, s_lo), (upper, s_hi) = min(shifted), max(shifted)
        yield k, Fraction(tail, scale), lower, upper, s_lo, s_hi, slope


@pytest.mark.parametrize("values", [
    [Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)],
    [Fraction(5, 11), Fraction(1, 3), Fraction(3, 13), Fraction(2, 7), Fraction(1, 2), Fraction(4, 9)],
    [Fraction(0), Fraction(1, 3), Fraction(2, 5)],
    [Fraction(1, 3), Fraction(1), Fraction(2, 7), Fraction(3, 5)],
    [Fraction(0), Fraction(1)],
    [Fraction(2, 7)],
    [Fraction(0)],
    [Fraction(1)],
    [Fraction(random.Random(9).randint(0, 10**6), 10**6) for _ in range(9)],
])
def test_exact_bound_reports_equal_an_integer_reference(values):
    """Exact reports over every k, and over a range from mid-range, equal
    the integer reference field by field, each a ``Fraction`` when read;
    a single-k ``sharp_bounds`` equals its ``bound_reports`` entry."""
    profile = from_raw(values, exact=True)
    n = profile.n
    reference = list(_integer_bounds(values))
    names = [field.name for field in dataclasses.fields(BoundReport)]
    for ks in (range(n + 1), range(1, n + 1), range(n // 2, n // 2 + 2)):
        ks = range(ks.start, min(ks.stop, n + 1))
        reports = bound_reports(profile, ks)
        assert [r.k for r in reports] == list(ks)
        for report in reports:
            got = tuple(getattr(report, name) for name in names)
            assert got == reference[report.k], report.k
            assert all(type(value) is Fraction for value in got[1:6]), report.k
            assert sharp_bounds(profile, report.k) == report


@pytest.mark.parametrize("build", [
    lambda profile: sharp_bounds(profile, 2),
    lambda profile: bound_reports(profile, range(profile.n + 1))[2],
], ids=["sharp_bounds", "bound_reports"])
@pytest.mark.parametrize("raw, kind", [
    ([Fraction(1, 3), Fraction(2, 7), Fraction(5, 11)], Fraction),
    ([1 / 3, 2 / 7, 5 / 11], float),
], ids=["exact", "float"])
def test_exact_report_forms_its_fractions_on_first_read(raw, kind, build):
    """A report, exact or float, holds numerators until one probability is
    read, then its seven fields alone; a copy or a pickle taken before
    carries the numerators and equals it."""
    report = build(from_raw(raw))
    fields = set(bounds._BOUND_FIELDS)
    assert not fields & vars(report).keys()
    twins = [copy.copy(report), pickle.loads(pickle.dumps(report))]
    assert all("_numerators" in vars(twin) for twin in twins)
    assert type(report.sharp_upper) is kind
    assert vars(report).keys() == {field.name for field in dataclasses.fields(BoundReport)}
    assert twins == [report, report]
    with pytest.raises(AttributeError, match="'BoundReport' object has no attribute 'slope'"):
        report.slope  # noqa: B018


@pytest.mark.parametrize("exact", [False, True])
def test_k_and_s_are_read_as_marginals_are(exact):
    """A numpy integer k, or s, is taken as an ``int``, and the report holds
    a Python ``int`` k; a bool s, numpy's too, is refused in both modes."""
    profile = from_raw([0.3, 0.4, 0.6], exact=exact)
    report = sharp_bounds(profile, np.int64(2))
    assert type(report.k) is int and repr(report) == repr(sharp_bounds(profile, 2))
    assert makarov_bounds(profile, np.uint8(2)) == makarov_bounds(profile, 2)
    at_zero = probability_at_s(profile, np.int64(1), np.int64(0))
    assert (at_zero, type(at_zero)) == (probability_at_s(profile, 1, 0), Fraction if exact else float)
    checked = check_profile(profile, s_points=2, scan_ks=[np.int32(1), np.int64(3)])
    assert all(type(k) is int for k in checked.scanned_ks) and checked.scanned_ks == (1, 3)
    for s in (False, True, np.False_, np.True_):
        with pytest.raises(TypeError, match="not a bool"):
            probability_at_s(profile, 2, s)
        with pytest.raises(TypeError, match="not a bool"):
            build_measure(profile, s)
    for k in (True, np.True_, np.float64(2.0)):
        with pytest.raises(ValueError, match="k must be an integer"):
            sharp_bounds(profile, k)

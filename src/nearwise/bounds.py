"""Tail probabilities and sharp bounds for (n-1)-wise independent events.

The probability that at least k of the n events occur is linear in the
family parameter s::

    P_s(k) = P_0(k) + (-1)^k * C(n-1, k-1) * s,

where ``P_0(k)`` is the mutual-independence tail (a Poisson-binomial suffix
sum, computed by an O(n^2) convolution).  Because the coefficient never
vanishes for 1 <= k <= n, the sharp lower and upper bounds over the whole
family sit at the two interval endpoints, on sides determined by the parity
of k: odd k is minimized at ``s_max`` and maximized at ``s_min``, even k the
reverse.

Also provided: the condition under which the union bound (k=1) coincides
with a truncated inclusion-exclusion bound, a comparison against the product
lower bound used with the probabilistic method, and the standard
two-marginal tail bounds: the Fréchet bounds over every coupling of the
Poisson-binomial count of the first n-1 sorted events with the largest one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .marginals import MarginalProfile
from .measures import _coerce_s, _kept_operands, check_feasible, endpoint_numerators, s_interval
from .numeric import (
    _pmf_operands,
    binom_or_zero,
    held_float,
    mode_scalar,
    over,
    poisson_binomial_pmf,
    prefix_atom,
    ratio,
    suffix_sums,
)


#: The three probabilities of a :class:`BoundReport`, in the order of its
#: private numerators.
_BOUND_FIELDS = ("exact_mutual", "sharp_lower", "sharp_upper")


@dataclass(frozen=True)
class BoundReport:
    """Sharp bounds for one threshold k, with the achieving parameters.

    ``exact_mutual`` is the mutual-independence value ``P_0(k)``;
    ``coefficient`` is the integer C(n-1, k-1) scaling the linear term.
    ``s_at_lower`` / ``s_at_upper`` are the interval endpoints at which the
    bounds are attained, ``Fraction``s in both modes (:class:`SInterval`).

    Every report the package builds (:func:`_report`), in both modes, holds
    its three probabilities as numerators over the tails' scale (ints over
    the mass vector's scale, or floats over 1) in a private ``_numerators``
    entry of its ``__dict__``.  The first read of any one of the three
    forms all three by :func:`numeric.over` and drops the numerators, so
    from then on the report holds its seven fields alone, as one built from
    seven values does.  A renderer reads the numerators instead
    (:func:`_bound_numerators`).
    """

    k: int
    exact_mutual: object
    sharp_lower: object
    sharp_upper: object
    s_at_lower: object
    s_at_upper: object
    coefficient: int

    def __getattr__(self, name):
        # reached only for a name the __dict__ lacks, as a probability not
        # yet formed is.  The fields are set before the numerators are
        # dropped, so a second reader that misses the numerators finds them.
        fields = self.__dict__
        numerators = fields.get("_numerators")
        if numerators is not None and name in _BOUND_FIELDS:
            scale, *nums = numerators
            fields.update(zip(_BOUND_FIELDS, (over(num, scale) for num in nums)))
            fields.pop("_numerators", None)
        try:
            return fields[name]
        except KeyError:
            raise AttributeError(f"'BoundReport' object has no attribute {name!r}") from None


def _bound_numerators(report: BoundReport) -> list[tuple]:
    """``(numerator, scale)`` of ``exact_mutual``, ``sharp_lower`` and
    ``sharp_upper``, in that order, with no field formed: the report's own
    numerators over the tails' scale while it holds them, as every report
    the package builds does until first read, else each formed field's
    :func:`numeric.ratio`."""
    numerators = report.__dict__.get("_numerators")
    if numerators is None:
        return [ratio(getattr(report, name)) for name in _BOUND_FIELDS]
    scale, *nums = numerators
    return [(num, scale) for num in nums]


@dataclass(frozen=True)
class BonferroniStatus:
    """Whether a union bound coincides with truncated inclusion-exclusion.

    ``kind`` is one of ``"upper-coincides"``, ``"lower-coincides"`` or
    ``"neither"``; ``value`` is the coinciding bound when applicable.
    """

    kind: str
    value: object = None


@dataclass(frozen=True)
class LllComparison:
    """Sharp no-event probability next to the weaker product bound.

    ``positivity`` is the condition (largest marginal < 1 and the two
    smallest marginals sum below 1) guaranteeing the sharp value is positive.
    """

    sharp_no_bad_event: object
    product_bound: object
    positivity: bool


@dataclass(frozen=True)
class MakarovBounds:
    """Sharp tail bounds given two marginal laws alone: the count of the n-1
    smallest events and the largest event, coupled in any way."""

    lower: object
    upper: object


def _check_k(k, n: int) -> int:
    """``k`` as an ``int`` in 0..n; a numpy integer is one, a bool is not."""
    if type(k) is not int:
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"k must be an integer, got {k!r}")
        k = int(k)
    if k < 0 or k > n:
        raise ValueError(f"k out of range: expected 0 <= k <= {n} for n = {n}, got {k}")
    return k


def _check_ks(ks: range, n: int) -> None:
    if ks.step != 1:
        raise ValueError(f"ks must be a range of consecutive thresholds, got {ks!r}")
    if ks:
        _check_k(ks[0], n)
        _check_k(ks[-1], n)


def _law(profile: MarginalProfile) -> tuple[np.ndarray, int, np.ndarray, int]:
    """``(tails, scale, head, head_scale)``, the record every tail, bound
    and Makarov pair is read from: P(at least k occur) at k = 0..n over D,
    and the mass vector of the n - 1 smallest events over D' = D / d_n.

    The kernel steps those events, and the largest moves their vector into
    a fresh one with the kernel's own two products and one add, the bits of
    one pass over all n.  ``tails[0]`` is D itself, as P(at least 0 occur)
    = 1, which a float sum may miss.  A float profile keeps the record, both
    vectors read-only, in its ``__dict__`` as :func:`measures.per_profile`
    does: 2n + 1 doubles, so a per-k loop convolves once.  An exact profile
    convolves on every call, since its sums grow by O(n^2) bits, but from
    the operands it keeps (:func:`measures._kept_operands`).
    """
    cache = profile.__dict__
    if "_law" in cache:
        return cache["_law"]
    a = profile.sorted_values
    pairs, scale = _kept_operands(profile) if profile.exact else _pmf_operands(a)
    # all n values, so that the kernel reads the mode off them at n = 1 too
    head, head_scale = poisson_binomial_pmf(a, (pairs[:-1], scale // ratio(a[-1])[1]))
    p, q = pairs[-1]
    pmf = np.zeros(len(a) + 1, dtype=head.dtype)
    np.multiply(head, q, pmf[:-1])
    np.add(pmf[1:], np.multiply(head, p), pmf[1:])
    tails = suffix_sums(pmf)
    tails[0] = scale
    record = tails, scale, head, head_scale
    if not profile.exact:
        tails.setflags(write=False)
        head.setflags(write=False)
        cache["_law"] = record
    return record


def tail_probabilities(profile: MarginalProfile):
    """All tails P(at least k occur) for k = 0..n from one O(n^2) pass.

    Returns a fresh vector indexed by k, which the caller may write into.
    Every tail in the package is read from the same record (:func:`_law`),
    so a bound and the mutual tail it shifts agree to the last bit, and
    entry 0 is exactly 1 in both modes.
    """
    tails, scale, _, _ = _law(profile)
    return np.array(over(tails, scale))


def _shift(tail, c: int, s_num: int, s_den: int) -> tuple:
    """``(numerator, factor)`` of the family tail ``P_0(k) + c * s``, the one
    place a bound is formed: ``tail`` is ``P_0(k)`` over the tails' scale D,
    ``c`` the signed slope (-1)^k C(n-1, k-1) and ``s_num / s_den`` is s·D.

    Exact mode (an ``int`` tail) adds integers, over D times the factor
    ``s_den``.  Floating mode (D = 1) gives a float over 1: int true division
    rounds the exact product once, as ``float(Fraction(c) * Fraction(s))``
    does, even where the slope exceeds float range at large n while the
    product stays a probability difference; a negative ``c`` negates its bits.
    """
    if isinstance(tail, float):
        return tail + c * s_num / s_den, 1
    return tail * s_den + c * s_num, s_den


def probability_at_s(profile: MarginalProfile, k: int, s):
    """P(at least k occur) under the family measure with parameter ``s``.

    Linear in s with integer slope magnitude C(n-1, k-1), formed by the
    shift every bound takes (:func:`_shift`); the convention C(n-1, -1) = 0
    makes ``k = 0`` return exactly 1 for every feasible s.  A ``Fraction``
    s stays exact in floating mode too, so at an endpoint, even one below
    the least double, this is the bound that :func:`bound_reports` gives.
    """
    k = _check_k(k, profile.n)
    s = s if isinstance(s, Fraction) else _coerce_s(s, profile.exact)
    check_feasible(profile, s)
    tails, scale, _, _ = _law(profile)
    slope, (s_num, s_den) = binom_or_zero(profile.n - 1, k - 1), s.as_integer_ratio()
    num, factor = _shift(tails.item(k), -slope if k % 2 else slope, s_num * scale, s_den)
    return over(num, scale * factor)


def _report(iv, ends, scale: int, k: int, tail, c: int) -> BoundReport:
    """The report at ``k`` of ``tail`` over ``scale`` and the signed slope
    ``c``, the one place a :class:`BoundReport` is built: ``iv`` is the
    profile's interval and ``ends`` its endpoints times the scale
    (:func:`measures.endpoint_numerators`).

    The lower bound is at ``s_max`` for ``c < 0``, else at ``s_min``.  The
    report holds the tail and its two shifts (:func:`_shift`) over
    ``scale``, formed on first read: in exact mode one multiply-add per
    bound and no gcd.  At ``k = 0`` the slope is 0 and the tail is the
    scale, so every bound is exactly 1.
    """
    (lo, hi), s_lo, s_hi = ends, iv.s_min, iv.s_max
    if c < 0:
        lo, hi, s_lo, s_hi = hi, lo, s_hi, s_lo
    (lower, _), (upper, _) = _shift(tail, c, *lo), _shift(tail, c, *hi)
    report = BoundReport.__new__(BoundReport)
    report.__dict__.update(k=k, _numerators=(scale, tail, lower, upper), s_at_lower=s_lo,
                           s_at_upper=s_hi, coefficient=abs(c))
    return report


def bound_reports(profile: MarginalProfile, ks: range) -> list[BoundReport]:
    """Sharp lower and upper bounds on P(at least k occur) over the family,
    for every k in ``ks``, a range of consecutive thresholds in 0..n.

    Evaluates the family probability at the two interval endpoints and
    assigns them by the parity of k: odd k attains its minimum at ``s_max``
    and its maximum at ``s_min``; even k the reverse.  The results are
    feasible probabilities by construction and are never clamped.  The
    interval and the tails (:func:`_law`) are read once for all of ``ks``,
    and the slopes C(n-1, k-1) run by ``C(n-1, k) = C(n-1, k-1) * (n-k) // k``
    from one ``math.comb``, so every k costs one O(n^2) convolution together.
    Each report holds numerators over the tails' scale and forms its fields
    when one is read (:class:`BoundReport`), so the sweep itself forms no
    field and, in exact mode, reduces nothing.
    """
    _check_ks(ks, profile.n)
    return _reports(profile, ks, *_law(profile)[:2]) if ks else []


def _reports(profile: MarginalProfile, ks: range, tails, scale: int) -> list[BoundReport]:
    """The reports of :func:`bound_reports` at ``ks``, already checked, from
    ``tails`` over ``scale``."""
    n = profile.n
    iv, ends = s_interval(profile), endpoint_numerators(profile)
    slope = binom_or_zero(n - 1, ks.start - 1)
    reports = []
    for k in ks:
        reports.append(_report(iv, ends, scale, k, tails.item(k), -slope if k % 2 else slope))
        slope = slope * (n - k) // k if k else 1
    return reports


def sharp_bounds(profile: MarginalProfile, k: int) -> BoundReport:
    """The one report of :func:`bound_reports` at ``k``, with the same bits.

    It checks k once and builds that report alone, numerators included,
    so its fields form on first read as theirs do.  A float profile keeps
    its record (:func:`_law`) between calls, so a per-k loop costs one
    convolution in all, but each call computes its slope with a fresh
    ``math.comb`` (1.46 ms at n = 10,000).  An exact profile convolves the
    mass vector again on every call, from the operands it keeps, so the
    marginals are read once per profile.  A caller that wants several k
    asks :func:`bound_reports` for all of them at once.
    """
    k = _check_k(k, profile.n)
    tails, scale, _, _ = _law(profile)
    slope = binom_or_zero(profile.n - 1, k - 1)
    iv, ends = s_interval(profile), endpoint_numerators(profile)
    return _report(iv, ends, scale, k, tails.item(k), -slope if k % 2 else slope)


def bonferroni_applicable(profile: MarginalProfile) -> BonferroniStatus:
    """When does a union bound coincide with truncated inclusion-exclusion?

    If the two largest marginals sum to at most 1, the relevant invariant is
    maximal and one side of the union bound collapses to the degree-(n-1)
    truncated inclusion-exclusion expression: the upper bound
    ``1 - prod(1-a_i) + prod(a_i)`` when n is even, the lower bound
    ``1 - prod(1-a_i) - prod(a_i)`` when n is odd.  Otherwise neither side
    coincides.
    """
    n = profile.n
    if n < 2:
        raise ValueError(f"need at least two events, got n = {n}")
    a = profile.sorted_values
    if a[-2] + a[-1] <= 1:
        none_occur, all_occur = (mode_scalar(prefix_atom(a, t), a) for t in (0, n))
        if n % 2 == 0:
            return BonferroniStatus("upper-coincides", 1 - none_occur + all_occur)
        return BonferroniStatus("lower-coincides", 1 - none_occur - all_occur)
    return BonferroniStatus("neither")


def lll_comparison(profile: MarginalProfile) -> LllComparison:
    """Sharp probability that no event occurs, next to the product bound.

    ``sharp_no_bad_event`` is the complement of the sharp union upper bound.
    ``product_bound`` is ``prod(1 - 2 a_i)``, the weaker guarantee available
    under limited-dependence arguments (it may be negative, in which case it
    is vacuous).  ``positivity`` records the condition ``a_n < 1 and
    a_1 + a_2 < 1`` under which the sharp value is strictly positive.
    """
    n = profile.n
    if n < 2:
        raise ValueError(f"need at least two events, got n = {n}")
    a = profile.sorted_values
    return LllComparison(
        sharp_no_bad_event=1 - sharp_bounds(profile, 1).sharp_upper,
        # left to right, as a loop from 1 would multiply; n >= 2 factors
        product_bound=math.prod(1 - 2 * ai for ai in a),
        positivity=bool(a[-1] < 1 and a[0] + a[1] < 1),
    )


def _makarov_numerators(profile: MarginalProfile, ks: range, head, head_scale: int) -> tuple:
    """``(lower, upper)``: :func:`makarov_bounds` at every k in ``ks`` over
    the tails' scale D, from ``head`` over ``head_scale`` = D', the mass
    vector of the n-1 smallest events (:func:`_law`): with ``a_n = c / d``,
    T' = P(X >= k) and E = P(X = k-1) over D',
    ``T'·d + max(0, E·d - (d - c)·D')`` and ``T'·d + min(E·d, c·D')``, with
    no gcd.  In float d = D' = 1, so every product is exact.
    """
    _check_ks(ks, profile.n)
    c, d = ratio(profile.sorted_values[-1])
    # P(X = k-1) at k = 0..n+1: X, a count of n - 1 events, is never -1 or n
    mass = np.zeros(profile.n + 2, dtype=head.dtype)
    mass[1:-1] = head
    # P(X >= k) at k = 0..n: P(X >= 0) is the scale, which a float sum may miss
    at_least = suffix_sums(mass)[1:]
    at_least[0] = head_scale
    tail, exactly = at_least[ks.start : ks.stop] * d, mass[ks.start : ks.stop] * d
    # 1 - a_n is exact in float once a_n >= 1/2 (Sterbenz's lemma), so
    # there the term rounds once, as exact mode's equal term would
    lower = tail + np.maximum(0, exactly - (d - c) * head_scale)
    upper = tail + np.minimum(exactly, c * head_scale)
    return lower.tolist(), upper.tolist()


def makarov_bounds(profile: MarginalProfile, k: int) -> MakarovBounds:
    """Standard bounds on P(at least k occur) from two marginal laws only.

    Let X count the n-1 smallest events, a Poisson-binomial, and B be the
    largest event, a Bernoulli at ``a_n``.  Under any coupling
    P(X + B >= k) = P(X >= k) + P(X = k-1, B = 1), and the Fréchet bounds
    on the last term give::

        lower = P(X >= k) + max(0, P(X = k-1) + a_n - 1)
        upper = P(X >= k) + min(P(X = k-1), a_n)

    Some coupling attains each, so they are sharp given the two laws; they
    hold under any dependence, so they envelop the sharp family bounds.
    The law of X is a by-product of the family's own convolution
    (:func:`_law`), which ``table`` reads once per level for every k.  A
    float profile keeps that record, so a per-k loop convolves once and
    costs O(n) per call after it; an exact profile convolves on every call,
    as :func:`sharp_bounds` does.
    """
    k = _check_k(k, profile.n)
    _, scale, head, head_scale = _law(profile)
    (lower,), (upper,) = _makarov_numerators(profile, range(k, k + 1), head, head_scale)
    return MakarovBounds(over(lower, scale), over(upper, scale))


def report_to_dict(report: BoundReport) -> dict:
    """JSON-ready form of a bound report; an endpoint no double holds stays a
    ``Fraction`` (:func:`numeric.held_float`), which the CLI writes as a number.

    Each bound is its numerator over its scale (:func:`_bound_numerators`),
    by true division: a float over 1 keeps its bits, and an int gives the
    correctly rounded double, so a report forms no field here."""
    (mutual, mutual_scale), (lower, lower_scale), (upper, upper_scale) = _bound_numerators(report)
    return {
        "k": report.k,
        "exact": mutual / mutual_scale,
        "lower": lower / lower_scale,
        "upper": upper / upper_scale,
        "s_at_lower": held_float(report.s_at_lower),
        "s_at_upper": held_float(report.s_at_upper),
        "coefficient": report.coefficient,
    }

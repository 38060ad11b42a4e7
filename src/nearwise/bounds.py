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

Also provided: the union (k=1) and intersection (k=n) specializations, the
condition under which the union bound coincides with a truncated
inclusion-exclusion bound, a comparison against the product lower bound used
with the probabilistic method, and the standard two-marginal tail bounds
computed from the Poisson-binomial law of the first n-1 events against the
largest marginal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .marginals import MarginalProfile
from .measures import FeasibilityError, _coerce_s, s_interval
from .numeric import (
    ABS_TOL,
    binom_or_zero,
    cumulative_sums,
    mode_scalar,
    poisson_binomial_pmf,
    prefix_atom,
    suffix_sums,
)


@dataclass(frozen=True)
class BoundReport:
    """Sharp bounds for one threshold k, with the achieving parameters.

    ``exact_mutual`` is the mutual-independence value ``P_0(k)``;
    ``coefficient`` is the integer C(n-1, k-1) scaling the linear term.
    ``s_at_lower`` / ``s_at_upper`` are the interval endpoints at which the
    bounds are attained.
    """

    k: int
    exact_mutual: object
    sharp_lower: object
    sharp_upper: object
    s_at_lower: object
    s_at_upper: object
    coefficient: int


@dataclass(frozen=True)
class TailCdf:
    """Distribution function of a Poisson-binomial count.

    ``values[j]`` is F(j) = P(count <= j) for 0 <= j <= N where N is the
    number of trials; calling the object extends the function by F(j) = 0
    for j < 0 and F(j) = 1 for j >= N.
    """

    values: tuple
    exact: bool = False

    def __call__(self, j: int):
        if j < 0:
            return mode_scalar(0, self.values)
        if j >= len(self.values) - 1:
            return mode_scalar(1, self.values)
        return self.values[j]

    @property
    def support_max(self) -> int:
        return len(self.values) - 1


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
    """Standard tail bounds assuming nothing beyond the two marginal laws.

    ``lower`` and ``upper`` evaluate the primary closed forms verbatim.
    ``conv_lower`` and ``conv_upper`` evaluate the same two-point supremum
    convolution with the complementary placement of the Bernoulli mass; the
    pairs differ only when the largest marginal exceeds 1/2, and in that
    regime only the convolution pair brackets the sharp bounds.  Both are
    reported so the discrepancy is visible rather than silent.
    """

    lower: object
    upper: object
    conv_lower: object
    conv_upper: object

    @property
    def variants_differ(self) -> bool:
        return self.lower != self.conv_lower or self.upper != self.conv_upper


def _check_k(k: int, n: int, *, high: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0 or k > high:
        raise ValueError(f"k out of range: expected 0 <= k <= {high} for n = {n}, got {k}")


def tail_probabilities(profile: MarginalProfile):
    """All tails P(at least k occur) for k = 0..n from one O(n^2) pass.

    Returns a vector indexed by k: the suffix sums of the Poisson-binomial
    mass vector of the sorted marginals, added from k = n down.  Every tail
    in the package is read from here, so a bound and the mutual tail it
    shifts agree to the last bit.
    """
    return suffix_sums(poisson_binomial_pmf(profile.sorted_values))


def tail_probability_dp(profile: MarginalProfile, k: int):
    """P(at least k of n events occur) under mutual independence.

    Entry k of :func:`tail_probabilities`; ``k = 0`` gives the total mass
    and ``k = n + 1`` gives 0.
    """
    n = profile.n
    _check_k(k, n, high=n + 1)
    if k == n + 1:
        return mode_scalar(0, profile.sorted_values)
    return tail_probabilities(profile).item(k)


def _shifted(profile: MarginalProfile, k: int, mutual, s):
    """``mutual + (-1)^k * C(n-1, k-1) * s``: the family tail at ``s``.

    ``mutual`` is the mutual-independence tail ``P_0(k)``.  ``k = 0``
    returns exactly 1 and ignores ``mutual``.
    """
    if k == 0:
        return mode_scalar(1, profile.sorted_values)
    coeff = binom_or_zero(profile.n - 1, k - 1)
    if profile.exact or coeff.bit_length() <= 53:
        term = coeff * s
    elif s == 0.0:
        term = 0.0
    else:
        # the slope can exceed float range at large n while the product
        # stays a probability difference; multiply exactly, convert once
        term = float(Fraction(coeff) * Fraction(s))
    return mutual + term if k % 2 == 0 else mutual - term


def probability_at_s(profile: MarginalProfile, k: int, s):
    """P(at least k occur) under the family measure with parameter ``s``.

    Linear in s with integer slope magnitude C(n-1, k-1); the coefficient
    convention C(n-1, -1) = 0 makes ``k = 0`` return exactly 1 for every
    feasible s.
    """
    _check_k(k, profile.n, high=profile.n)
    s = _coerce_s(profile, s)
    iv = s_interval(profile)
    slack = 0 if profile.exact else ABS_TOL
    if s < iv.s_min - slack or s > iv.s_max + slack:
        raise FeasibilityError(
            f"s = {s} lies outside the feasible interval [{iv.s_min}, {iv.s_max}]"
        )
    # at k = 0 the answer is 1 without a tail, so skip the convolution
    return _shifted(profile, k, tail_probability_dp(profile, k) if k else None, s)


def sharp_bounds(profile: MarginalProfile, k: int) -> BoundReport:
    """Sharp lower and upper bounds on P(at least k occur) over the family.

    Evaluates the family probability at the two interval endpoints and
    assigns them by the parity of k: odd k attains its minimum at ``s_max``
    and its maximum at ``s_min``; even k the reverse.  The results are
    feasible probabilities by construction and are never clamped.
    """
    n = profile.n
    _check_k(k, n, high=n)
    iv = s_interval(profile)
    if k % 2 == 1:
        s_lo, s_hi = iv.s_max, iv.s_min
    else:
        s_lo, s_hi = iv.s_min, iv.s_max
    mutual = tail_probability_dp(profile, k)
    return BoundReport(
        k=k,
        exact_mutual=mutual,
        sharp_lower=_shifted(profile, k, mutual, s_lo),
        sharp_upper=_shifted(profile, k, mutual, s_hi),
        s_at_lower=s_lo,
        s_at_upper=s_hi,
        coefficient=binom_or_zero(n - 1, k - 1),
    )


def union_bounds(profile: MarginalProfile) -> BoundReport:
    """Sharp bounds on P(at least one event occurs): the k = 1 case.

    Identical, field by field, to ``sharp_bounds(profile, 1)``.  The closed
    forms these values satisfy are::

        lower = 1 - (prod_{i<=2p+1}(1-a_i) + prod_{i<=2p+1} a_i) * prod_{i>2p+1}(1-a_i)
        upper = 1 - (prod_{i<=2m}(1-a_i) - prod_{i<=2m} a_i) * prod_{i>2m}(1-a_i)
    """
    return sharp_bounds(profile, 1)


def intersection_bounds(profile: MarginalProfile) -> BoundReport:
    """Sharp bounds on P(all n events occur): the k = n case.

    Identical, field by field, to ``sharp_bounds(profile, n)``.  Depending
    on the parity of n the values satisfy the closed forms::

        n even:  lower = prod_{i<=2m} a_i * (prod_{i>2m} a_i - prod_{i>2m}(1-a_i))
                 upper = prod_{i<=2p+1} a_i * (prod_{i>2p+1} a_i + prod_{i>2p+1}(1-a_i))
        n odd:   lower = prod_{i<=2p+1} a_i * (prod_{i>2p+1} a_i - prod_{i>2p+1}(1-a_i))
                 upper = prod_{i<=2m} a_i * (prod_{i>2m} a_i + prod_{i>2m}(1-a_i))
    """
    return sharp_bounds(profile, profile.n)


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
        none_occur = prefix_atom(a, 0)
        all_occur = prefix_atom(a, n)
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
        sharp_no_bad_event=1 - union_bounds(profile).sharp_upper,
        # left to right, as a loop from 1 would multiply; n >= 2 factors
        product_bound=math.prod(1 - 2 * ai for ai in a),
        positivity=bool(a[-1] < 1 and a[0] + a[1] < 1),
    )


def poisson_binomial_cdf(values: Sequence, *, exact: bool | None = None) -> TailCdf:
    """Distribution function of the count of successes among the trials.

    Accumulates the same convolution used for tail probabilities into a CDF.
    An empty vector is the constant-zero count: F(j) = 1 for all j >= 0.
    ``exact`` selects the arithmetic mode; by default it is inferred (exact
    when every entry is a Fraction).
    """
    vals = list(values)
    if exact is None:
        exact = bool(vals) and all(isinstance(v, Fraction) for v in vals)
    # an array, so that an empty exact vector keeps its mode
    coerced = np.empty(len(vals), dtype=object if exact else np.float64)
    for i, v in enumerate(vals):
        x = Fraction(str(v)) if exact and isinstance(v, float) else (Fraction(v) if exact else float(v))
        if not 0 <= x <= 1:
            raise ValueError(f"value out of [0,1] at index {i + 1}")
        coerced[i] = x
    cdf = cumulative_sums(poisson_binomial_pmf(coerced))
    return TailCdf(values=tuple(cdf.tolist()), exact=exact)


def makarov_bounds(profile: MarginalProfile, k: int) -> MakarovBounds:
    """Standard bounds on P(at least k occur) from two marginal laws only.

    Splits the count into the Poisson-binomial of the first n-1 sorted
    marginals plus a Bernoulli at the largest marginal ``a_n``, and evaluates
    the closed two-point supremum-convolution forms (with F(j) = 0 for
    j < 0)::

        upper = min(2 - max(F(k-1) + a_n, F(k-2) + 1), 1)
        lower = max(1 - min(F(k),   F(k-1) + a_n), 0)

    plus the variant with the Bernoulli CDF value ``1 - a_n`` in place of
    ``a_n`` (fields ``conv_lower`` / ``conv_upper``).  ``k = 0`` returns 1
    for every field.  These hold under arbitrary dependence, hence they
    always envelop the sharp family bounds — in the ``a_n > 1/2`` regime
    that statement applies to the convolution variant.
    """
    n = profile.n
    _check_k(k, n, high=n)
    a = profile.sorted_values
    one = mode_scalar(1, a)
    if k == 0:
        return MakarovBounds(one, one, one, one)
    a_n = a[-1]
    f1 = poisson_binomial_cdf(a[:-1], exact=profile.exact)
    two = one + one
    upper = min(two - max(f1(k - 1) + a_n, f1(k - 2) + one), one)
    lower = max(one - min(f1(k), f1(k - 1) + a_n), one - one)
    co = one - a_n
    conv_upper = min(two - max(f1(k - 1) + co, f1(k - 2) + one), one)
    conv_lower = max(one - min(f1(k - 1), f1(k - 2) + co), one - one)
    return MakarovBounds(lower, upper, conv_lower, conv_upper)


def report_to_dict(report: BoundReport) -> dict:
    """JSON-ready form of a bound report."""
    return {
        "k": report.k,
        "exact": float(report.exact_mutual),
        "lower": float(report.sharp_lower),
        "upper": float(report.sharp_upper),
        "s_at_lower": float(report.s_at_lower),
        "s_at_upper": float(report.s_at_upper),
        "coefficient": report.coefficient,
    }

"""Exact reference values for the benchmark's output checks.

This module imports nothing from ``nearwise``: it re-derives every checked
quantity from the marginals alone, so a defect in the package cannot hide
in its own reference.  All quantities are integer numerators over one
common denominator ``D**n``, where ``D`` is the least common denominator of
the marginals.  Nothing rounds and nothing underflows; that is what lets it
see the float collapse of the sharp bounds at n = 2000.

The Poisson-binomial law is the coefficient vector of
``prod_i ((D - A_i) + A_i x)``, multiplied out over Python integers.  With
no gcd on any step it checks n = 2000 in under a second.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

#: Float results must match the exact value to this relative tolerance ...
FLOAT_REL = 1e-9
#: ... or to this absolute one, for values near zero.  Both are far looser
#: than last-bit changes of summation order and far tighter than the
#: 8.9e-3 shift that float underflow loses at n = 2000.
FLOAT_ABS = 1e-11
#: Text output carries five significant digits.
TEXT_REL = 1e-4


def scale(values) -> tuple[list[int], int]:
    """Integer numerators ``A_i`` and the common denominator ``D``."""
    fracs = [Fraction(v) for v in values]
    d = 1
    for f in fracs:
        d = math.lcm(d, f.denominator)
    return [f.numerator * (d // f.denominator) for f in fracs], d


def _mass(nums: list[int], d: int) -> list[int]:
    """Numerators of P(count = t), t = 0..n, over ``d**n``."""
    mass = [1]
    for a in nums:
        co = d - a
        mass = [x * co + y * a for x, y in zip(mass + [0], [0] + mass)]
    return mass


class Reference:
    """Exact tails, feasible interval and sharp bounds of one profile."""

    def __init__(self, values):
        nums, d = scale(values)
        n = len(nums)
        if n == 0:
            raise ValueError("empty profile")
        self.n = n
        self.nums = nums
        self.d = d
        self.den = d**n
        mass = _mass(nums, d)
        if sum(mass) != self.den:
            raise RuntimeError("reference mass does not sum to one")
        self.tails = [0] * (n + 2)  # tails[k] = P(count >= k)
        for t in range(n, -1, -1):
            self.tails[t] = self.tails[t + 1] + mass[t]
        a = sorted(nums)
        p = 0
        for i in range(1, (n - 1) // 2 + 1):
            if a[2 * i - 1] + a[2 * i] > d:
                break
            p = i
        m = 0
        for i in range(1, n // 2 + 1):
            if a[2 * i - 2] + a[2 * i - 1] > d:
                break
            m = i
        self.p, self.m = p, m
        if n == 1:
            self.s_min = self.s_max = 0
        else:
            self.s_min = -self._prefix_atom(a, 2 * m)
            self.s_max = self._prefix_atom(a, 2 * p + 1)

    def _prefix_atom(self, a: list[int], t: int) -> int:
        out = 1
        for j, x in enumerate(a):
            out *= x if j < t else self.d - x
        return out

    def bounds(self, k: int) -> dict:
        """Numerators (over ``den``) of every field of the k-th bound report."""
        coeff = math.comb(self.n - 1, k - 1)
        s_lo, s_hi = (self.s_max, self.s_min) if k % 2 else (self.s_min, self.s_max)
        sign = 1 if k % 2 == 0 else -1
        tail = self.tails[k]
        return {
            "coefficient": coeff,
            "exact": tail,
            "lower": tail + sign * coeff * s_lo,
            "upper": tail + sign * coeff * s_hi,
            "s_at_lower": s_lo,
            "s_at_upper": s_hi,
        }

    def atoms(self, s: int) -> list[int]:
        """Numerators of every atom of the family measure at ``s``.

        Indexed by bitmask in input order: bit j set means input event j+1
        occurs.
        """
        table = [1]
        for a in self.nums:
            co = self.d - a
            table = [x * co for x in table] + [x * a for x in table]
        return [x - s if mask.bit_count() & 1 else x + s for mask, x in enumerate(table)]


def float_ok(value, num: int, den: int, rel: float = FLOAT_REL) -> bool:
    """Does a float result match the exact ``num / den`` to tolerance?"""
    ref = num / den
    return abs(float(value) - ref) <= max(FLOAT_ABS, rel * abs(ref))


def exact_ok(value, num: int, den: int) -> bool:
    """Is ``value`` an exact rational equal to ``num / den``?"""
    return (
        isinstance(value, numbers.Rational)
        and value.numerator * den == num * value.denominator
    )

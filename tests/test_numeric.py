"""Unit tests for the shared numeric helpers."""

import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from nearwise.numeric import (
    atom_products_dense,
    binom_or_zero,
    close,
    cumulative_sums,
    format_scientific,
    poisson_binomial_pmf,
    popcount_table,
    prefix_atom,
    subset_products_dense,
    suffix_sums,
    superset_sums,
)


def test_binom_or_zero_extends_by_zero():
    assert binom_or_zero(5, 2) == 10
    assert binom_or_zero(5, 0) == 1
    assert binom_or_zero(0, 0) == 1
    assert binom_or_zero(5, -1) == 0
    assert binom_or_zero(5, 6) == 0
    assert binom_or_zero(7, 7) == 1


def test_close_modes():
    assert close(0.1 + 0.2, 0.3, exact=False)
    assert not close(1.0, 1.0 + 1e-9, exact=False)
    assert close(0.0, 5e-13, exact=False)  # absolute floor near zero
    assert close(Fraction(1, 3), Fraction(1, 3), exact=True)
    assert not close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), exact=True)


def test_prefix_atom_float():
    values = [0.1, 0.2, 0.3]
    assert prefix_atom(values, 0) == ((1.0 * 0.9) * 0.8) * 0.7
    assert prefix_atom(values, 2) == ((1.0 * 0.1) * 0.2) * 0.7
    assert prefix_atom(values, 3) == ((1.0 * 0.1) * 0.2) * 0.3
    assert prefix_atom([], 0) == 1.0


def test_prefix_atom_exact():
    values = [Fraction(1, 10), Fraction(1, 5)]
    assert prefix_atom(values, 1) == Fraction(1, 10) * Fraction(4, 5)
    assert isinstance(prefix_atom(values, 0), Fraction)


def test_atom_products_dense_matches_prefix_atoms_bitwise():
    """The dense table and the prefix helper must agree bit for bit."""
    values = [0.13, 0.37, 0.52, 0.81]
    atoms = atom_products_dense(values)
    assert atoms.shape == (16,)
    assert math.isclose(float(np.sum(atoms)), 1.0, rel_tol=1e-15)
    for t in range(5):
        mask = (1 << t) - 1
        assert atoms[mask] == prefix_atom(values, t)


def test_atom_products_dense_exact_normalizes():
    values = [Fraction(1, 3), Fraction(2, 7)]
    atoms = atom_products_dense(values)
    assert atoms.dtype == object
    assert sum(atoms, Fraction(0)) == 1
    assert atoms[0b11] == Fraction(1, 3) * Fraction(2, 7)


def test_subset_products_dense():
    values = [0.5, 0.25, 0.125]
    prods = subset_products_dense(values)
    assert prods[0] == 1.0
    assert prods[0b011] == 0.5 * 0.25
    assert prods[0b111] == (1.0 * 0.5) * 0.25 * 0.125
    exact = subset_products_dense([Fraction(1, 2), Fraction(1, 4)])
    assert exact[0b10] == Fraction(1, 4)


def test_popcount_table():
    pc = popcount_table(4)
    assert list(np.bincount(pc)) == [1, 4, 6, 4, 1]
    assert pc[0b1011] == 3
    assert not pc.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_superset_sums_against_direct_enumeration(n):
    rng = np.random.default_rng(12)
    atoms = rng.random(1 << n)
    sums = superset_sums(atoms, n)
    for j in range(1 << n):
        direct = sum(atoms[i] for i in range(1 << n) if i & j == j)
        assert math.isclose(sums[j], direct, rel_tol=1e-12)


def _superset_sums_per_bit(atoms, n):
    """Reference: one plain float64 pass per bit, no paired lanes."""
    out = atoms.copy()
    for b in range(n):
        view = out.reshape(-1, 2, 1 << b)
        view[:, 0, :] += view[:, 1, :]
    return out


def test_superset_sums_paired_lanes_bit_identical():
    rng = np.random.default_rng(41)
    for n in range(15):
        atoms = rng.random(1 << n) - 0.25
        sums = superset_sums(atoms, n)
        assert sums.dtype == np.float64
        assert sums.tobytes() == _superset_sums_per_bit(atoms, n).tobytes()


def test_superset_sums_object_array_stays_exact():
    atoms = np.array([Fraction(i + 1, 13) for i in range(16)], dtype=object)
    sums = superset_sums(atoms, 4)
    assert sums.dtype == object
    for j in range(16):
        direct = sum((atoms[i] for i in range(16) if i & j == j), Fraction(0))
        assert isinstance(sums[j], Fraction) and sums[j] == direct


def test_superset_sums_exact_and_inclusive():
    atoms = [Fraction(i, 7) for i in range(8)]
    sums = superset_sums(atoms, 3)
    # Inclusive: the subset's own atom is part of its sum.
    assert sums[0b111] == atoms[0b111]
    assert sums[0b101] == atoms[0b101] + atoms[0b111]
    assert sums[0] == sum(atoms, Fraction(0))


def test_poisson_binomial_pmf_known_values():
    pmf = poisson_binomial_pmf([0.5, 0.5])
    assert np.allclose(pmf, [0.25, 0.5, 0.25])
    exact = poisson_binomial_pmf([Fraction(1, 2)] * 3)
    assert list(exact) == [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)]


def test_poisson_binomial_pmf_heterogeneous():
    pmf = poisson_binomial_pmf([0.1, 0.7])
    assert math.isclose(pmf[0], 0.9 * 0.3)
    assert math.isclose(pmf[1], 0.1 * 0.3 + 0.9 * 0.7)
    assert math.isclose(pmf[2], 0.1 * 0.7)
    assert math.isclose(float(np.sum(pmf)), 1.0)


def test_poisson_binomial_pmf_edge_entries_are_ascending_products():
    values = [0.3, 0.6, 0.9]
    pmf = poisson_binomial_pmf(values)
    assert pmf[0] == prefix_atom(values, 0)
    assert pmf[3] == prefix_atom(values, 3)


def test_suffix_sums():
    pmf = poisson_binomial_pmf([0.5, 0.5])
    tails = suffix_sums(pmf)
    assert tails[0] == 1.0
    assert math.isclose(tails[1], 0.75)
    exact = poisson_binomial_pmf([Fraction(1, 2)] * 2)
    assert list(suffix_sums(exact)) == [1, Fraction(3, 4), Fraction(1, 4)]


def test_cumulative_sums_same_order_for_arrays_and_lists():
    values = [0.1, 0.2, 0.3, 1e-17, 0.7, 1e16, -1e16]
    from_list = cumulative_sums(values)
    assert from_list.tolist() == list(accumulate(values))
    assert from_list.tolist() == cumulative_sums(np.array(values)).tolist()
    assert suffix_sums(values).tolist() == suffix_sums(np.array(values)).tolist()


def test_format_scientific():
    assert format_scientific(0.56953279) == "5.6953e-01"
    assert format_scientific(1e-7) == "1.0000e-07"
    assert format_scientific(1.0) == "1.0000e+00"
    assert format_scientific(0.0) == "0.0000e+00"
    assert format_scientific(-0.0) == "0.0000e+00"
    assert format_scientific(Fraction(1, 8)) == "1.2500e-01"
    assert format_scientific(0.56953279, 3) == "5.70e-01"
    assert format_scientific(-0.0024) == "-2.4000e-03"
    assert format_scientific(Fraction(0)) == "0.0000e+00"


def test_format_scientific_half_way_rationals():
    # exact rationals round from the true decimal value, ties away from zero
    assert format_scientific(Fraction(1, 256)) == "3.9063e-03"
    assert format_scientific(Fraction(105219, 2000000)) == "5.2610e-02"
    assert format_scientific(-Fraction(1, 256)) == "-3.9063e-03"
    # a rounding carry that ripples through every digit
    assert format_scientific(Fraction(999995, 10**7)) == "1.0000e-01"
    # the float formatter keeps its own convention (ties to even on the
    # binary value); 1/256 is exactly representable, so the two paths split
    assert format_scientific(1 / 256) == "3.9062e-03"


def _pmf_by_enumeration(values):
    """Reference: the mass of each count, summed over all 2^n outcomes."""
    n = len(values)
    pmf = [Fraction(0)] * (n + 1)
    for mask in range(1 << n):
        atom = Fraction(1)
        for j, a in enumerate(values):
            atom *= a if mask >> j & 1 else 1 - a
        pmf[bin(mask).count("1")] += atom
    return pmf


@pytest.mark.parametrize(
    "values",
    [
        [Fraction(1, 3), Fraction(2, 7), Fraction(999999, 10**6)],
        [Fraction(0), Fraction(1, 3), Fraction(1), Fraction(2, 7)],
        [Fraction(1), Fraction(1)],
        [Fraction(3, 8)],
        [Fraction(0)],
    ],
)
def test_poisson_binomial_pmf_exact_matches_enumeration(values):
    pmf = poisson_binomial_pmf(values)
    assert pmf.dtype == object
    assert all(type(v) is Fraction for v in pmf)
    assert list(pmf) == _pmf_by_enumeration(values)


def test_poisson_binomial_pmf_empty_keeps_its_mode():
    exact = poisson_binomial_pmf(np.array([], dtype=object))
    assert exact.dtype == object and list(exact) == [1] and type(exact[0]) is Fraction
    floating = poisson_binomial_pmf([])
    assert floating.dtype == np.float64 and floating.tolist() == [1.0]


def test_format_scientific_rejects_no_digits():
    for digits in (0, -2):
        with pytest.raises(ValueError, match="sig_digits must be >= 1"):
            format_scientific(0.5, digits)
        with pytest.raises(ValueError, match="sig_digits must be >= 1"):
            format_scientific(Fraction(1, 3), digits)

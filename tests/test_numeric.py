"""Unit tests for the shared numeric helpers."""

import decimal
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from nearwise import numeric
from nearwise.numeric import (
    atom_products_dense,
    binom_or_zero,
    close,
    dense_blocks,
    format_scaled,
    format_scientific,
    is_exact,
    mode_dtype,
    over,
    poisson_binomial_pmf,
    popcount_table,
    prefix_atom,
    ratio,
    rescaled,
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


def test_is_exact_explicit_wins_else_any_fraction():
    half = Fraction(1, 2)
    assert is_exact([0.3, half]) and is_exact([half, 0.3]) and is_exact((half,))
    assert not is_exact([0.3, 1]) and not is_exact([])
    assert not is_exact([half], exact=False) and is_exact([0.3], exact=True)
    # an array by its dtype, with no scan: an empty exact array stays exact
    assert is_exact(np.array([], dtype=object)) and not is_exact(np.zeros(3))


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


@pytest.mark.parametrize(
    "values",
    [
        [0.0, 0.3, 0.6],
        [0.2, 0.7, 1.0],
        [0.0, 0.0],
        [1.0, 1.0],
        [1e-300] * 6 + [0.4, 0.9],
        [0.5] * 2000,
    ],
    ids=["zero", "one", "zeros", "ones", "1e-300", "2000-halves"],
)
def test_prefix_atom_float_equals_the_frexp_route(values):
    """One ``Fraction`` from the mantissa's integer ratio and the kept
    exponent equals the mantissa times ``Fraction(2) ** exponent``, at t = 0,
    t = n and between, for exponents above 0 and past -1074."""
    from conftest import frexp_prefix_atom

    n = len(values)
    for t in sorted({0, 1, n // 2, n - 1, n}):
        got = prefix_atom(values, t)
        assert type(got) is Fraction and got == frexp_prefix_atom(values, t)


def test_prefix_atom_exact():
    values = [Fraction(1, 10), Fraction(1, 5)]
    assert prefix_atom(values, 1) == Fraction(1, 10) * Fraction(4, 5)
    assert isinstance(prefix_atom(values, 0), Fraction)


def test_atom_products_dense_matches_prefix_atoms_bitwise():
    """The dense table and the prefix helper must agree bit for bit."""
    values = [0.13, 0.37, 0.52, 0.81]
    atoms, scale = atom_products_dense(values)
    assert scale == 1 and atoms.dtype == np.float64  # the numerators are the values
    assert atoms.shape == (16,)
    assert math.isclose(float(np.sum(atoms)), 1.0, rel_tol=1e-15)
    for t in range(5):
        mask = (1 << t) - 1
        assert atoms[mask] == prefix_atom(values, t)


def test_atom_products_dense_exact_normalizes():
    values = [Fraction(1, 3), Fraction(2, 7)]
    numerators, scale = atom_products_dense(values)
    assert numerators.dtype == object and scale == 21
    assert all(type(v) is int for v in numerators)
    atoms = over(numerators, scale)
    assert sum(atoms, Fraction(0)) == 1
    assert atoms[0b11] == Fraction(1, 3) * Fraction(2, 7)


def test_subset_products_dense():
    values = [0.5, 0.25, 0.125]
    prods, scale = subset_products_dense(values)
    assert scale == 1
    assert prods[0] == 1.0
    assert prods[0b011] == 0.5 * 0.25
    assert prods[0b111] == (1.0 * 0.5) * 0.25 * 0.125
    exact = over(*subset_products_dense([Fraction(1, 2), Fraction(1, 4)]))
    assert exact[0b10] == Fraction(1, 4)


def test_over_is_the_one_exit_for_scalars_and_arrays():
    assert over(3, 12) == Fraction(1, 4) and type(over(3, 12)) is Fraction
    assert type(over(np.float64(0.25), 1)) is float
    floats = np.array([0.5, 0.25])
    assert over(floats, 1) is floats
    assert over(floats, 2).tolist() == [0.25, 0.125]  # as a float numerator over 2 is
    exact = over(np.array([1, 3], dtype=object), 4)
    assert list(exact) == [Fraction(1, 4), Fraction(3, 4)]
    assert all(type(v) is Fraction for v in exact)


def _dense_by_concatenation(values, atoms: bool):
    """Reference: the doubling by concatenation, a new table per value, as
    (table, scale); ``atoms`` picks the atom table, else the subset products."""
    table, scale = np.ones(1, dtype=mode_dtype(values)), 1
    for a in values:
        p, d = ratio(a)
        unset = table * (d - p) if atoms else rescaled(table, d)
        table = np.concatenate([unset, table * p])
        scale *= d
    return table, scale


#: Marginals where rounding and underflow show: 0 and 1, the smallest
#: subnormals, the largest double below 1, and values that tie.
_EDGE_MARGINALS = [0.0, 1.0, 5e-324, 1e-323, 2.2e-308, 1 - 2**-53, 1 - 2**-52, 0.5, 0.3, 0.3]


@pytest.mark.parametrize("dense, atoms", [(atom_products_dense, True), (subset_products_dense, False)])
def test_dense_tables_bit_identical_to_concatenation(dense, atoms):
    rng = random.Random(29)
    for n in range(19):
        for values in (
            [rng.choice(_EDGE_MARGINALS) for _ in range(n)],
            [rng.random() for _ in range(n)],
        ):
            table, scale = dense(values)
            ref, ref_scale = _dense_by_concatenation(values, atoms)
            assert (table.dtype, scale) == (ref.dtype, ref_scale) == (np.float64, 1)
            assert table.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dense, atoms", [(atom_products_dense, True), (subset_products_dense, False)])
def test_dense_tables_exact_on_mixed_denominators(dense, atoms):
    rng = random.Random(31)
    for n in range(1, 11):
        values = []
        for _ in range(n):
            d = rng.choice([1, 2, 3, 7, 12, 10**6])
            values.append(Fraction(rng.randint(0, d), d))
        table, scale = dense(values)
        ref, ref_scale = _dense_by_concatenation(values, atoms)
        assert table.dtype == object and scale == ref_scale
        assert list(table) == list(ref)
        assert all(type(v) is int for v in table)


def _joined_blocks(low, values, **kwargs):
    """The blocks of :func:`dense_blocks` joined in mask order, checking the
    starts on the way."""
    parts, expected_start = [], 0
    for start, block in dense_blocks(low, values, **kwargs):
        assert start == expected_start
        parts.append(block.copy())
        expected_start += block.size
    assert expected_start == 1 << len(values)
    return np.concatenate(parts)


@pytest.mark.parametrize("dense, atoms", [(atom_products_dense, True), (subset_products_dense, False)])
def test_dense_blocks_extend_a_low_table_bit_for_bit(dense, atoms):
    """Blocks from a table over the first few values equal the whole table,
    at every split, in both modes and with a factor."""
    rng = random.Random(37)
    for n in range(1, 11):
        for values in ([rng.choice(_EDGE_MARGINALS) for _ in range(n)], [rng.random() for _ in range(n)]):
            full, _ = dense(values)
            for bits in range(n + 1):
                low, _ = dense(values[:bits])
                low.setflags(write=False)
                joined = _joined_blocks(low, values, atoms=atoms)
                assert joined.tobytes() == full.tobytes()
    values = [Fraction(rng.randint(0, 12), 12) for _ in range(9)]
    full, scale = dense(values)
    low, low_scale = dense(values[:4])
    assert scale == low_scale * math.prod(v.denominator for v in values[4:])
    assert _joined_blocks(low, values, atoms=atoms, factor=7).tolist() == [7 * v for v in full.tolist()]


def test_dense_blocks_above_one_superset_block():
    """Above ``_CACHE_BITS`` the blocks are ``_SCRATCH`` entries of one
    buffer, and every entry keeps the whole table's bits."""
    rng = random.Random(41)
    n = numeric._CACHE_BITS + 2
    values = [rng.choice(_EDGE_MARGINALS) for _ in range(numeric._CACHE_BITS)]
    values += [rng.random(), rng.random()]  # factors that round
    low, _ = atom_products_dense(values[: numeric._CACHE_BITS])
    sizes = {block.size for _, block in dense_blocks(low, values)}
    assert sizes == {numeric._SCRATCH}
    assert _joined_blocks(low, values).tobytes() == atom_products_dense(values)[0].tobytes()


def _peak_bytes(call):
    """``call()`` and the peak of the memory it allocated, from tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("dense", [atom_products_dense, subset_products_dense])
def test_dense_tables_are_filled_in_place(dense):
    values = [0.05 * (j + 1) for j in range(16)]
    (table, _), peak = _peak_bytes(lambda: dense(values))
    assert peak <= 1.1 * table.nbytes


def test_superset_sums_allocate_only_their_result():
    for n in (16, numeric._CACHE_BITS + 1):  # one block, then blocked low passes
        atoms = np.random.default_rng(5).random(1 << n)
        sums, peak = _peak_bytes(lambda: superset_sums(atoms, n))
        assert peak <= 1.1 * sums.nbytes


def test_superset_sums_in_place_allocate_nothing():
    n = numeric._CACHE_BITS + 1
    atoms = np.random.default_rng(5).random(1 << n)
    want = superset_sums(atoms, n)
    _, peak = _peak_bytes(lambda: numeric.superset_sums_in_place(atoms, n))
    assert peak < 0.01 * atoms.nbytes
    assert atoms.tobytes() == want.tobytes()


def test_superset_sums_restore_numpy_buffer_size_when_a_pass_raises():
    bufsize = np.getbufsize()
    with pytest.raises(ValueError):
        superset_sums(np.zeros(3), 2)  # no 2-bit table: the first pass raises
    assert np.getbufsize() == bufsize


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
    """Also above ``_CACHE_BITS``, where the low passes run block by block."""
    rng = np.random.default_rng(41)
    bufsize = np.getbufsize()
    for n in range(21):
        atoms = rng.random(1 << n) - 0.25
        sums = superset_sums(atoms, n)
        assert np.getbufsize() == bufsize
        assert sums.dtype == np.float64
        assert sums.tobytes() == _superset_sums_per_bit(atoms, n).tobytes()


def test_superset_sums_of_integers_equal_the_per_bit_loop():
    rng = random.Random(43)
    for n in [*range(11), numeric._CACHE_BITS + 1]:
        atoms = np.array([rng.randint(-10**30, 10**30) for _ in range(1 << n)], dtype=object)
        sums = superset_sums(atoms, n)
        assert sums.dtype == object and all(type(v) is int for v in sums)
        assert list(sums) == list(_superset_sums_per_bit(atoms, n))


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
    pmf, scale = poisson_binomial_pmf([0.5, 0.5])
    assert scale == 1
    assert np.allclose(pmf, [0.25, 0.5, 0.25])
    numerators, scale = poisson_binomial_pmf([Fraction(1, 2)] * 3)
    assert scale == 8 and numerators.tolist() == [1, 3, 3, 1]
    exact = over(numerators, scale)
    assert list(exact) == [Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)]


def test_poisson_binomial_pmf_heterogeneous():
    pmf, _ = poisson_binomial_pmf([0.1, 0.7])
    assert math.isclose(pmf[0], 0.9 * 0.3)
    assert math.isclose(pmf[1], 0.1 * 0.3 + 0.9 * 0.7)
    assert math.isclose(pmf[2], 0.1 * 0.7)
    assert math.isclose(float(np.sum(pmf)), 1.0)


def test_poisson_binomial_pmf_edge_entries_are_ascending_products():
    values = [0.3, 0.6, 0.9]
    pmf, _ = poisson_binomial_pmf(values)
    assert pmf[0] == prefix_atom(values, 0)
    assert pmf[3] == prefix_atom(values, 3)


def test_suffix_sums():
    pmf, _ = poisson_binomial_pmf([0.5, 0.5])
    tails = suffix_sums(pmf)
    assert tails[0] == 1.0
    assert math.isclose(tails[1], 0.75)
    numerators, scale = poisson_binomial_pmf([Fraction(1, 2)] * 2)
    # sums of numerators stay over the same scale
    assert suffix_sums(numerators).tolist() == [4, 3, 1] and scale == 4
    assert list(over(suffix_sums(numerators), scale)) == [1, Fraction(3, 4), Fraction(1, 4)]


def test_cumulative_sums_same_order_for_arrays_and_lists():
    values = [0.1, 0.2, 0.3, 1e-17, 0.7, 1e16, -1e16]
    from_list = suffix_sums(values)
    assert from_list.tolist() == list(accumulate(values[::-1]))[::-1]
    assert from_list.tolist() == suffix_sums(np.array(values)).tolist()


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


def test_format_scaled_reads_an_unreduced_pair_as_its_fraction():
    rng = random.Random(37)
    for _ in range(2000):
        num, scale = rng.randint(-10**12, 10**12), rng.randint(1, 10**12)
        common, digits = rng.choice([1, 2, 10**6, 3**20]), rng.randint(1, 8)
        expected = format_scientific(Fraction(num, scale), digits)
        assert format_scaled(num * common, scale * common, digits) == expected
    assert format_scaled(256, 65536) == format_scientific(Fraction(1, 256)) == "3.9063e-03"
    assert format_scaled(0, 7) == format_scaled(-0.0, 1) == "0.0000e+00"
    assert format_scaled(0.56953279, 1, 3) == format_scientific(0.56953279, 3)


def _decimal_format_scaled(num: int, scale: int, sig_digits: int) -> str:
    """Reference: the ``decimal`` routine ``format_scaled`` used for int
    pairs, one correctly rounded ``Decimal`` quotient, ties away from zero."""
    if num == 0:
        return f"{0.0:.{sig_digits - 1}e}"
    context = decimal.Context(prec=sig_digits, rounding=decimal.ROUND_HALF_UP)
    quotient = context.divide(decimal.Decimal(num), decimal.Decimal(scale))
    mantissa, _, exponent = f"{quotient:.{sig_digits - 1}e}".partition("e")
    return f"{mantissa}e{int(exponent):+03d}"


def test_format_scaled_gives_the_digits_of_the_decimal_routine():
    cases = [
        (1, 256, 5),  # a tie: 3.90625e-03
        (-1, 256, 5),
        (999995, 100000, 5),  # a carry: 9.99995 -> 1.0000e+01
        (-999995, 100000, 5),
        (999995, 10**7, 5),
        (95, 10, 1),  # a carry at one digit: 9.5 -> 1e+01
        (1, 3, 17),
        (10**300, 1, 5),
        (1, 10**300, 5),
        (5, 2**1100, 17),  # past float range
        (10**20 - 1, 10**20, 5),  # just below a power of ten
        (10**20 + 1, 10**20, 5),  # just above one
    ]
    rng = random.Random(2435)
    for _ in range(3000):
        bits = rng.choice([8, 64, 400, 4000])
        scale = rng.randint(1, 2**bits)
        num = rng.randint(-scale, scale) * rng.choice([1, 1, 10**rng.randint(1, 40)])
        cases.append((num, scale, rng.randint(1, 17)))
    # the 18,372-bit scale of exact sharp_bounds at n = 1,000, k = 500
    scale = 10**6 * 2**18352
    cases += [(scale // 3, scale, 5), (-(scale // 7), scale, 17), (1, scale, 5)]
    for num, scale, digits in cases:
        assert format_scaled(num, scale, digits) == _decimal_format_scaled(num, scale, digits), (
            num, scale, digits,
        )
    assert format_scaled(999995, 100000) == "1.0000e+01"
    assert format_scaled(-1, 256) == "-3.9063e-03"


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit before 3.10.7"
)
def test_format_scaled_past_the_int_to_str_digit_limit_needs_it_lifted():
    """Digits past Python's int-to-str limit raise its ``ValueError``; with
    the limit lifted they are the ``decimal`` routine's."""
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        assert format_scientific(Fraction(1, 3), 4300) == _decimal_format_scaled(1, 3, 4300)
        with pytest.raises(ValueError, match="integer string conversion"):
            format_scientific(Fraction(1, 3), 4301)
        sys.set_int_max_str_digits(0)
        for num, scale in ((1, 3), (-2, 3), (10**6 * 2**18352 // 7, 10**6 * 2**18352)):
            assert format_scaled(num, scale, 5000) == _decimal_format_scaled(num, scale, 5000)
    finally:
        sys.set_int_max_str_digits(limit)


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
    numerators, scale = poisson_binomial_pmf(values)
    assert numerators.dtype == object and all(type(v) is int for v in numerators)
    assert scale == math.prod(v.denominator for v in values)
    pmf = over(numerators, scale)
    assert all(type(v) is Fraction for v in pmf)
    assert list(pmf) == _pmf_by_enumeration(values)


def test_poisson_binomial_pmf_empty_keeps_its_mode():
    exact = over(*poisson_binomial_pmf(np.array([], dtype=object)))
    assert exact.dtype == object and list(exact) == [1] and type(exact[0]) is Fraction
    floating = over(*poisson_binomial_pmf([]))
    assert floating.dtype == np.float64 and floating.tolist() == [1.0]


def test_format_scientific_rejects_no_digits():
    for digits in (0, -2):
        with pytest.raises(ValueError, match="sig_digits must be >= 1"):
            format_scientific(0.5, digits)
        with pytest.raises(ValueError, match="sig_digits must be >= 1"):
            format_scientific(Fraction(1, 3), digits)
        with pytest.raises(ValueError, match="sig_digits must be >= 1"):
            format_scaled(1, 3, digits)


def _pmf_by_event_slices(values):
    """Reference: the convolution with views cut to ``i + 1`` for each event."""
    pmf = np.zeros(len(values) + 1, dtype=numeric.mode_dtype(values))
    pmf[0] = 1
    scale = 1
    for i, a in enumerate(values):
        p, d = ratio(a)
        up = pmf[: i + 1] * p
        pmf[: i + 1] *= d - p
        pmf[1 : i + 2] += up
        scale *= d
    return pmf, scale


_W = numeric._WINDOW
_KERNEL_SIZES = [0, 1, _W - 1, _W, _W + 1, 2 * _W + 1, 200]


@pytest.mark.parametrize("n", _KERNEL_SIZES)
@pytest.mark.parametrize("as_array", [False, True])
def test_poisson_binomial_pmf_float_matches_the_per_event_loop(n, as_array):
    """Same bits, sign bits of zeros included, on edge values and ties."""
    rng = random.Random(n)
    edges = [0.0, 1.0, 5e-324, 1 - 2.0**-53, 0.5, 0.5]
    values = sorted(rng.choice(edges) if rng.random() < 0.4 else rng.random() for _ in range(n))
    values = np.array(values, dtype=float) if as_array else tuple(values)
    got, scale = poisson_binomial_pmf(values)
    expected, _ = _pmf_by_event_slices(values)
    assert scale == 1 and got.dtype == np.float64
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


@pytest.mark.parametrize("n", [k for k in _KERNEL_SIZES if k <= 40] + [40])
@pytest.mark.parametrize("as_array", [False, True])
def test_poisson_binomial_pmf_exact_matches_the_per_event_loop(n, as_array):
    rng = random.Random(n)
    values = sorted(Fraction(rng.randint(0, 10**6), 10**6) for _ in range(n))
    values = np.array(values, dtype=object) if as_array else tuple(values)
    got, scale = poisson_binomial_pmf(values)
    expected, expected_scale = _pmf_by_event_slices(values)
    # an empty tuple holds no Fraction, so it convolves in floats
    assert got.dtype == (object if n or as_array else np.float64)
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert scale == expected_scale and got.tolist() == expected.tolist()

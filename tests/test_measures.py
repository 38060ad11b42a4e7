"""Unit tests for the one-parameter measure family and its invariants."""

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import atom_product, joint_probability, measure_to_dict, parity_construction
from nearwise import (
    CapExceededError,
    FeasibilityError,
    build_measure,
    from_raw,
    mask_indices,
    original_subset,
    s_interval,
    subset_labels,
    subset_mask,
)
from nearwise import measures
from nearwise.measures import AtomicMeasure, product_atoms
from nearwise.numeric import atom_products_dense, over, subset_products_dense
from nearwise.oracle import subset_products, verify_measure


def test_subset_mask_round_trip():
    assert subset_mask([1, 3]) == 0b101
    assert mask_indices(0b101) == (1, 3)
    assert subset_mask([]) == 0
    assert mask_indices(0) == ()
    with pytest.raises(ValueError, match="1-based"):
        subset_mask([0])


def test_original_subset_translates_through_permutation():
    profile = from_raw([0.3, 0.1])
    # sorted position 1 holds the value that was input position 2
    assert original_subset(profile, 0b01) == (2,)
    assert original_subset(profile, 0b10) == (1,)
    assert original_subset(profile, 0b11) == (1, 2)


def test_negative_masks_are_rejected():
    # -1 >> 1 is -1, so a negative mask has no last bit to stop at
    with pytest.raises(ValueError, match="nonnegative"):
        mask_indices(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        original_subset(from_raw([0.3, 0.1]), -1)


@pytest.mark.parametrize("seed", range(3))
def test_subset_labels_equal_original_subset_for_every_mask(seed):
    rng = random.Random(seed)
    for n in range(1, 13 if seed else 16):  # n = 15 spans two label batches
        values = [rng.choice([0.1, 0.25, 0.25, 0.5, 0.5]) for _ in range(n)]  # ties
        values[rng.randrange(n)] = rng.random()
        profile = from_raw(values)
        subsets = [original_subset(profile, mask) for mask in range(1 << n)]
        assert list(subset_labels(profile, (), lambda i: (i,))) == subsets
        assert list(subset_labels(profile, ";")) == [";".join(map(str, t)) for t in subsets]
        exact = from_raw([Fraction(v).limit_denominator(100) for v in values], exact=True)
        assert list(subset_labels(exact, " ", "<{}>".format)) == [
            " ".join(f"<{i}>" for i in subset) for subset in subsets
        ]


def test_subset_labels_follow_a_shuffled_input():
    profile = from_raw([0.4, 0.1, 0.3, 0.1])  # sorted: 0.1 (input 2), 0.1 (4), 0.3 (3), 0.4 (1)
    assert list(subset_labels(profile))[:8] == ["", "2", "4", "2,4", "3", "2,3", "3,4", "2,3,4"]
    assert list(subset_labels(profile))[-1] == "1,2,3,4"
    with pytest.raises(CapExceededError):
        next(subset_labels(from_raw([0.5] * 21)))


def test_input_masks_are_filled_in_place():
    """One int64 table of 2^n masks by doubling: concatenating a doubled copy
    per event peaks at two tables."""
    rng = random.Random(16)
    values = [rng.random() for _ in range(16)]
    profile = from_raw(values)
    expected = [
        sum(1 << (i - 1) for i in original_subset(profile, mask)) for mask in range(1 << 16)
    ]
    tracemalloc.start()
    try:
        masks = measures._input_masks(profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert masks.dtype == np.int64 and masks.tolist() == expected
    assert peak <= 1.1 * masks.nbytes


def test_s_interval_is_computed_once_per_profile(monkeypatch):
    calls = []
    original = measures._leading_pairs
    monkeypatch.setattr(measures, "_leading_pairs", lambda a: calls.append(a) or original(a))
    profile = from_raw([0.25, 0.5, 0.75])
    assert s_interval(profile) is s_interval(profile)
    assert len(calls) == 2  # p and m, once each
    exact = from_raw([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)], exact=True)
    assert exact == profile  # equal, but an exact profile keeps its own interval
    assert type(s_interval(exact).s_max) is Fraction
    assert len(calls) == 4


def test_atom_product_matches_dense_table():
    profile = from_raw([0.13, 0.55, 0.72])
    dense, scale = atom_products_dense(profile.sorted_values)
    assert scale == 1  # float numerators are the values
    for mask in range(8):
        assert atom_product(profile, mask) == dense[mask]


def test_invariants_on_known_profiles():
    for values, p, m in (
        ([0.1, 0.2, 0.3, 0.4], 1, 2), ([0.6, 0.7, 0.8], 0, 0), ([0.5] * 4, 1, 2), ([0.2], 0, 0)
    ):
        iv = s_interval(from_raw(values))
        assert (iv.p, iv.m) == (p, m), values


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9))
def test_invariant_m_is_p_or_p_plus_one(values):
    profile = from_raw(values)
    iv = s_interval(profile)
    p, m = iv.p, iv.m
    assert m in (p, p + 1)
    assert 0 <= p <= (profile.n - 1) // 2
    assert 0 <= m <= profile.n // 2


def test_s_interval_uniform_half():
    iv = s_interval(from_raw([0.5, 0.5, 0.5]))
    assert iv.s_min == -0.125
    assert iv.s_max == 0.125
    assert (iv.p, iv.m) == (1, 1)
    assert not iv.is_collapsed


def test_s_interval_mixed_profile():
    iv = s_interval(from_raw([0.1, 0.2, 0.3, 0.4]))
    assert abs(iv.s_min - -0.0024) < 1e-15
    assert abs(iv.s_max - 0.0036) < 1e-15
    assert (iv.p, iv.m) == (1, 2)


def test_s_interval_degenerate_and_single_event():
    iv = s_interval(from_raw([0.0, 0.5]))
    assert iv.s_min == 0.0 and iv.s_max == 0.0
    assert iv.is_collapsed
    # A lone event leaves no freedom at all: the marginal pins the measure.
    solo = s_interval(from_raw([0.3]))
    assert (solo.s_min, solo.s_max) == (0.0, 0.0)
    exact = s_interval(from_raw([Fraction(1, 2)] * 5, exact=True))
    assert exact.s_max == Fraction(1, 32)
    assert exact.s_min == -Fraction(1, 32)


def test_float_endpoints_keep_the_bits_of_the_plain_product():
    """Each float endpoint is the ascending product of its prefix atom's
    factors.  Where the plain float product (the conftest reference) is a
    normal double, the endpoint is that double; on profiles with marginals
    near 1e-200 it is subnormal or 0.0, and the endpoint still keeps the
    exact product of the float factors to a relative n * 2^-53."""
    rng = random.Random(1075)
    normal = 0
    for i in range(400):
        n = rng.randint(2, 60)
        tiny = i >= 300  # the last 100 profiles lead with marginals near 1e-200
        values = [10.0 ** -rng.uniform(150, 250) if tiny and j < 3 else rng.random()
                  for j in range(n)]
        profile = from_raw(values)
        iv = s_interval(profile)
        for endpoint, t in ((-iv.s_min, 2 * iv.m), (iv.s_max, 2 * iv.p + 1)):
            assert type(endpoint) is Fraction
            plain = atom_product(profile, (1 << t) - 1)
            if plain >= sys.float_info.min:
                normal += 1
                assert endpoint == plain
            factors = [a if j < t else 1 - a for j, a in enumerate(profile.sorted_values)]
            exact = math.prod(map(Fraction, factors))
            assert abs(endpoint - exact) <= Fraction(n, 2**53) * exact
    assert normal >= 600


def test_build_measure_product_at_zero():
    profile = from_raw([0.2, 0.7])
    measure = build_measure(profile, 0.0)
    assert np.array_equal(measure.atom_probs, over(*atom_products_dense(profile.sorted_values)))
    assert measure.s == 0.0
    assert abs(measure.total() - 1.0) < 1e-15
    assert not measure.exact


def test_float_numerators_over_a_scale_read_the_same_in_every_accessor():
    measure = AtomicMeasure(2, np.ones(4), scale=4)
    assert measure.atom_probs.tolist() == [measure.atom(mask) for mask in range(4)] == [0.25] * 4
    assert measure.total() == 1.0


def test_build_measure_endpoint_has_exact_zero_atom():
    profile = from_raw([0.3, 0.4, 0.2])
    iv = s_interval(profile)
    measure = build_measure(profile, iv.s_max)
    assert measure.atom_probs[(1 << (2 * iv.p + 1)) - 1] == 0.0
    assert float(np.min(measure.atom_probs)) == 0.0


def _reference_atoms(profile, s):
    """A fresh product table plus (-1)^|J| s, signs taken mask by mask."""
    table = over(*atom_products_dense(profile.sorted_values))
    signs = [1 - 2 * (bin(mask).count("1") % 2) for mask in range(1 << profile.n)]
    if profile.exact:
        return [b + sign * s for b, sign in zip(table, signs)]
    # a float s, as build_measure reads a Fraction endpoint in floating mode
    return table + np.asarray(signs, dtype=float) * float(s)


@pytest.mark.parametrize(
    "s, dtype", [(0.0, float), (-0.0, float), (-3.25e-7, float), (-5e-324, float), (0.125, float),
                 (0, object), (-7, object), (10**40 + 1, object)]
)
def test_signed_offsets_by_doubling_match_the_parity_select(s, dtype):
    for n in range(0, 12):
        odd = np.array([bin(mask).count("1") % 2 == 1 for mask in range(1 << n)])
        expected = np.where(odd, np.array(-s, dtype=dtype), np.array(s, dtype=dtype))
        offsets = measures._signed_offsets(n, s, dtype)
        assert offsets.dtype == expected.dtype
        if dtype is object:
            assert offsets.tolist() == expected.tolist()
            assert all(type(v) is int for v in offsets.tolist())
        else:
            assert offsets.tobytes() == expected.tobytes()


@pytest.mark.parametrize("exact", [False, True])
def test_build_measure_matches_fresh_table_plus_offsets(exact):
    profile = from_raw([0.15, 0.3, 0.45, 0.5, 0.8, 0.9], exact=exact)
    iv = s_interval(profile)
    zero = Fraction(0) if exact else 0.0
    for s in (iv.s_min, zero, (iv.s_min + iv.s_max) / 2, iv.s_max):
        atoms = build_measure(profile, s).atom_probs
        expected = _reference_atoms(profile, s)
        if exact:
            assert list(atoms) == expected
        else:
            assert atoms.tobytes() == expected.tobytes()


def test_build_measure_builds_the_product_table_once(monkeypatch):
    calls = []

    def counting(values):
        calls.append(len(values))
        return atom_products_dense(values)

    monkeypatch.setattr(measures, "atom_products_dense", counting)
    profile = from_raw([0.2, 0.4, 0.7])
    iv = s_interval(profile)
    for s in (iv.s_min, 0.0, iv.s_max):
        build_measure(profile, s)
    assert product_atoms(profile) is product_atoms(profile)
    assert calls == [3]
    build_measure(from_raw([0.2, 0.4, 0.7]), 0.0)  # a new profile builds its own
    assert calls == [3, 3]


def test_profile_tables_are_read_only():
    profile = from_raw([0.25, 0.5, 0.6])
    for table, _ in (product_atoms(profile), subset_products(profile)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5
    exact = from_raw([Fraction(1, 4), Fraction(1, 2)], exact=True)
    for table, _ in (product_atoms(exact), subset_products(exact)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = Fraction(1, 2)
    # a built measure owns its atoms; the shared table stays untouched
    assert not np.shares_memory(build_measure(profile, 0.0).atom_probs, product_atoms(profile)[0])


def test_equal_float_and_exact_profiles_keep_their_own_tables():
    values = [0.5, 0.25]
    floating = from_raw(values)
    exact = from_raw([Fraction(1, 2), Fraction(1, 4)], exact=True)
    assert floating == exact and hash(floating) == hash(exact)
    # build the float tables first: an equality-keyed cache would hand them on
    assert product_atoms(floating)[0].dtype == np.float64
    assert subset_products(floating)[0].dtype == np.float64
    for table, scale in (product_atoms(exact), subset_products(exact)):
        assert table.dtype == object and not table.flags.writeable
        # integer numerators over the product of the denominators
        assert scale == 8 and all(type(v) is int for v in table)
        assert all(type(v) is Fraction for v in over(table, scale))
    assert list(over(*product_atoms(exact))) == list(
        over(*atom_products_dense(exact.sorted_values))
    )
    assert list(over(*subset_products(exact))) == list(
        over(*subset_products_dense(exact.sorted_values))
    )


def test_build_measure_rejects_infeasible_s():
    profile = from_raw([0.5, 0.5, 0.5])
    with pytest.raises(FeasibilityError, match="outside the feasible interval"):
        build_measure(profile, 0.2)
    with pytest.raises(FeasibilityError, match="would be negative"):
        build_measure(profile, -0.2)
    # the atom is named in input indices: sorted event 1 is input event 2 (0.1)
    with pytest.raises(FeasibilityError, match=r"atom \{2\} would be negative"):
        build_measure(from_raw([0.9, 0.1, 0.5]), 0.2)


def test_build_measure_validation_slack_and_clamp():
    profile = from_raw([0.5, 0.5, 0.5])
    # 5e-13 of the interval's larger end beyond it is inside the tolerance
    # band and clamps to 0; 5e-13 in absolute terms is 4e-12 of it, outside.
    measure = build_measure(profile, 0.125 * (1 + 5e-13))
    assert float(np.min(measure.atom_probs)) == 0.0
    with pytest.raises(FeasibilityError):
        build_measure(profile, 0.125 + 5e-13)


def test_float_band_is_relative_to_a_narrow_interval():
    """At twelve marginals of 0.01 the interval is [-1e-24, 9.9e-23]: an s
    of 5e-13 lies far outside it, however small it is in absolute terms."""
    profile = from_raw([0.01] * 12)
    assert s_interval(profile).s_max < 1e-22
    with pytest.raises(FeasibilityError, match="violates s_max"):
        build_measure(profile, 5e-13)


def test_build_measure_unvalidated_shows_negative_atoms():
    profile = from_raw([0.5, 0.5, 0.5])
    measure = build_measure(profile, 0.2, validate=False)
    assert float(np.min(measure.atom_probs)) < 0


def test_build_measure_exact_requires_exact_s():
    profile = from_raw([Fraction(1, 2)] * 2, exact=True)
    with pytest.raises(TypeError, match="exact s"):
        build_measure(profile, 0.1)
    measure = build_measure(profile, Fraction(1, 4))
    assert measure.exact
    assert list(measure.atom_probs) == [Fraction(1, 2), 0, 0, Fraction(1, 2)]


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
def test_build_measure_rejects_non_finite_s(s):
    with pytest.raises(ValueError, match="s must be finite"):
        build_measure(from_raw([0.5, 0.5]), s)


@pytest.mark.parametrize("exact", [False, True])
def test_atomic_measure_takes_any_container_as_a_read_only_array(exact):
    if exact:
        profile = from_raw([Fraction(1, 3), Fraction(1, 2)], exact=True)
        atoms = [Fraction(1, 3), Fraction(1, 6), Fraction(1, 3), Fraction(1, 6)]
    else:
        profile = from_raw([1 / 3, 0.5])
        atoms = [1 / 3, 1 / 6, 1 / 3, 1 / 6]
    reports = []
    for given in (tuple(atoms), list(atoms), np.array(atoms)):
        measure = AtomicMeasure(n=2, atom_probs=given)
        assert isinstance(measure.atom_probs, np.ndarray)
        assert not measure.atom_probs.flags.writeable
        assert measure.exact == exact
        assert list(measure.atom_probs) == atoms
        reports.append(verify_measure(measure, profile))
    assert reports[0] == reports[1] == reports[2]
    # a writable array is copied, so the caller can neither see nor make a change
    given = np.array(atoms)
    measure = AtomicMeasure(n=2, atom_probs=given)
    given[0] = given[1]
    assert list(measure.atom_probs) == atoms


def test_atomic_measure_mixed_input_is_exact_in_either_order():
    atoms = [Fraction(1, 4), 0.25, 0.125, 0.375]
    for given in (atoms, atoms[::-1]):
        measure = AtomicMeasure(n=2, atom_probs=given)
        assert measure.exact and measure.scale == 8
        # a float enters by its exact binary value
        assert list(measure.atom_probs) == [Fraction(v) for v in given]


def test_build_measure_enumeration_cap():
    profile = from_raw([0.5] * 21)
    with pytest.raises(CapExceededError, match="n <= 20"):
        build_measure(profile, 0.0)


def test_atomic_measure_accessors():
    measure = build_measure(from_raw([0.5, 0.5]), 0.25)
    assert measure.atom(0b00) == 0.5
    assert measure.atom(0b01) == 0.0
    assert measure.total() == 1.0


def test_parity_construction_even_kills_odd_atoms():
    measure = parity_construction(3, "even")
    atoms = measure.atom_probs
    assert atoms[0b000] == 0.25 and atoms[0b011] == 0.25
    assert atoms[0b001] == 0.0 and atoms[0b111] == 0.0
    assert measure.s == 2.0 ** -3


def test_parity_construction_odd():
    measure = parity_construction(3, "odd")
    atoms = measure.atom_probs
    assert atoms[0b000] == 0.0 and atoms[0b011] == 0.0
    assert atoms[0b001] == 0.25 and atoms[0b111] == 0.25


def test_parity_construction_has_order_n_minus_one():
    profile = from_raw([0.5] * 4)
    measure = parity_construction(4, "odd")
    assert verify_measure(measure, profile).independence_order == 3


def test_joint_probability_product_measure():
    profile = from_raw([0.2, 0.5, 0.8])
    measure = build_measure(profile, 0.0)
    assert abs(joint_probability(measure, 0b011) - 0.2 * 0.5) < 1e-15
    assert abs(joint_probability(measure, 0) - 1.0) < 1e-15


def _joint_by_gather(measure, mask):
    """Reference: the supersets of ``mask`` picked by a 2^n boolean mask."""
    sel = (np.arange(1 << measure.n) & mask) == mask
    return over(np.sum(measure.numerators[sel]), measure.scale)


@pytest.mark.parametrize("exact", [False, True])
def test_joint_probability_matches_the_boolean_gather(exact):
    rng = random.Random(18)
    if exact:
        n = 10
        profile = from_raw([Fraction(rng.randint(1, 999), 1000) for _ in range(n)])
        masks = range(1 << n)
    else:
        n = 18
        profile = from_raw([rng.uniform(0.05, 0.95) for _ in range(n)])
        masks = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(40)]
    interval = s_interval(profile)
    measure = build_measure(profile, (interval.s_min + interval.s_max) / 3)
    for mask in masks:
        got, expected = joint_probability(measure, mask), _joint_by_gather(measure, mask)
        assert type(got) is type(expected) and got == expected


def test_joint_probabilities_shared_below_order_n():
    """Every member of the family agrees on all proper-subset joints."""
    profile = from_raw([0.3, 0.5, 0.6, 0.7])
    iv = s_interval(profile)
    base = build_measure(profile, 0.0)
    other = build_measure(profile, iv.s_max)
    for mask in range(1 << 4):
        if mask == (1 << 4) - 1:
            continue
        assert abs(joint_probability(base, mask) - joint_probability(other, mask)) < 1e-14


def test_independence_order_full_vs_family():
    profile = from_raw([0.25, 0.5, 0.75])
    assert verify_measure(build_measure(profile, 0.0), profile).independence_order == 3
    iv = s_interval(profile)
    assert verify_measure(build_measure(profile, iv.s_min), profile).independence_order == 2


def test_independence_order_detects_low_order_breakage():
    profile = from_raw([0.5, 0.5])
    atoms = np.array([0.3, 0.2, 0.2, 0.3])  # marginals ok, pair joint 0.3 != 0.25
    measure = AtomicMeasure(n=2, atom_probs=atoms)
    assert verify_measure(measure, profile).independence_order == 1


@pytest.mark.parametrize("exact", [False, True])
def test_independence_order_at_the_ends_and_inside(exact):
    profile = from_raw([0.2, 0.4, 0.5, 0.9], exact=exact)
    iv = s_interval(profile)
    for s in (iv.s_min, 0 if exact else 0.0, iv.s_max):
        order = verify_measure(build_measure(profile, s), profile).independence_order
        assert order == (4 if s == 0 else 3)


def test_measure_to_dict_schema():
    profile = from_raw([0.3, 0.1])
    measure = build_measure(profile, 0.0)
    doc = measure_to_dict(measure, profile)
    assert doc["n"] == 2
    assert doc["s"] == 0.0
    assert len(doc["atoms"]) == 4
    # subsets come back in the caller's original indexing
    assert doc["atoms"][1]["subset"] == [2]
    assert doc["atoms"][2]["subset"] == [1]
    assert abs(doc["atoms"][0]["prob"] - 0.9 * 0.7) < 1e-15

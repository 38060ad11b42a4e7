"""Unit tests for the one-parameter measure family and its invariants."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearwise import (
    CapExceededError,
    FeasibilityError,
    atom_product,
    build_measure,
    from_raw,
    independence_order,
    invariant_m,
    invariant_p,
    joint_probability,
    mask_indices,
    measure_to_dict,
    original_subset,
    parity_construction,
    s_interval,
    subset_mask,
)
from nearwise import measures
from nearwise.measures import AtomicMeasure, product_atoms
from nearwise.numeric import atom_products_dense, subset_products_dense
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


def test_atom_product_matches_dense_table():
    profile = from_raw([0.13, 0.55, 0.72])
    dense = atom_products_dense(profile.sorted_values)
    for mask in range(8):
        assert atom_product(profile, mask) == dense[mask]
    with pytest.raises(ValueError, match="subset mask"):
        atom_product(profile, 1 << 3)


def test_invariants_on_known_profiles():
    assert invariant_p(from_raw([0.1, 0.2, 0.3, 0.4])) == 1
    assert invariant_m(from_raw([0.1, 0.2, 0.3, 0.4])) == 2
    assert invariant_p(from_raw([0.6, 0.7, 0.8])) == 0
    assert invariant_m(from_raw([0.6, 0.7, 0.8])) == 0
    assert invariant_p(from_raw([0.5] * 4)) == 1
    assert invariant_m(from_raw([0.5] * 4)) == 2
    assert invariant_p(from_raw([0.2])) == 0
    assert invariant_m(from_raw([0.2])) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=9))
def test_invariant_m_is_p_or_p_plus_one(values):
    profile = from_raw(values)
    p = invariant_p(profile)
    m = invariant_m(profile)
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


def test_build_measure_product_at_zero():
    profile = from_raw([0.2, 0.7])
    measure = build_measure(profile, 0.0)
    assert np.array_equal(measure.atom_probs, atom_products_dense(profile.sorted_values))
    assert measure.s == 0.0
    assert abs(measure.total() - 1.0) < 1e-15
    assert not measure.exact


def test_build_measure_endpoint_has_exact_zero_atom():
    profile = from_raw([0.3, 0.4, 0.2])
    iv = s_interval(profile)
    measure = build_measure(profile, iv.s_max)
    assert measure.atom_probs[(1 << (2 * iv.p + 1)) - 1] == 0.0
    assert float(np.min(measure.atom_probs)) == 0.0


def _reference_atoms(profile, s):
    """A fresh product table plus (-1)^|J| s, signs taken mask by mask."""
    table = atom_products_dense(profile.sorted_values)
    signs = [1 - 2 * (bin(mask).count("1") % 2) for mask in range(1 << profile.n)]
    if profile.exact:
        return [b + sign * s for b, sign in zip(table, signs)]
    return table + np.asarray(signs, dtype=float) * s


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
    for table in (product_atoms(profile), subset_products(profile)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.5
    exact = from_raw([Fraction(1, 4), Fraction(1, 2)], exact=True)
    for table in (product_atoms(exact), subset_products(exact)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = Fraction(1, 2)
    # a built measure owns its atoms; the shared table stays untouched
    assert not np.shares_memory(build_measure(profile, 0.0).atom_probs, product_atoms(profile))


def test_equal_float_and_exact_profiles_keep_their_own_tables():
    values = [0.5, 0.25]
    floating = from_raw(values)
    exact = from_raw([Fraction(1, 2), Fraction(1, 4)], exact=True)
    assert floating == exact and hash(floating) == hash(exact)
    # build the float tables first: an equality-keyed cache would hand them on
    assert product_atoms(floating).dtype == np.float64
    assert subset_products(floating).dtype == np.float64
    for table in (product_atoms(exact), subset_products(exact)):
        assert table.dtype == object and not table.flags.writeable
        assert all(type(v) is Fraction for v in table)
    assert list(product_atoms(exact)) == list(atom_products_dense(exact.sorted_values))
    assert list(subset_products(exact)) == list(subset_products_dense(exact.sorted_values))


def test_build_measure_rejects_infeasible_s():
    profile = from_raw([0.5, 0.5, 0.5])
    with pytest.raises(FeasibilityError, match="outside the feasible interval"):
        build_measure(profile, 0.2)
    with pytest.raises(FeasibilityError, match="would be negative"):
        build_measure(profile, -0.2)


def test_build_measure_validation_slack_and_clamp():
    profile = from_raw([0.5, 0.5, 0.5])
    # 0.5e-12 beyond the endpoint is inside the tolerance band and clamps to 0.
    measure = build_measure(profile, 0.125 + 5e-13)
    assert float(np.min(measure.atom_probs)) == 0.0


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
    assert independence_order(measure, profile) == 3


def test_parity_construction_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        parity_construction(1, "even")
    with pytest.raises(ValueError, match="parity"):
        parity_construction(3, "sideways")


def test_joint_probability_product_measure():
    profile = from_raw([0.2, 0.5, 0.8])
    measure = build_measure(profile, 0.0)
    assert abs(joint_probability(measure, 0b011) - 0.2 * 0.5) < 1e-15
    assert abs(joint_probability(measure, 0) - 1.0) < 1e-15
    with pytest.raises(ValueError, match="subset mask"):
        joint_probability(measure, 1 << 5)


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
    assert independence_order(build_measure(profile, 0.0), profile) == 3
    iv = s_interval(profile)
    assert independence_order(build_measure(profile, iv.s_min), profile) == 2


def test_independence_order_detects_low_order_breakage():
    profile = from_raw([0.5, 0.5])
    atoms = np.array([0.3, 0.2, 0.2, 0.3])  # marginals ok, pair joint 0.3 != 0.25
    measure = AtomicMeasure(n=2, atom_probs=atoms)
    assert independence_order(measure, profile) == 1


@pytest.mark.parametrize("exact", [False, True])
def test_independence_order_reads_verify_measure(exact):
    profile = from_raw([0.2, 0.4, 0.5, 0.9], exact=exact)
    iv = s_interval(profile)
    for s in (iv.s_min, 0 if exact else 0.0, iv.s_max):
        measure = build_measure(profile, s)
        order = independence_order(measure, profile)
        assert order == verify_measure(measure, profile).independence_order
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

"""Unit tests for the brute-force verification oracle."""

import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import enumerate_tail, kernel_residual, parity_construction, verify_kernel
from nearwise import (
    AtomicMeasure,
    CapExceededError,
    build_measure,
    check_profile,
    from_raw,
    probability_at_s,
    random_profiles,
    run_random_suite,
    s_interval,
    sharp_bounds,
    verify_extremal_atoms,
    verify_measure,
)
from nearwise import oracle
from nearwise.measures import mask_indices, product_atoms
from nearwise.numeric import (
    _CACHE_BITS,
    ABS_TOL,
    atom_products_dense,
    close,
    format_scientific,
    over,
    poisson_binomial_pmf,
    popcount_table,
    subset_products_dense,
    superset_sums,
)


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
    assert type(report.min_atom) is float
    # two equal minima: the witness is the first minimal mask
    atoms = np.array([0.7, -0.1, -0.1, 0.5])
    report = verify_measure(AtomicMeasure(n=2, atom_probs=atoms), profile)
    assert dict(report.lemma_violations)["nonnegativity"] == (1,)
    assert report.min_atom == -0.1


def test_verify_measure_bounds_negative_atoms_by_the_interval_band():
    """Twelve marginals of 0.01 have the interval [-1e-24, 9.9e-23], so atoms
    at -5e-13 are far below zero, though within an absolute 1e-12 of it."""
    profile = from_raw([0.01] * 12)
    report = verify_measure(build_measure(profile, 5e-13, validate=False), profile)
    assert [v[0] for v in report.lemma_violations] == ["nonnegativity"]
    assert report.min_atom == pytest.approx(-5e-13)


def test_oracle_passes_endpoints_in_the_subnormal_range():
    """Here s_max is subnormal, and its float, rounded once from the exact
    product, is one ulp off the dense table's entry, rounded at every
    factor.  The band of n subnormal ulps absorbs the vanishing atom's dust,
    so the endpoint measures still pass."""
    profile = from_raw([5.374703982777161e-161, 2.2146080850865508e-160,
                        0.9168162261800614, 0.4965066990299619])
    iv = s_interval(profile)
    table, _ = product_atoms(profile)
    assert 0 < float(iv.s_max) < 2.0**-1022
    assert float(iv.s_max) != table[(1 << 2 * iv.p + 1) - 1]
    for s in (iv.s_min, iv.s_max):
        assert verify_measure(build_measure(profile, s), profile).passed
    assert check_profile(profile).passed


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_verify_measure_fails_a_non_finite_atom(value):
    """A NaN compares false with every tolerance, so each check asks whether
    a residual is within it, never whether it is past it."""
    profile = from_raw([0.3, 0.5, 0.6])
    atoms = build_measure(profile, 0.0).atom_probs.copy()
    atoms[0b101] = value
    report = verify_measure(AtomicMeasure(n=3, atom_probs=atoms), profile)
    assert not report.passed
    kinds = [v[0] for v in report.lemma_violations]
    assert kinds[0] == "normalization" and "marginal" in kinds and "product-rule" in kinds
    assert report.independence_order == 0


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


def _product_rule_by_scan(measure, profile):
    """Reference: order and first witness from a scan of every mask."""
    n = measure.n
    residuals = superset_sums(measure.atom_probs, n) - oracle.subset_products(profile)[0]
    bad = [mask for mask in range(1, 1 << n) if abs(residuals[mask]) > ABS_TOL]
    if not bad:
        return n, None
    level = min(bin(mask).count("1") for mask in bad)
    first = min(mask for mask in bad if bin(mask).count("1") == level)
    return level - 1, (mask_indices(first) if level <= n - 1 else None)


def test_verify_measure_skips_the_scan_only_when_no_proper_subset_is_off():
    rng = random.Random(59)
    for trial in range(60):
        n = rng.randint(1, 9)
        profile = from_raw([rng.random() for _ in range(n)])
        iv = s_interval(profile)
        atoms = build_measure(profile, rng.choice([0.0, iv.s_min, iv.s_max])).atom_probs.copy()
        if trial % 3:
            # a transfer between two atoms moves the joints of some subsets
            a, b = rng.randrange(1 << n), rng.randrange(1 << n)
            atoms[a] += 1e-6
            atoms[b] -= 1e-6
        report = verify_measure(AtomicMeasure(n, atoms), profile)
        order, first = _product_rule_by_scan(AtomicMeasure(n, atoms), profile)
        witness = dict(report.lemma_violations).get("product-rule")
        assert (report.independence_order, witness) == (order, first)


def test_verify_measure_n_mismatch():
    measure = build_measure(from_raw([0.5, 0.5]), 0.0)
    with pytest.raises(ValueError, match="profile has n"):
        verify_measure(measure, from_raw([0.5]))


def test_oracle_refuses_measures_above_the_cap():
    profile = from_raw([0.5] * 21)
    with pytest.raises(CapExceededError, match="n <= 20"):
        verify_measure(AtomicMeasure(n=21, atom_probs=np.zeros(1)), profile)
    with pytest.raises(CapExceededError, match="n <= 20"):
        check_profile(profile)


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


def test_kernel_residual_mixed_input_is_exact_in_either_order():
    s = Fraction(1, 3)
    offsets = [-s if int(c) & 1 else s for c in popcount_table(3)]
    offsets[5] = 0.25  # a float where 1/3 belongs: every subset of {1, 3} is off by 1/12
    for given in (offsets, offsets[::-1]):
        residual = kernel_residual(given, 3)
        assert type(residual) is Fraction and residual == Fraction(1, 12)


def _extremal_atoms_by_gather(profile):
    """Reference: :func:`verify_extremal_atoms` with a bound gathered per atom
    and a mask per parity."""
    atoms, scale = oracle.product_atoms(profile)
    tol = (0 if profile.exact else ABS_TOL) * scale
    prefixes = atoms[[(1 << t) - 1 for t in range(profile.n + 1)]]
    if np.any(atoms < (prefixes - tol)[popcount_table(profile.n)]):
        return False
    odd = (popcount_table(profile.n) & 1).astype(bool)
    iv = oracle.s_interval(profile)
    return close(atoms[odd].min(), prefixes.item(2 * iv.p + 1), exact=profile.exact) and close(
        atoms[~odd].min(), prefixes.item(2 * iv.m), exact=profile.exact
    )


def _extremal_cases():
    """Random float profiles of n = 1..16 and exact ones of n = 1..10, with ties,
    0 and 1, each once as built and once with a tampered table or interval."""
    rng = random.Random(17)
    for n in range(1, 17):
        pool = [0.0, 1.0, 0.3, 0.3, 0.5, 1 - 2**-53, 5e-324]
        yield from_raw([rng.choice(pool + [rng.random()]) for _ in range(n)])
        yield from_raw([rng.random() for _ in range(n)])
    for n in range(1, 11):
        yield from_raw([Fraction(rng.randint(0, 12), 12) for _ in range(n)], exact=True)


@pytest.mark.parametrize("tamper", ["none", "atom", "p", "m"])
def test_verify_extremal_atoms_agrees_with_the_gathered_check(monkeypatch, tamper):
    """The per-cardinality minima give the gathered check's verdict, also when
    a claim fails: an atom lowered below its prefix atom, or p or m moved."""
    rng = random.Random(tamper)
    tables, intervals = {}, {}
    monkeypatch.setattr(oracle, "product_atoms", lambda profile: tables[id(profile)])
    monkeypatch.setattr(oracle, "s_interval", lambda profile: intervals[id(profile)])
    verdicts = set()
    for profile in _extremal_cases():
        atoms, scale = product_atoms(profile)
        iv = s_interval(profile)
        if tamper == "atom":
            atoms = atoms.copy()
            atoms[rng.randrange(atoms.size)] -= scale // 3 if profile.exact else 1e-3
        elif tamper in ("p", "m") and profile.n >= 3:
            moved = {tamper: (getattr(iv, tamper) + 1) % (profile.n // 2)}
            iv = dataclasses.replace(iv, **moved)
        tables[id(profile)], intervals[id(profile)] = (atoms, scale), iv
        verdict = verify_extremal_atoms(profile)
        assert verdict == _extremal_atoms_by_gather(profile)
        verdicts.add(verdict)
    assert verdicts == ({True} if tamper == "none" else {True, False})


def test_verify_extremal_atoms_known_profiles():
    assert verify_extremal_atoms(from_raw([0.1, 0.2, 0.3, 0.4]))
    assert verify_extremal_atoms(from_raw([0.6, 0.7, 0.8]))
    assert verify_extremal_atoms(from_raw([0.3, 0.3, 0.3]))  # ties
    assert verify_extremal_atoms(from_raw([Fraction(1, 6)] * 5, exact=True))
    assert verify_extremal_atoms(from_raw([0.5]))


def test_tail_vector_adds_in_mask_order_across_index_blocks():
    """Blocks of cast indices keep ``np.bincount``'s mask-order sums, bit for bit."""
    rng = random.Random(53)
    for n in (1, 5, 14, 15, 17):
        profile = from_raw([rng.random() for _ in range(n)])
        measure = build_measure(profile, s_interval(profile).s_max / 3)
        by_count = np.bincount(popcount_table(n), weights=measure.numerators, minlength=n + 1)
        expected = np.cumsum(by_count[::-1])[::-1]
        assert oracle._tail_vector(measure).tobytes() == expected.tobytes()
    profile = from_raw([Fraction(rng.randint(1, 9), 10) for _ in range(15)], exact=True)
    measure = build_measure(profile, s_interval(profile).s_min)
    tails = oracle._tail_vector(measure).tolist()
    counts = popcount_table(15).tolist()
    for k in (0, 1, 7, 15):
        assert tails[k] == sum(a for a, c in zip(measure.numerators.tolist(), counts) if c >= k)


def _traced_peak(call):
    """Peak bytes that ``call()`` allocates, from tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cardinality_scatters_allocate_no_mask_sized_index():
    """The popcount table is cast to ``intp`` a block at a time: at n = 16 a
    cast of the whole table would take 2^16 * 8 bytes."""
    n = 16
    profile = from_raw([0.02 + 0.06 * j for j in range(n)])
    measure = build_measure(profile, 0.0)
    product_atoms(profile)
    popcount_table(n)
    whole_cast = (1 << n) * np.dtype(np.intp).itemsize
    assert _traced_peak(lambda: oracle._tail_vector(measure)) < whole_cast / 2
    assert _traced_peak(lambda: verify_extremal_atoms(profile)) < whole_cast / 2


def _dense_results(profile):
    """Atoms, superset sums, tails and verify report of the family measures
    at both endpoints and inside, and the extremal-atom verdict: every
    result the capped tables feed, floats by their bits."""
    iv = s_interval(profile)
    out = [verify_extremal_atoms(profile)]
    for s in (iv.s_min, (iv.s_min + 2 * iv.s_max) / 3, iv.s_max):
        measure = build_measure(profile, s)
        report = verify_measure(measure, profile)
        fields = [repr(getattr(report, f.name)) for f in dataclasses.fields(report)]
        arrays = (measure.numerators, superset_sums(measure.numerators, profile.n), oracle._tail_vector(measure))
        out += [measure.scale, *fields]
        out += [a.tolist() if profile.exact else a.tobytes() for a in arrays]
    return out


@pytest.mark.parametrize("n, exact", [(18, False), (20, False), (18, True)])
def test_capped_tables_match_the_full_table_route(monkeypatch, n, exact):
    """Above ``_CACHE_BITS`` the per-profile tables cover the first 17
    events and every higher mask is extended block by block; every result
    equals the route through whole ``2^n`` tables."""
    rng = random.Random(n + exact)
    if exact:
        values = [Fraction(rng.randint(1, 9), 10) / rng.choice([1, 2]) for _ in range(n)]
    else:
        # ties and halves, and random largest values, whose bits are extended;
        # below 1/2 at n = 18, so an atom gets smaller as its count grows
        top = 0.5 if n == 18 else 1.0
        values = [0.3, 0.3, 0.5, 0.5] + [rng.uniform(0, top) for _ in range(n - 4)]
    profile = from_raw(values, exact=exact)
    capped = _dense_results(profile)
    assert product_atoms(profile)[0].size == oracle.subset_products(profile)[0].size == 1 << _CACHE_BITS

    full = from_raw(values, exact=exact)
    tables = {
        "product_atoms": atom_products_dense(full.sorted_values),
        "subset_products": subset_products_dense(full.sorted_values),
    }
    from nearwise import measures

    for module, name in ((measures, "product_atoms"), (oracle, "product_atoms"), (oracle, "subset_products")):
        monkeypatch.setattr(module, name, lambda profile, name=name: tables[name])
    assert _dense_results(full) == capped


def test_float_check_profile_keeps_no_table_above_one_superset_block():
    """At n = 18 a float ``check_profile`` holds one 2^n array per grid
    point, a measure's atoms that become their own residuals, and blocks of
    at most 2^17 entries besides; the profile keeps no table larger than
    one block.  With a separate residual array the peak is 3.07 x 2^n x 8."""
    n = 18
    rng = random.Random(18)
    profile = from_raw([rng.uniform(0.01, 0.99) for _ in range(n)])
    popcount_table(n)
    checks = []
    peak = _traced_peak(lambda: checks.append(check_profile(profile)))
    assert checks[0].passed, checks[0].failures
    assert peak < 2.5 * (1 << n) * 8
    kept = [
        entry
        for value in vars(profile).values()
        for entry in (value if isinstance(value, tuple) else (value,))
        if isinstance(entry, np.ndarray)
    ]
    assert kept and max(table.size for table in kept) <= 1 << _CACHE_BITS


@pytest.mark.parametrize("n, exact", [(18, False), (12, True)])
def test_verify_measure_leaves_the_measure_and_matches_check_profile(n, exact):
    """``verify_measure`` sums a copy: the caller's atoms keep their bytes
    and stay read-only.  Over the grid of ``check_profile``, its reports
    fold to the statistics that ``check_profile`` reports, where each grid
    measure gives its own atoms up to the sums."""
    rng = random.Random(n)
    if exact:
        values = [Fraction(rng.randint(1, 999), 1000) for _ in range(n)]
    else:
        values = [rng.uniform(0.01, 0.99) for _ in range(n)]
    profile = from_raw(values, exact=exact)
    check = check_profile(profile)
    assert check.passed, check.failures
    iv = s_interval(profile)
    if exact:
        grid = [iv.s_min + (iv.s_max - iv.s_min) * Fraction(i, 10) for i in range(11)]
    else:
        grid = np.linspace(float(iv.s_min), float(iv.s_max), 11).tolist()
    reports = []
    for s in grid:
        measure = build_measure(profile, s)
        before = measure.numerators.tolist() if exact else measure.numerators.tobytes()
        reports.append(verify_measure(measure, profile))
        after = measure.numerators.tolist() if exact else measure.numerators.tobytes()
        assert after == before
        assert not measure.numerators.flags.writeable
    folded = {
        "worst_normalization": max(abs(r.normalization_residual) for r in reports),
        "worst_marginal": max(abs(m) for r in reports for m in r.marginal_residuals),
        "worst_product": max(r.worst_product_residual for r in reports),
        "min_atom_seen": min(r.min_atom for r in reports),
    }
    for name, value in folded.items():
        assert repr(getattr(check, name)) == repr(value), name


def test_check_profile_known_cell():
    profile = from_raw([0.4] * 8)
    report = sharp_bounds(profile, 5)
    assert format_scientific(report.sharp_lower) == "1.3926e-01"
    assert format_scientific(report.sharp_upper) == "1.9661e-01"
    iv = s_interval(profile)
    # k = 5 is odd: minimized at s_max, maximized at s_min.
    assert (report.s_at_lower, report.s_at_upper) == (iv.s_max, iv.s_min)
    check = check_profile(profile, s_points=101, scan_ks=[5])
    assert check.passed, check.failures
    assert check.measures_checked == 101
    assert check.sharpness_gap <= 1e-13


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
    counting(bounds, "poisson_binomial_pmf")
    counting(bounds, "probability_at_s")
    counting(bounds, "binom_or_zero")
    values = [0.15, 0.3, 0.45, 0.6, 0.75]
    # an exact profile keeps no tails, so one record must serve both reads
    for profile in (from_raw(values), from_raw([Fraction(v).limit_denominator(20) for v in values])):
        calls.clear()
        check = check_profile(profile, s_points=9, scan_ks=[1, 2, 5, 4])
        assert check.passed, check.failures
        assert check.measures_checked == 9
        # one record and one report sweep for every k: the grid's formula
        # and the scan's bounds
        assert calls == {"build_measure": 9, "poisson_binomial_pmf": 1, "binom_or_zero": 1}


@pytest.mark.parametrize("exact", [False, True])
def test_check_profile_computes_the_interval_once(monkeypatch, exact):
    from nearwise import measures

    calls = []
    original = measures._leading_pairs
    monkeypatch.setattr(measures, "_leading_pairs", lambda a: calls.append(a) or original(a))
    values = [Fraction(3, 20), Fraction(3, 10), Fraction(9, 20), Fraction(3, 5), Fraction(3, 4)]
    profile = from_raw(values if exact else [float(v) for v in values], exact=exact)
    check = check_profile(profile, s_points=9, scan_ks=[1, 2, 5, 4])
    assert check.passed, check.failures
    assert len(calls) == 2  # p and m, once each


@pytest.mark.parametrize(
    "values, points",
    [
        ([Fraction(1, 4), Fraction(2, 5), Fraction(1, 2)], 9),
        ([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(5, 6)], 6),
    ],
)
def test_check_profile_sharpness_extremes_match_sharp_bounds_exact(values, points):
    profile = from_raw(values, exact=True)
    check = check_profile(profile, s_points=points, scan_ks=range(profile.n + 1))
    assert check.passed, check.failures
    assert check.scanned_ks == tuple(range(profile.n + 1))
    assert check.sharpness_gap == 0
    assert check.tail_match_gap == 0


def test_check_profile_tail_gap_covers_every_k(monkeypatch):
    """A failing k stops the failure messages at one per s, not the gap."""
    profile = from_raw([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)], exact=True)
    n = profile.n
    original = oracle._tail_vector

    def off_by_some(measure):
        tails = original(measure)
        tails[1] += 1
        tails[n] += 12
        return tails

    monkeypatch.setattr(oracle, "_tail_vector", off_by_some)
    check = check_profile(profile, s_points=3)
    tail_failures = [f for f in check.failures if "enumerated tail" in f]
    assert len(tail_failures) == 3
    assert all("at k = 1," in failure for failure in tail_failures)
    assert check.tail_match_gap == Fraction(1, 10)


def test_check_profile_reports_a_measure_that_fails_verification(monkeypatch):
    """Moving mass from one atom to another breaks a marginal: each grid
    measure fails verification and falls short of its independence order."""
    original = oracle.build_measure

    def shifted(profile, s):
        measure = original(profile, s)
        atoms = measure.numerators.copy()
        atoms[0] += 1e-6
        atoms[1] -= 1e-6
        return AtomicMeasure(measure.n, atoms, s, scale=measure.scale)

    monkeypatch.setattr(oracle, "build_measure", shifted)
    check = check_profile(from_raw([0.2, 0.3, 0.4]), s_points=3)
    verify_failures = [f for f in check.failures if "verify_measure failed" in f]
    order_failures = [f for f in check.failures if "independence order 0 <" in f]
    assert len(verify_failures) == len(order_failures) == 3
    assert all("'marginal'" in failure for failure in verify_failures)
    assert check.worst_marginal >= 1e-6


def test_check_profile_wants_full_independence_at_s_zero(monkeypatch):
    """The measure at s = 0 is the product measure, independent of order n;
    an (n-1)-wise measure in its place passes verification but fails the
    order check."""
    profile = from_raw([0.5] * 4)
    iv = s_interval(profile)
    original = oracle.build_measure
    monkeypatch.setattr(
        oracle, "build_measure", lambda p, s: original(p, float(iv.s_max) if s == 0 else s)
    )
    check = check_profile(profile, s_points=11)
    assert "profile: independence order 3 < 4 at s = 0.0" in check.failures
    assert not [f for f in check.failures if "verify_measure failed" in f]


def test_check_profile_reports_a_failed_extremal_atom_check(monkeypatch):
    """A product atom below the prefix atom of its cardinality fails the
    profile."""
    profile = from_raw([0.1, 0.2, 0.3, 0.4])
    table, scale = product_atoms(profile)
    table = table.copy()
    table[0b0110] = 0
    monkeypatch.setattr(oracle, "product_atoms", lambda p: (table, scale))
    check = check_profile(profile)
    assert check.failures == ("profile: extremal-atom check failed",)


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
    for k in range(profile.n + 1):
        assert enumerate_tail(measure, k) == sharp_bounds(profile, k).exact_mutual


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
        sharp_bounds(profile, 0).exact_mutual,
        sharp_bounds(profile, n).exact_mutual,
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


def test_float_grid_that_collapses_fails_and_builds_each_distinct_s_once(monkeypatch):
    """An interval below the least double gives a float grid of fewer
    distinct s than asked for: that fails and says so.  A
    collapsed interval has one s, built once, and passes."""
    builds = []
    original = oracle.build_measure

    def counting(profile, s):
        builds.append(s)
        return original(profile, s)

    monkeypatch.setattr(oracle, "build_measure", counting)
    for value, distinct in ((1e-200, 1), (3e-162, 3)):
        builds.clear()
        check = check_profile(from_raw([value, value, 0.5]), s_points=11)
        assert check.measures_checked == 11
        assert len(builds) == len(set(builds)) == distinct
        (failure,) = check.failures
        assert failure.endswith(
            f"has {distinct} distinct s, not 11; float mode cannot resolve this interval"
        )
    for raw in ([0.3], [Fraction(3, 10)], [0.0, 0.4, 0.7]):
        builds.clear()
        check = check_profile(from_raw(raw), s_points=11)
        assert check.passed and check.measures_checked == 11 and builds == [0], raw


def _exact_profile(n: int, seed: int):
    rng = random.Random(seed)
    return from_raw([Fraction(rng.randint(0, 10**6), 10**6) for _ in range(n)], exact=True)


def test_exact_check_profile_forms_fewer_fractions_than_atoms(monkeypatch):
    """The exact oracle adds integer numerators: a ``Fraction`` only per reported scalar."""
    profile = _exact_profile(10, 10)
    created = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        created.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    check = check_profile(profile, s_points=11)
    monkeypatch.undo()
    assert check.passed and check.measures_checked == 11
    assert 0 < len(created) < 1 << 10


def test_exact_sharp_bounds_forms_a_fraction_only_per_reported_value(monkeypatch):
    """The tail stays in integer numerators: a ``Fraction`` for the tail,
    and the four for the two shifted bounds, not one per mass entry."""
    profile = _exact_profile(24, 24)
    s_interval(profile)  # the interval is per profile; count the per-call work
    created = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        created.append(cls)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    reports = [sharp_bounds(profile, k) for k in range(1, profile.n + 1)]
    monkeypatch.undo()
    assert len(created) <= 8 * profile.n
    # the same tails as Fractions summed entry by entry
    pmf = list(over(*poisson_binomial_pmf(profile.sorted_values)))
    for report in reports:
        assert type(report.exact_mutual) is Fraction
        assert report.exact_mutual == sum(pmf[report.k :])


def test_exact_oracle_speed():
    """Exact check_profile at n = 12 and the exact 40 x 10 suite stay well under a second."""
    profile = _exact_profile(12, 12)
    start = time.perf_counter()
    assert check_profile(profile, s_points=11).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"exact check_profile at n = 12 took {elapsed:.3f}s"
    start = time.perf_counter()
    assert run_random_suite(count=40, max_n=10, exact=True).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"exact 40 x 10 suite took {elapsed:.3f}s"


def test_external_exact_measure_with_mixed_denominators():
    """Fractions of different denominators go over their least common one."""
    profile = from_raw([Fraction(1, 3), Fraction(2, 7), Fraction(3, 10)], exact=True)
    atoms = list(build_measure(profile, Fraction(1, 1000)).atom_probs)
    assert len({a.denominator for a in atoms}) > 1
    measure = AtomicMeasure(n=3, atom_probs=atoms)
    assert measure.scale == math.lcm(*(a.denominator for a in atoms))
    assert [measure.atom(mask) for mask in range(8)] == atoms
    assert all(type(measure.atom(mask)) is Fraction for mask in range(8))
    assert list(measure.atom_probs) == atoms and measure.total() == 1
    report = verify_measure(measure, profile)
    assert report.passed and report.independence_order == 2
    assert report.min_atom == min(atoms) and type(report.min_atom) is Fraction

    tampered = list(atoms)
    tampered[0b101] += Fraction(1, 77)  # events 1 and 3 gain, the empty atom pays
    tampered[0] -= Fraction(1, 77)
    report = verify_measure(AtomicMeasure(n=3, atom_probs=tampered), profile)
    assert not report.passed
    assert [v[0] for v in report.lemma_violations] == ["marginal", "product-rule"]
    assert report.worst_product_residual == Fraction(1, 77)
    assert report.normalization_residual == 0
    assert sorted(report.marginal_residuals) == [0, Fraction(1, 77), Fraction(1, 77)]
    assert report.independence_order == 0

"""Unit tests for marginal-profile ingestion and normalization."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearwise import marginals
from nearwise.cli import main
from nearwise import (
    MarginalError,
    from_raw,
    load_profile,
    profile_to_dict,
    s_interval,
    sharp_bounds,
)


def test_from_raw_sorts_and_remembers_order():
    profile = from_raw([0.4, 0.1, 0.3])
    assert profile.sorted_values == (0.1, 0.3, 0.4)
    assert profile.permutation == (1, 2, 0)
    assert profile.to_input_order() == (0.4, 0.1, 0.3)
    assert profile.n == 3
    assert not profile.exact


def test_from_raw_stable_on_ties():
    profile = from_raw([0.2, 0.2, 0.1])
    assert profile.sorted_values == (0.1, 0.2, 0.2)
    assert profile.permutation == (2, 0, 1)


def test_from_raw_rejects_empty():
    with pytest.raises(MarginalError, match="empty"):
        from_raw([])


def test_from_raw_rejects_out_of_range_with_one_based_index():
    with pytest.raises(MarginalError, match="index 2"):
        from_raw([0.5, 1.5])
    with pytest.raises(MarginalError, match="index 1"):
        from_raw([-0.1, 0.5])


def test_from_raw_rejects_non_finite_and_non_numeric():
    with pytest.raises(MarginalError, match="non-finite"):
        from_raw([float("nan")])
    with pytest.raises(MarginalError, match="non-numeric"):
        from_raw(["0.5"])
    with pytest.raises(MarginalError, match="non-numeric"):
        from_raw([True])
    with pytest.raises(MarginalError, match="non-numeric"):
        from_raw(np.array([False, True]))


def test_from_raw_turns_numpy_scalars_into_python_numbers():
    floats = from_raw(np.array([0.4, 0.2, 0.3]))
    assert floats.sorted_values == (0.2, 0.3, 0.4)
    iv, report = s_interval(floats), sharp_bounds(floats, 2)
    results = (report.sharp_lower, report.exact_mutual, report.sharp_upper)
    assert all(type(v) is float for v in floats.sorted_values + results)
    # the endpoints are Fractions in both modes, so they keep their exponent
    assert all(type(v) is Fraction for v in (iv.s_min, iv.s_max, report.s_at_lower))
    ints = from_raw(np.array([0, 1, 1]))
    assert ints.sorted_values == (0.0, 1.0, 1.0)
    assert all(type(v) is float for v in ints.sorted_values)
    exact = from_raw(np.array([1, 0, 1]), exact=True)
    assert exact.sorted_values == (0, 1, 1) and exact.permutation == (1, 0, 2)
    assert all(type(v) is Fraction for v in exact.sorted_values)

    # numpy floats of both widths and a float subclass enter as plain floats
    class Probability(float):
        pass

    mixed = from_raw([np.float32(0.25), np.float64(0.1), Probability(0.5), np.int8(1)])
    assert mixed.sorted_values == (0.1, 0.25, 0.5, 1.0)
    assert from_raw([np.float32(0.1)]).sorted_values == (float(np.float32(0.1)),)
    # np.float64 enters exact mode by its decimal repr, as a float does
    raw = [np.float64(0.1), np.float32(0.25), Probability(0.5), np.uint8(1)]
    mixed_exact = from_raw(raw, exact=True)
    assert mixed_exact.sorted_values == (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), 1)
    for profile, kind in ((mixed, float), (mixed_exact, Fraction)):
        assert all(type(v) is kind for v in profile.sorted_values)
    for exact_mode in (False, True):
        with pytest.raises(MarginalError, match="non-numeric value at index 2"):
            from_raw([0.5, np.bool_(True)], exact=exact_mode)


def test_exact_mode_converts_floats_via_decimal_repr():
    profile = from_raw([0.1, 0.3], exact=True)
    assert profile.sorted_values == (Fraction(1, 10), Fraction(3, 10))
    assert profile.exact


def test_fraction_input_is_exact_unless_told_otherwise():
    profile = from_raw([Fraction(1, 2)] * 8)
    assert profile.exact
    report = sharp_bounds(profile, 4)
    results = (report.sharp_lower, report.exact_mutual, report.sharp_upper)
    assert all(type(v) is Fraction for v in results)
    floats = from_raw([Fraction(1, 2)] * 8, exact=False)
    assert not floats.exact and floats.sorted_values == (0.5,) * 8
    assert float(sharp_bounds(floats, 4).sharp_upper) == float(report.sharp_upper)


@pytest.mark.parametrize("values", [[0.3, Fraction(1, 2)], [Fraction(1, 2), 0.3]])
def test_one_fraction_makes_the_whole_profile_exact(values):
    profile = from_raw(values)
    assert profile.exact
    assert profile.sorted_values == (Fraction(3, 10), Fraction(1, 2))


def test_exact_mode_denominator_cap():
    with pytest.raises(MarginalError, match="denominators"):
        from_raw([Fraction(1, 10**6 + 1)], exact=True)
    # At the cap is fine.
    from_raw([Fraction(1, 10**6)], exact=True)


def test_refused_denominator_is_named_by_its_size_in_one_short_line(capsys):
    """A refused denominator is named by its digit count, not printed in
    full, however long: 10^200 from the CLI, 10^5000 (past Python's
    int-to-str limit) from the library."""
    assert main(["verify", "--rational", "--marginals", "1e-200,1e-200,0.5"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: exact mode needs denominators <= 1000000, "
        "got a denominator of 201 digits at index 1\n"
    )
    for value, digits in ((Fraction(1, 10**6 + 1), 7), (Fraction(1, 10**5000), 5001),
                          (Fraction(1, 10**5000 - 1), 5000), (Fraction(1, 2**3000), 904)):
        with pytest.raises(MarginalError) as excinfo:
            from_raw([0.5, value], exact=True)
        assert str(excinfo.value).endswith(f"got a denominator of {digits} digits at index 2")


def test_load_profile_json(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"marginals": [0.3, 0.1]}))
    profile = load_profile(path)
    assert profile.sorted_values == (0.1, 0.3)
    exact = load_profile(path, exact=True)
    assert exact.sorted_values == (Fraction(1, 10), Fraction(3, 10))


def test_load_profile_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"marginals": [0.3,\n 0.1')
    with pytest.raises(MarginalError, match="line 2"):
        load_profile(bad)
    no_key = tmp_path / "nokey.json"
    no_key.write_text('{"values": [0.1]}')
    with pytest.raises(MarginalError, match="marginals"):
        load_profile(no_key)


def test_load_profile_csv(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("0.4\n\n0.2\n")
    profile = load_profile(path)
    assert profile.sorted_values == (0.2, 0.4)


@pytest.mark.parametrize(
    "name, text",
    [("profile.json", '{"marginals": [0.3, 0.1, 0.25]}'), ("profile.csv", "0.3\n0.1\n0.25\n")],
)
@pytest.mark.parametrize("exact", [False, True])
def test_load_profile_skips_a_utf8_bom(tmp_path, name, text, exact):
    plain = tmp_path / name
    plain.write_text(text, encoding="utf-8")
    marked = tmp_path / f"bom-{name}"
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert load_profile(marked, exact=exact) == load_profile(plain, exact=exact)


def test_load_profile_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0.4\nnot-a-number\n")
    with pytest.raises(MarginalError, match="line 2"):
        load_profile(path)
    twocol = tmp_path / "twocol.csv"
    twocol.write_text("0.1,0.2\n")
    with pytest.raises(MarginalError, match="one value per line"):
        load_profile(twocol)
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(MarginalError, match="no values"):
        load_profile(empty)


def test_load_profile_format_inference_and_override(tmp_path):
    # A .txt file defaults to CSV parsing; an explicit format wins.
    path = tmp_path / "profile.txt"
    path.write_text("0.25\n")
    assert load_profile(path).sorted_values == (0.25,)
    as_json = tmp_path / "data.dat"
    as_json.write_text('{"marginals": [0.5]}')
    assert load_profile(as_json, format="json").sorted_values == (0.5,)
    with pytest.raises(MarginalError, match="unknown profile format"):
        load_profile(path, format="xml")


def test_load_profile_rational_fraction_tokens(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("1/3\n1/2\n")
    profile = load_profile(path, exact=True)
    assert profile.sorted_values == (Fraction(1, 3), Fraction(1, 2))


def test_profile_to_dict_uses_input_order():
    profile = from_raw([0.4, 0.1])
    assert profile_to_dict(profile) == {"marginals": [0.4, 0.1]}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_sorting_is_an_order_isomorphism(values):
    """Sorted view and input-order view are consistent inverses."""
    profile = from_raw(values)
    assert profile.sorted_values == tuple(sorted(values))
    assert profile.to_input_order() == tuple(values)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
        min_size=1,
        max_size=6,
    )
)
def test_exact_mode_round_trip(values):
    profile = from_raw(values, exact=True)
    assert profile.exact
    assert sorted(profile.to_input_order()) == sorted(values)


def test_exact_is_read_once_per_profile_and_is_no_field(monkeypatch):
    """Equal float and exact profiles each keep their own mode once read;
    ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` see the values alone."""
    reads = []
    mode_dtype = marginals.mode_dtype
    monkeypatch.setattr(marginals, "mode_dtype", lambda values: reads.append(1) or mode_dtype(values))
    floating = from_raw([0.25, 0.5, 0.75])
    exact = from_raw([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    before = [floating == exact, hash(floating), hash(exact), repr(floating), repr(exact)]
    assert before[:3] == [True, hash(exact), hash(floating)]
    for _ in range(3):
        assert (floating.exact, exact.exact) == (False, True)
    assert len(reads) == 2
    assert [floating == exact, hash(floating), hash(exact), repr(floating), repr(exact)] == before
    assert "exact" not in {field.name for field in dataclasses.fields(floating)}
    copy = dataclasses.replace(exact)
    assert copy == exact and "exact" not in copy.__dict__ and copy.exact

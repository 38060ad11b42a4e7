"""Ingest and canonicalize marginal probability vectors.

Every computation downstream assumes the marginals are sorted in
nondecreasing order.  A :class:`MarginalProfile` holds the sorted values
together with the permutation back to the caller's original order, so
results expressed in terms of event indices can always be translated to the
indices the caller used.

Validation is strict: values must be finite and lie in the closed interval
[0, 1].  Nothing is clamped or repaired — the sharpness claims made by the
bounds are equalities, and silently nudging an input would corrupt them.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .numeric import MAX_DENOMINATOR, is_exact, mode_dtype


class MarginalError(ValueError):
    """Invalid marginal input: out of range, non-finite, empty, or unparsable."""


@dataclass(frozen=True)
class MarginalProfile:
    """A validated vector of marginal probabilities in sorted order.

    ``sorted_values`` is nondecreasing; ``permutation[i]`` is the 0-based
    position in the original input of the value now at sorted position ``i``.
    The sort is stable, so tied values keep their input order and the
    permutation is deterministic.
    """

    sorted_values: tuple
    permutation: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.sorted_values)

    @cached_property
    def exact(self) -> bool:
        """True when the profile carries exact rationals rather than floats.

        Read once and kept in the instance ``__dict__``, as
        :func:`measures.per_profile` keeps its values, so it is no field:
        ``==``, ``hash`` and ``repr`` see the values alone.
        """
        return mode_dtype(self.sorted_values) == object

    def to_input_order(self) -> tuple:
        """The values as originally supplied, before sorting."""
        out = [None] * self.n
        for i, pos in enumerate(self.permutation):
            out[pos] = self.sorted_values[i]
        return tuple(out)


def _coerce(value, index: int, exact: bool):
    """Validate one raw entry (1-based ``index`` for error messages).

    numpy integer and floating scalars become Python ``int`` and ``float``,
    and so does a ``float`` subclass, so no numpy scalar reaches a result;
    bools, numpy's included, are rejected.  A plain ``float``, the common
    input, skips these tests.
    """
    if type(value) is not float:
        if isinstance(value, np.integer):
            value = int(value)
        elif isinstance(value, (float, np.floating)):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise MarginalError(f"non-numeric value at index {index}")
    if type(value) is float:
        if not math.isfinite(value):
            raise MarginalError(f"non-finite value at index {index}")
        x = Fraction(str(value)) if exact else value
    elif exact:
        x = Fraction(value)
    else:
        x = float(value)
    if not 0 <= x <= 1:
        raise MarginalError(f"value out of [0,1] at index {index}")
    if exact and x.denominator > MAX_DENOMINATOR:
        raise MarginalError(
            f"exact mode needs denominators <= {MAX_DENOMINATOR}, "
            f"got a denominator of {_decimal_digits(x.denominator)} digits at index {index}"
        )
    return x


def _decimal_digits(value: int) -> int:
    """How many decimal digits the positive int ``value`` has, from its bit
    length and no ``str``: a refused denominator may be far past Python's
    int-to-str limit, and its size says what its digits would."""
    digits = int((value.bit_length() - 1) * math.log10(2)) + 1  # true count or one less
    if value < 10 ** (digits - 1):  # the float estimate rounded up past an integer
        return digits - 1
    return digits + (value >= 10**digits)


def from_raw(values: Iterable, *, exact: bool | None = None) -> MarginalProfile:
    """Build a profile from a vector of probabilities.

    An explicit ``exact`` wins, else any ``Fraction`` makes the profile exact
    (:func:`numeric.is_exact`), and floats enter by their shortest decimal
    representation (``0.1`` becomes 1/10).  Rejects empty input and any value
    outside [0, 1]; the error names the offending 1-based index.
    """
    raw = list(values)
    if not raw:
        raise MarginalError("empty marginals")
    exact = is_exact(raw, exact)
    coerced = [_coerce(v, i + 1, exact) for i, v in enumerate(raw)]
    order = sorted(range(len(coerced)), key=coerced.__getitem__)
    return MarginalProfile(
        sorted_values=tuple(coerced[i] for i in order),
        permutation=tuple(order),
    )


def _parse_json(text: str, exact: bool) -> list:
    kwargs = {}
    if exact:
        kwargs["parse_float"] = Fraction
        kwargs["parse_int"] = Fraction
    try:
        doc = json.loads(text, **kwargs)
    except json.JSONDecodeError as err:
        raise MarginalError(
            f"JSON parse error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict) or "marginals" not in doc:
        raise MarginalError('JSON input must be an object with a "marginals" array')
    values = doc["marginals"]
    if not isinstance(values, list):
        raise MarginalError('"marginals" must be an array of numbers')
    return values


def _fraction_hint(token: str) -> str:
    """The note for a token that is no float: the flag it needs, if it is a fraction."""
    try:
        Fraction(token)
    except (ValueError, ZeroDivisionError):
        return ""
    return "; fraction syntax needs --rational"


def _parse_csv(text: str, exact: bool) -> list:
    values = []
    for lineno, row in enumerate(csv.reader(text.splitlines()), start=1):
        if not row or all(not field.strip() for field in row):
            continue
        if len(row) != 1:
            raise MarginalError(f"CSV parse error at line {lineno}: expected one value per line")
        token = row[0].strip()
        try:
            values.append(Fraction(token) if exact else float(token))
        except (ValueError, ZeroDivisionError) as err:
            hint = "" if exact else _fraction_hint(token)
            raise MarginalError(f"CSV parse error at line {lineno}: {token!r}{hint}") from err
    if not values:
        raise MarginalError("parse error: no values found")
    return values


def load_profile(path, format: str | None = None, *, exact: bool = False) -> MarginalProfile:
    """Read a profile from a JSON or CSV file.

    JSON files hold an object ``{"marginals": [...]}``; CSV files hold one
    probability per line with no header.  ``format`` may be ``"json"`` or
    ``"csv"``; when omitted it is inferred from the file extension.
    Equivalent to :func:`from_raw` on the parsed vector.
    """
    if format is None:
        ext = os.path.splitext(str(path))[1].lower()
        format = "json" if ext == ".json" else "csv"
    if format not in ("json", "csv"):
        raise MarginalError(f"unknown profile format {format!r} (expected csv or json)")
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    values = _parse_json(text, exact) if format == "json" else _parse_csv(text, exact)
    return from_raw(values, exact=exact)


def profile_to_dict(profile: MarginalProfile) -> dict:
    """JSON-ready form of a profile, values in the original input order."""
    return {"marginals": [float(v) for v in profile.to_input_order()]}

"""Oracle results against stored captures: equal values of the same types.

Every case in :data:`CASES` computes oracle results for one profile and
must reproduce the stored ones.  Each value is stored with its type: a
``Fraction`` as ``"p/q"``, a float by its exact bits (``float.hex``), and a
tuple apart from a list, so the comparison checks ``==`` and type at once.
Exact cases cover seeded profiles up to n = 10, mixed denominators, the
marginals 0 and 1, n = 1 and the exact random suite.  Float cases store a
digest of the atom and superset-sum bytes and every report field, so a
float result that moves by one bit fails.

The captures live in ``exact_golden.json`` beside this file.  When a
result change is intended, regenerate them with::

    PYTHONPATH=src python tests/test_exact_golden.py
"""

import hashlib
import json
import random
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    enumerate_tail,
    joint_probability,
    kernel_residual,
    measure_to_dict,
    verify_kernel,
)
from nearwise import (
    AtomicMeasure,
    build_measure,
    check_profile,
    from_raw,
    run_random_suite,
    s_interval,
    verify_measure,
)
from nearwise.numeric import popcount_table, superset_sums

CAPTURES = Path(__file__).with_name("exact_golden.json")


def encode(value):
    """JSON form of ``value`` that keeps its type and, for floats, its bits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, Fraction):
        return {"Fraction": f"{value.numerator}/{value.denominator}"}
    if isinstance(value, float):
        return {"float": value.hex()}
    if isinstance(value, tuple):
        return {"tuple": [encode(v) for v in value]}
    if isinstance(value, list):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {"dict": {key: encode(v) for key, v in value.items()}}
    if hasattr(value, "__dataclass_fields__"):
        return {type(value).__name__: {f.name: encode(getattr(value, f.name)) for f in fields(value)}}
    raise TypeError(f"cannot encode {type(value).__name__}")


def _digest(array) -> str:
    """Digest of a float array's bytes, or of an object array's entries by ``repr``."""
    data = array.tobytes() if array.dtype != object else repr(array.tolist()).encode()
    return f"{array.dtype}:{hashlib.sha256(data).hexdigest()}"


def _grid(profile):
    iv = s_interval(profile)
    if profile.exact:
        return [iv.s_min, 0, iv.s_max, (iv.s_min + 2 * iv.s_max) / 3]
    return [iv.s_min, 0.0, iv.s_max, (iv.s_min + 2 * iv.s_max) / 3]


def _measure_results(profile, measure, *, dense: bool):
    n = profile.n
    out = {
        "verify": verify_measure(measure, profile),
        "tails": [enumerate_tail(measure, k) for k in range(n + 2)],
        "total": measure.total(),
        "atoms": [measure.atom(mask) for mask in (0, 1, (1 << n) - 1)],
        "joints": [joint_probability(measure, mask) for mask in (0, 1, (1 << n) - 1)],
    }
    if dense:
        out["dict"] = measure_to_dict(measure, profile)
    else:
        out["atom_bytes"] = _digest(measure.atom_probs)
        out["superset_bytes"] = _digest(superset_sums(measure.atom_probs, n))
    return out


def profile_results(values, exact: bool):
    """Every oracle result on the profile of ``values``, encoded."""
    profile = from_raw(values, exact=exact)
    n = profile.n
    out = {"check": check_profile(profile)}
    out["measures"] = [
        _measure_results(profile, build_measure(profile, s), dense=exact and n <= 6)
        for s in _grid(profile)
    ]
    return encode(out)


def external_results():
    """An exact measure given as Fractions of mixed denominators, and tampered."""
    profile = from_raw([Fraction(1, 3), Fraction(2, 7), Fraction(3, 10)], exact=True)
    atoms = list(build_measure(profile, Fraction(1, 1000)).atom_probs)
    out = [verify_measure(AtomicMeasure(n=3, atom_probs=tuple(atoms)), profile)]
    for mask, delta in ((0, Fraction(1, 10**9)), (5, Fraction(-1, 77)), (7, Fraction(1, 11))):
        tampered = list(atoms)
        tampered[mask] += delta
        tampered[0] -= delta if mask else 0
        out.append(verify_measure(AtomicMeasure(n=3, atom_probs=tampered), profile))
    return encode(out)


def kernel_results():
    """Kernel verdicts and residuals, exact and float, including a broken vector."""
    out = []
    for n, s in ((1, Fraction(3)), (6, Fraction(1, 7)), (9, Fraction(-5, 13)), (7, 0.3), (4, 0.0)):
        out.append(verify_kernel(n, s))
        signs = [1 - 2 * (int(c) & 1) for c in popcount_table(n)]
        offsets = [sign * s for sign in signs]
        out.append(kernel_residual(offsets, n))
        offsets[3 % len(offsets)] += Fraction(1, 5) if isinstance(s, Fraction) else 0.2
        out.append(kernel_residual(offsets, n))
    return encode(out)


def _seeded(n: int, seed: int) -> list:
    rng = random.Random(seed)
    return [Fraction(rng.randint(0, 10**6), 10**6) for _ in range(n)]


def _floats(n: int, seed: int, hi: float) -> list:
    rng = random.Random(seed)
    return [hi * rng.random() for _ in range(n)]


def _cases():
    for n in range(1, 11):
        yield f"exact seeded n={n}", lambda n=n: profile_results(_seeded(n, 100 + n), True)
    mixed = [
        [Fraction(1, 3), Fraction(2, 7), Fraction(999999, 10**6), Fraction(5, 11)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(3, 8), Fraction(4, 9)],
        [Fraction(1, 6)] * 5,
        [Fraction(9, 10), Fraction(7, 10), Fraction(13, 17), Fraction(5, 6)],
        [Fraction(0), Fraction(1, 3), Fraction(1, 2)],
        [Fraction(1), Fraction(2, 5), Fraction(1, 7)],
        [Fraction(0), Fraction(1)],
        [Fraction(2, 9)],
        [Fraction(0)],
        [Fraction(1)],
    ]
    for i, values in enumerate(mixed):
        yield f"exact mixed {i}", lambda values=values: profile_results(values, True)
    for n, hi in ((1, 1.0), (2, 0.5), (5, 1.0), (9, 0.5), (13, 1.0), (16, 0.5), (18, 1.0)):
        yield f"float n={n} hi={hi}", lambda n=n, hi=hi: profile_results(_floats(n, 200 + n, hi), False)
    yield "float with 0 and 1", lambda: profile_results([0.0, 0.3, 1.0, 0.45], False)
    yield "exact external measures", external_results
    yield "kernels", kernel_results
    yield "exact suite 40x10", lambda: encode(run_random_suite(count=40, max_n=10, exact=True))
    yield "float suite 30x12", lambda: encode(run_random_suite(count=30, max_n=12, seed=5))


CASES = dict(_cases())


@pytest.fixture(scope="module")
def captures():
    return json.loads(CAPTURES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", list(CASES))
def test_results_match_capture(captures, name):
    assert CASES[name]() == captures[name]


if __name__ == "__main__":
    CAPTURES.write_text(
        json.dumps({name: compute() for name, compute in CASES.items()}, indent=0) + "\n",
        encoding="utf-8",
    )

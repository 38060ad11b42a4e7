"""The benchmark's four workloads: seeded inputs, one op each, and its check.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  Ops come in fixed cycles (one op per size
and input family), and a run always ends on a whole cycle, so every run
measures the same mix.  Every op's profile is drawn fresh from the seed, so
no result cache inside the program can help.

An op's check never raises: it returns ``None`` when the output matches the
exact reference in :mod:`refcheck`, or a one-line reason when it does not.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

from refcheck import FLOAT_ABS, TEXT_REL, Reference, exact_ok, float_ok

#: Sizes and marginal families of ``sweep-float``.  [0, 0.5) lets the
#: invariants p and m reach their maximum, [0, 1) stops them early, and
#: [0.45, 0.55] gives the widest bounds.
SWEEP_FLOAT_SIZES = (32, 64, 128)
SWEEP_FLOAT_FAMILIES = ((0.0, 0.5), (0.0, 1.0), (0.45, 0.55))
SWEEP_EXACT_SIZES = (12, 16, 24)
ORACLE_SIZES = (14, 16, 18)
#: ``check_profile``'s default grid: the number of measures it must build
#: and verify per profile.
ORACLE_GRID = 11
EXACT_DENOMINATOR = 10**6

CLI_SMALL_N = 8
CLI_LARGE_N = 2000
CLI_LARGE_K = 1000
CLI_MEASURE_N = 16
CLI_VERIFY_N = 8
CLI_VERIFY_GRID = 11

_REPORT_FIELDS = (
    ("exact_mutual", "exact"),
    ("sharp_lower", "lower"),
    ("sharp_upper", "upper"),
    ("s_at_lower", "s_at_lower"),
    ("s_at_upper", "s_at_upper"),
)
_ORACLE_GAPS = (
    "worst_normalization",
    "worst_marginal",
    "worst_product",
    "tail_match_gap",
    "sharpness_gap",
    # the vanishing endpoint atom makes the smallest atom over the grid 0
    "min_atom_seen",
)


def _rng(workload: str, seed: int, purpose: str = "ops") -> random.Random:
    return random.Random(f"nearwise-perfbench/{workload}/{purpose}/{seed}")


def _float_profile(rng: random.Random, n: int, lo: float = 0.0, hi: float = 1.0) -> list:
    return [lo + (hi - lo) * rng.random() for _ in range(n)]


def _exact_profile(rng: random.Random, n: int) -> list:
    return [Fraction(rng.randint(0, EXACT_DENOMINATOR), EXACT_DENOMINATOR) for _ in range(n)]


def check_reports(reports, ref: Reference, match) -> str | None:
    """Compare one bound report per k = 1..n with the exact reference."""
    if len(reports) != ref.n:
        return f"{len(reports)} reports for n = {ref.n}"
    for k, report in enumerate(reports, start=1):
        want = ref.bounds(k)
        if report.k != k or report.coefficient != want["coefficient"]:
            return f"k = {k}: wrong k or coefficient"
        for attr, key in _REPORT_FIELDS:
            got = getattr(report, attr)
            if not match(got, want[key], ref.den):
                return (
                    f"n = {ref.n}, k = {k}: {attr} = {float(got)!r}, "
                    f"exact value {want[key] / ref.den!r}"
                )
    return None


def check_oracle_payload(payload: dict, n: int, grid: int, exact: bool) -> str | None:
    """Guard the oracle's verdict and the amount of work behind it.

    Fails when the oracle did not pass, or checked fewer measures or other
    thresholds than ``grid`` and ``n`` require: an oracle that checks less
    must not read as a faster one.
    """
    if not payload["passed"]:
        return f"oracle did not pass: {list(payload['failures'])[:2]}"
    if payload["measures_checked"] != grid:
        return f"measures_checked = {payload['measures_checked']}, grid needs {grid}"
    want_ks = sorted({1, (n + 1) // 2, n})
    if list(payload["scanned_ks"]) != want_ks:
        return f"scanned_ks = {list(payload['scanned_ks'])}, n = {n} needs {want_ks}"
    for key in _ORACLE_GAPS:
        gap = abs(payload[key])
        if gap != 0 if exact else gap > FLOAT_ABS:
            return f"{key} = {payload[key]!r}, exact value 0"
    return None


class SweepFloat:
    """``from_raw`` then ``sharp_bounds`` for k = 1..n, as ``bound --all-k`` does."""

    name = "sweep-float"
    cycle = len(SWEEP_FLOAT_SIZES) * len(SWEEP_FLOAT_FAMILIES)
    exact = False

    def _profile(self, rng, i):
        lo, hi = SWEEP_FLOAT_FAMILIES[(i // len(SWEEP_FLOAT_SIZES)) % len(SWEEP_FLOAT_FAMILIES)]
        return _float_profile(rng, SWEEP_FLOAT_SIZES[i % len(SWEEP_FLOAT_SIZES)], lo, hi)

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        for i in itertools.count():
            yield self._profile(rng, i)

    def warm_up(self, api) -> None:
        self.run(api, self._profile(_rng(self.name, 0, "warm-up"), 0)[:8])

    def run(self, api, raw):
        profile = api.from_raw(raw, exact=self.exact)
        return [api.sharp_bounds(profile, k) for k in range(1, profile.n + 1)]

    def check(self, raw, reports) -> str | None:
        return check_reports(reports, Reference(raw), exact_ok if self.exact else float_ok)


class SweepExact(SweepFloat):
    """The same op as ``sweep-float`` in exact mode, on marginals j / 10^6."""

    name = "sweep-exact"
    cycle = len(SWEEP_EXACT_SIZES)
    exact = True

    def _profile(self, rng, i):
        return _exact_profile(rng, SWEEP_EXACT_SIZES[i % len(SWEEP_EXACT_SIZES)])


class Oracle:
    """``check_profile(from_raw(raw))`` with the default grids."""

    name = "oracle"
    cycle = len(ORACLE_SIZES)

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        for i in itertools.count():
            yield _float_profile(rng, ORACLE_SIZES[i % self.cycle])

    def warm_up(self, api) -> None:
        self.run(api, _float_profile(_rng(self.name, 0, "warm-up"), 8))

    def run(self, api, raw):
        return api.check_profile(api.from_raw(raw))

    def check(self, raw, result) -> str | None:
        return check_oracle_payload(result.to_dict(), len(raw), ORACLE_GRID, exact=False)


_TEXT_NUMBER = r"([-+0-9.eE]+)"
_TEXT_BOUND = {
    "lower": re.compile(rf"sharp lower\s+{_TEXT_NUMBER}\s+\(at s = {_TEXT_NUMBER}\)"),
    "exact": re.compile(rf"exact\s+{_TEXT_NUMBER}"),
    "upper": re.compile(rf"sharp upper\s+{_TEXT_NUMBER}\s+\(at s = {_TEXT_NUMBER}\)"),
    "coefficient": re.compile(r"coefficient\s+(\d+)"),
}


class Cli:
    """One ``nearwise`` child process at a time, cycling through three invocations.

    ``bound --k 3`` at n = 8 is mostly interpreter start and import;
    ``measure --format json`` at n = 16, read from a CSV file, covers file
    parsing and writes 2^16 atoms; and ``verify --rational`` at n = 8 runs
    the exact dense oracle.

    ``bound --k 1000`` on a 2000-line CSV of 0.5 fails its check at the
    seed (float underflow).  The benchmark must run only ops that pass, so
    it is not in the timed mix: :meth:`defect_op` runs it once per run,
    outside the metrics, and its verdict is printed with the provenance.
    """

    name = "cli"
    cycle = 3

    def __init__(self, workdir: Path):
        self.csv_path = workdir / "uniform-half-2000.csv"
        self.measure_path = workdir / "measure-input.csv"
        self._large_ref = None

    def prepare(self) -> None:
        """Write the input file; part of input generation, not of set-up."""
        self.csv_path.write_text("0.5\n" * CLI_LARGE_N, encoding="utf-8")

    def defect_op(self):
        """The n = 2000 uniform-1/2 ``bound`` that float underflow fails."""
        return "bound-n2000", None, [
            "bound", "--k", str(CLI_LARGE_K), "--format", "json",
            "--input", str(self.csv_path),
        ]

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        while True:
            small = _float_profile(rng, CLI_SMALL_N)
            yield "bound-k3", small, [
                "bound", "--k", "3", "--marginals", ",".join(map(repr, small)),
            ]
            dense = _float_profile(rng, CLI_MEASURE_N)
            # written when the op is drawn, so outside its timed region
            self.measure_path.write_text(
                "".join(f"{v!r}\n" for v in dense), encoding="utf-8"
            )
            yield "measure", dense, [
                "measure", "--s-endpoint", "max", "--format", "json",
                "--input", str(self.measure_path),
            ]
            exact = _exact_profile(rng, CLI_VERIFY_N)
            yield "verify", exact, [
                "verify", "--rational", "--grid", str(CLI_VERIFY_GRID), "--format", "json",
                "--marginals", ",".join(f"{v.numerator}/{v.denominator}" for v in exact),
            ]

    def run(self, api, op):
        """``api`` runs the CLI on an argv and returns (exit code, stdout)."""
        return api(op[2])

    def check(self, op, result) -> str | None:
        kind, values, _ = op
        returncode, stdout = result
        if isinstance(stdout, bytes):
            stdout = stdout.decode("utf-8")
        if kind == "verify":
            if returncode != 0:
                return f"verify exited {returncode}"
            payload = json.loads(stdout)
            if payload.get("n") != CLI_VERIFY_N or payload.get("mode") != "rational":
                return "verify reported the wrong n or mode"
            return check_oracle_payload(payload, CLI_VERIFY_N, CLI_VERIFY_GRID, exact=True)
        if returncode != 0:
            return f"{kind} exited {returncode}"
        if kind == "bound-k3":
            return self._check_text_bound(values, stdout)
        if kind == "bound-n2000":
            return self._check_large_bound(stdout)
        return self._check_measure(values, stdout)

    def _check_text_bound(self, values, stdout: str) -> str | None:
        ref = Reference(values)
        want, den = ref.bounds(3), ref.den
        found = {key: pattern.search(stdout) for key, pattern in _TEXT_BOUND.items()}
        missing = [key for key, match in found.items() if match is None]
        if missing:
            return f"bound text output lacks {missing}"
        if int(found["coefficient"].group(1)) != want["coefficient"]:
            return "bound text output has the wrong coefficient"
        printed = {
            "lower": found["lower"].group(1),
            "s_at_lower": found["lower"].group(2),
            "exact": found["exact"].group(1),
            "upper": found["upper"].group(1),
            "s_at_upper": found["upper"].group(2),
        }
        for key, text in printed.items():
            if not float_ok(float(text), want[key], den, rel=TEXT_REL):
                return f"bound text {key} = {text}, exact value {want[key] / den!r}"
        return None

    def _check_large_bound(self, stdout: str) -> str | None:
        if self._large_ref is None:  # the same input every cycle
            self._large_ref = Reference([Fraction(1, 2)] * CLI_LARGE_N)
        ref = self._large_ref
        payload = json.loads(stdout)
        want = ref.bounds(CLI_LARGE_K)
        if payload["n"] != CLI_LARGE_N or payload["k"] != CLI_LARGE_K:
            return "bound json reported the wrong n or k"
        if payload["coefficient"] != want["coefficient"]:
            return "bound json has the wrong coefficient"
        for key in ("exact", "lower", "upper", "s_at_lower", "s_at_upper"):
            if not float_ok(payload[key], want[key], ref.den):
                return (
                    f"n = {CLI_LARGE_N}, k = {CLI_LARGE_K}: {key} = {payload[key]!r}, "
                    f"exact value {want[key] / ref.den!r}"
                )
        return None

    def _check_measure(self, values, stdout: str) -> str | None:
        ref = Reference(values)
        payload = json.loads(stdout)
        n = len(values)
        if payload["n"] != n:
            return "measure reported the wrong n"
        if not float_ok(payload["s"], ref.s_max, ref.den):
            return f"measure s = {payload['s']!r}, exact s_max {ref.s_max / ref.den!r}"
        atoms = payload["atoms"]
        if len(atoms) != 1 << n:
            return f"measure wrote {len(atoms)} atoms, n = {n} needs {1 << n}"
        want = ref.atoms(ref.s_max)
        seen = bytearray(1 << n)
        for atom in atoms:
            mask = sum(1 << (i - 1) for i in atom["subset"])
            if seen[mask]:
                return f"measure repeats subset {atom['subset']}"
            seen[mask] = 1
            if not float_ok(atom["prob"], want[mask], ref.den):
                return (
                    f"measure atom {atom['subset']} = {atom['prob']!r}, "
                    f"exact value {want[mask] / ref.den!r}"
                )
        return None


def make(name: str, workdir: Path | None = None):
    """The workload called ``name``."""
    if name == "cli":
        return Cli(workdir)
    return {"sweep-float": SweepFloat, "sweep-exact": SweepExact, "oracle": Oracle}[name]()


NAMES = ("sweep-float", "sweep-exact", "oracle", "cli")

"""Command-line front end.

Subcommands::

    bound      sharp bounds on P(at least k of n events occur)
    interval   the feasible interval of the family parameter s
    measure    atoms of the family measure at a chosen s
    table      preset or custom summary tables (five rows per level)
    verify     brute-force oracle over one profile or a random cohort

Profiles come from ``--marginals`` (comma-separated values) or ``--input``
(JSON or CSV file); ``--rational`` switches to exact Fraction arithmetic
and accepts fraction syntax such as ``1/3``.  Output formats are text
(default), json (floats, also under ``--rational``), and csv.  Exit codes:
0 success, 2 bad usage or invalid input, 1 internal error or verification
failure, and 1 with nothing on stderr when the reader closes the pipe
before the output ends (``nearwise measure ... | head -n 1``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .bounds import (
    _bound_numerators, _law, _makarov_numerators, _reports, bound_reports, report_to_dict,
    sharp_bounds,
)
from .marginals import MarginalError, _fraction_hint, from_raw, load_profile
from .measures import build_measure, s_interval, subset_labels
from .numeric import _SCRATCH, format_scaled, format_scientific, held_float
from .oracle import DEFAULT_SEED, STATISTICS, check_profile, run_random_suite


@dataclass(frozen=True)
class TableSpec:
    """Shape of a summary table: one profile per level, one column per k."""

    n: int
    level_labels: tuple
    k_lo: int
    k_hi: int


#: Row kinds in the order they appear underneath each marginal level.
ROW_KINDS = ("makarov_lower", "sharp_lower", "exact", "sharp_upper", "makarov_upper")

TABLE_PRESETS = {
    "paper-table-1": TableSpec(8, ("0.1", "0.2", "0.3", "0.4", "0.5"), 1, 4),
    "paper-table-2": TableSpec(8, ("0.1", "0.2", "0.3", "0.4", "0.5"), 5, 8),
}


@dataclass(frozen=True)
class Output:
    """One subcommand's result in every output format.

    ``payload()`` builds the JSON document, ``rows()`` the CSV rows of raw
    values (a string is written as it is) under the header ``columns``, and
    ``text()`` the text lines, each iterable read once.  :func:`main` calls
    only the one ``--format`` asks for, so a large form is never built for
    nothing; ``code`` is the exit code.
    """

    payload: Callable[[], object]
    columns: tuple
    rows: Callable[[], Iterable]
    text: Callable[[], Iterable[str]]
    code: int = 0


def _endpoint(s, rational: bool):
    """``s`` as text and CSV show it: in floating mode the float wherever that
    holds it (:func:`numeric.held_float`), so the digits are the float's."""
    return s if rational else held_float(s)


def _cell(value, precision: int) -> str:
    """Ints (and bools) and strings as they are; other numbers at ``precision`` digits."""
    return str(value) if isinstance(value, (int, str)) else format_scientific(value, precision)


@dataclass(frozen=True)
class EncodedArray:
    """A JSON array in a payload whose items arrive already encoded.

    Only a value of the payload's top-level object may be one.  Each item
    is the text ``json.dumps(payload, indent=2)`` gives that item there,
    four spaces in, without its separator; ``items`` is read once.
    """

    items: Iterable[str]


def _write_batched(items: Iterable[str], sep: str, lead: str = "") -> bool:
    """Write ``lead`` and the strings ``items``, ``sep`` between two, if there
    is an item, and say whether there was.  Items are joined 2048 to a write:
    one write per item to a pipe costs more than encoding it, and one string
    of every item would hold the whole output."""
    items, wrote = iter(items), False
    while batch := list(itertools.islice(items, 2048)):
        sys.stdout.write(lead + sep.join(batch))
        lead, wrote = sep, True
    return wrote


@lru_cache(maxsize=2)
def _bare_number(value: Fraction) -> str:
    """``json`` hook: a ``Fraction`` as a number of 17 significant digits, led
    by a NUL (no argument, and so no payload string, holds one) that marks
    the string for :func:`_write_json` to unquote.  Cached by value: the
    reports of ``bound --all-k`` repeat the interval's two endpoints."""
    return "\0" + format_scaled(*value.as_integer_ratio(), 17)


def _write_json(payload: dict) -> None:
    """``json.dumps(payload, indent=2)`` and a newline, never held as one string.

    Each top-level value goes through ``json.JSONEncoder(indent=2)``, except
    an :class:`EncodedArray`, whose items go through :func:`_write_batched`.
    A ``Fraction``, an endpoint no double holds (:func:`numeric.held_float`),
    is written as the number :func:`_bare_number` gives, which ``float`` reads.
    """
    encode = json.JSONEncoder(indent=2, default=_bare_number).encode
    write = sys.stdout.write
    opening = "{"
    for key, value in payload.items():
        write(f"{opening}\n  {encode(key)}: ")
        opening = ","
        if not isinstance(value, EncodedArray):
            text = encode(value).replace("\n", "\n  ")
            if "\\u0000" in text:  # a Fraction's digits, which the encoder quoted
                text = re.sub(r'"\\u0000([^"]*)"', r"\1", text)
            write(text)
        else:
            write("\n  ]" if _write_batched(value.items, ",\n", "[\n") else "[]")
    write("{}\n" if opening == "{" else "\n}\n")


def _positive_int(token: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {token!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def _parse_value(token: str, rational: bool):
    try:
        return Fraction(token) if rational else float(token)
    except (ValueError, ZeroDivisionError) as exc:
        hint = "" if rational else _fraction_hint(token)
        raise MarginalError(f"could not parse value {token!r}{hint}") from exc


def _profile_from_args(args):
    if getattr(args, "marginals", None):
        tokens = [t.strip() for t in args.marginals.split(",") if t.strip()]
        if not tokens:
            raise MarginalError("empty marginals")
        values = [_parse_value(t, args.rational) for t in tokens]
        return from_raw(values, exact=args.rational)
    if getattr(args, "input", None):
        return load_profile(args.input, exact=args.rational)
    return None


def _require_profile(args, parser):
    profile = _profile_from_args(args)
    if profile is None:
        parser.error("one of --marginals or --input is required")
    return profile


def cmd_bound(args, parser) -> Output:
    profile = _require_profile(args, parser)
    if args.all_k:
        reports = bound_reports(profile, range(1, profile.n + 1))
    elif args.k is not None:
        reports = [sharp_bounds(profile, args.k)]
    else:
        parser.error("one of --k or --all-k is required")
    fmt_s = lambda v: format_scientific(_endpoint(v, args.rational), args.precision)  # noqa: E731

    def rows():
        """(k, exact, lower, upper), each bound formatted from its numerator
        over its scale (:func:`bounds._bound_numerators`), so an exact
        report forms no ``Fraction`` to be printed."""
        return [
            (r.k, *(format_scaled(*pair, args.precision) for pair in _bound_numerators(r)))
            for r in reports
        ]

    if not args.all_k:
        (r,) = reports
        payload = lambda: {"n": profile.n, **report_to_dict(r)}  # noqa: E731

        def text():
            ((_, exact, lower, upper),) = rows()
            return [
                f"n = {profile.n}  k = {r.k}",
                f"sharp lower  {lower}  (at s = {fmt_s(r.s_at_lower)})",
                f"exact        {exact}",
                f"sharp upper  {upper}  (at s = {fmt_s(r.s_at_upper)})",
                f"coefficient  {r.coefficient}",
            ]
    else:
        payload = lambda: {  # noqa: E731
            "n": profile.n, "reports": [report_to_dict(r) for r in reports]
        }

        def text():
            width = args.precision + 6
            header = f"{'k':>4}  {'exact':>{width}}  {'lower':>{width}}  {'upper':>{width}}"
            return [f"n = {profile.n}", header] + [
                f"{k:>4}" + "".join(f"  {cell:>{width}}" for cell in cells)
                for k, *cells in rows()
            ]

    return Output(payload, ("k", "exact", "lower", "upper"), rows, text)


def cmd_interval(args, parser) -> Output:
    profile = _require_profile(args, parser)
    iv = s_interval(profile)
    s_min, s_max = (_endpoint(s, args.rational) for s in (iv.s_min, iv.s_max))
    fmt = lambda v: format_scientific(v, args.precision)  # noqa: E731
    return Output(
        payload=lambda: {
            "n": profile.n, "s_min": held_float(iv.s_min), "s_max": held_float(iv.s_max),
            "p": iv.p, "m": iv.m, "collapsed": iv.is_collapsed,
        },
        columns=("s_min", "s_max", "p", "m"),
        rows=lambda: [(s_min, s_max, iv.p, iv.m)],
        text=lambda: [
            f"n = {profile.n}",
            f"s interval  [{fmt(s_min)}, {fmt(s_max)}]",
            f"p = {iv.p}  m = {iv.m}",
        ],
    )


#: One atom of ``measure``'s JSON at ``indent=2``: its subset's items, then
#: its probability, which ``json`` writes as ``repr(float(p))``.
_JSON_ATOM = '    {\n      "subset": [%s],\n      "prob": %r\n    }'


def _numerators(measure) -> Iterator:
    """The atoms' numerators over ``measure.scale`` as Python numbers, in mask
    order, taken from the array ``numeric._SCRATCH`` at a time."""
    nums = measure.numerators
    for start in range(0, nums.size, _SCRATCH):
        yield from nums[start:start + _SCRATCH].tolist()


def cmd_measure(args, parser) -> Output:
    profile = _require_profile(args, parser)
    if args.s is not None:
        s = _parse_value(args.s, args.rational)
    elif args.s_endpoint in ("min", "max"):
        iv = s_interval(profile)
        s = iv.s_min if args.s_endpoint == "min" else iv.s_max
    else:
        s = 0  # build_measure reads it in the profile's arithmetic
    measure = build_measure(profile, s)
    scale = measure.scale
    # each atom is read from its numerator over the scale, with no Fraction:
    # int true division rounds correctly, as float(Fraction) does
    atom_text = lambda num: format_scaled(num, scale, args.precision)  # noqa: E731

    def payload():
        """The JSON document, atoms in mask order, each from one template."""
        labels = subset_labels(profile, ",", "\n        {}".format)
        atoms = (
            _JSON_ATOM % (f"{label}\n      " if label else "", num / scale)
            for label, num in zip(labels, _numerators(measure))
        )
        return {"n": measure.n, "s": held_float(s), "atoms": EncodedArray(atoms)}

    def rows():
        """(subset in input indices joined by ';', probability as text) in mask order."""
        return zip(subset_labels(profile, ";"), map(atom_text, _numerators(measure)))

    def text():
        # the full subset has the longest label
        width = max(len("(none)"), len(",".join(map(str, range(1, measure.n + 1)))) + 2)
        shown = format_scientific(_endpoint(s, args.rational), args.precision)
        yield f"n = {measure.n}  s = {shown}"
        for label, num in zip(subset_labels(profile), _numerators(measure)):
            yield f"{'{' + label + '}' if label else '(none)':<{width}}  {atom_text(num)}"

    return Output(payload, ("subset", "prob"), rows, text)


def _table_spec_from_args(args, parser) -> TableSpec:
    if args.preset:
        given = (("--n", args.n), ("--levels", args.levels), ("--k-range", args.k_range))
        clashing = [flag for flag, value in given if value is not None]
        if clashing:
            parser.error(f"--preset cannot be combined with {', '.join(clashing)}")
        return TABLE_PRESETS[args.preset]
    if args.n is None or args.levels is None or args.k_range is None:
        parser.error("either --preset or all of --n, --levels, --k-range are required")
    labels = tuple(t.strip() for t in args.levels.split(",") if t.strip())
    if not labels:
        parser.error("--levels must list at least one probability")
    if len(set(labels)) < len(labels):  # the JSON rows are keyed by label
        parser.error(f"--levels lists a label more than once: {args.levels!r}")
    lo, hi = args.k_range
    if lo > hi:
        parser.error(f"--k-range low {lo} exceeds high {hi}")
    return TableSpec(args.n, labels, lo, hi)


def _level_profile(label: str, n: int):
    """Uniform profile for a table level.

    Exact when the label allows it, so cells that land exactly half way
    between two renderings round from the true decimal value rather than
    from its float approximation; falls back to floats otherwise.  A label
    that is no probability, or whose nonzero value underflows to a double
    of 0, raises a ``ValueError`` that names the flag.
    """
    for parse in (Fraction, float):
        try:
            value = parse(label)
            profile = from_raw([value] * n)
        except (ValueError, ZeroDivisionError):
            continue
        if value == 0 and Fraction(label) != 0:
            raise ValueError(f"--levels: {label!r} is not a probability a double holds")
        return profile
    raise ValueError(f"--levels: {label!r} is not a probability in [0, 1]")


def cmd_table(args, parser) -> Output:
    spec = _table_spec_from_args(args, parser)
    ks = range(spec.k_lo, spec.k_hi + 1)
    # (level, kind, k, (numerator, scale)), grouped by level, then kind in
    # ROW_KINDS order; every cell is read from numerators
    rows = []
    for label in spec.level_labels:
        profile = _level_profile(label, spec.n)
        tails, scale, head, head_scale = _law(profile)
        lower, upper = _makarov_numerators(profile, ks, head, head_scale)
        per_k = []
        for r, low, high in zip(_reports(profile, ks, tails, scale), lower, upper):
            mutual, lower_num, upper_num = _bound_numerators(r)
            per_k.append(((low, scale), lower_num, mutual, upper_num, (high, scale)))  # ROW_KINDS
        for kind, values in zip(ROW_KINDS, zip(*per_k)):
            rows += [(label, kind, k, value) for k, value in zip(ks, values)]

    fmt = lambda pair: format_scaled(*pair, args.precision)  # noqa: E731

    def payload():
        by_level = itertools.groupby(rows, key=itemgetter(0))
        return {
            "preset": args.preset,
            "n": spec.n,
            "levels": list(spec.level_labels),
            "k_range": [spec.k_lo, spec.k_hi],
            "rows": {
                label: {
                    kind: [fmt(cell[3]) for cell in cells]
                    for kind, cells in itertools.groupby(level_rows, key=itemgetter(1))
                }
                for label, level_rows in by_level
            },
        }

    def text():
        width = args.precision + 8
        label_width = max(map(len, ROW_KINDS)) + 2
        header = " " * label_width + "".join(f"{f'k = {k}':>{width - 1}} " for k in ks)
        lines = [header.rstrip()]
        for (label, kind), cells in itertools.groupby(rows, key=itemgetter(0, 1)):
            if kind == ROW_KINDS[0]:
                lines.append(f"a = {label}")
            line = f"  {kind.replace('_', ' '):<{label_width - 2}}" + "".join(
                f"{fmt(value):>{width - 1}} " for *_, value in cells
            )
            lines.append(line.rstrip())
        return lines

    return Output(
        payload,
        ("level", "kind", "k", "value"),
        lambda: [(label, kind, k, fmt(value)) for label, kind, k, value in rows],
        text,
    )


def cmd_verify(args, parser) -> Output:
    profile = _profile_from_args(args)
    fmt = lambda v: format_scientific(v, args.precision)  # noqa: E731
    mode = "rational" if args.rational else "float"
    if profile is not None:
        if args.seed is not None:
            given = "--marginals" if args.marginals else "--input"
            parser.error(f"--seed seeds the random suite and cannot be combined with {given}")
        report = check_profile(profile, s_points=101 if args.grid is None else args.grid)
        json_extra = {"n": profile.n, "mode": mode}
        iv = s_interval(profile)
        lo, hi = (fmt(_endpoint(s, args.rational)) for s in (iv.s_min, iv.s_max))
        heading = [f"n = {profile.n}  mode: {mode}", f"s interval  [{lo}, {hi}]"]
    else:
        report = run_random_suite(
            count=40 if args.rational else 200,
            max_n=10 if args.rational else 12,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            exact=args.rational,
            **({} if args.grid is None else {"s_points": args.grid}),
        )
        json_extra = {}
        heading = [
            f"random suite  seed = {report.seed}  profiles = {report.count}  "
            f"max n = {report.max_n}  mode: {mode}",
        ]
    payload = report.to_dict()
    return Output(
        payload=lambda: {**payload, **json_extra},
        columns=("key", "value"),
        # the key-value table gives every scalar in full, not at --precision
        rows=lambda: [(k, str(v)) for k, v in payload.items() if not isinstance(v, list)],
        text=lambda: heading
        + [f"{k.replace('_', ' '):<22}{_cell(payload[k], args.precision)}" for k in STATISTICS]
        + [f"failure: {f}" for f in report.failures]
        + [f"result: {'PASS' if report.passed else 'FAIL'}"],
        code=0 if report.passed else 1,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearwise",
        description=(
            "Sharp tail bounds for events that are independent in every "
            "proper subcollection, with a brute-force verification oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile_args = argparse.ArgumentParser(add_help=False)
    profile_args.add_argument("--marginals", help="comma-separated marginal probabilities")
    profile_args.add_argument(
        "--input", help="profile file (.json with a 'marginals' key, or one value per CSV line)"
    )
    profile_args.add_argument(
        "--rational", action="store_true",
        help="exact Fraction arithmetic; values may use fraction syntax like 1/3",
    )

    output_args = argparse.ArgumentParser(add_help=False)
    output_args.add_argument("--format", choices=("text", "json", "csv"), default="text")
    output_args.add_argument(
        "--precision", type=_positive_int, default=5,
        help="significant digits for text/csv output (default 5)",
    )

    def command(handler, summary, parents=(profile_args, output_args)):
        """The subcommand that ``handler`` serves, named after it: ``cmd_bound`` is ``bound``."""
        name = handler.__name__.removeprefix("cmd_")
        command_parser = sub.add_parser(name, parents=list(parents), help=summary)
        command_parser.set_defaults(handler=handler)
        return command_parser

    p_bound = command(cmd_bound, "sharp bounds on P(at least k events occur)")
    group = p_bound.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, help="threshold k")
    group.add_argument("--all-k", action="store_true", help="report every k from 1 to n")

    command(cmd_interval, "feasible interval of the family parameter s")

    p_measure = command(cmd_measure, "atom probabilities of the family measure at a chosen s")
    group = p_measure.add_mutually_exclusive_group()
    group.add_argument("--s", help="family parameter value; may be negative, "
                       "as in -0.125, or -1/8 with --rational")
    group.add_argument(
        "--s-endpoint", choices=("min", "max", "zero"),
        help="use an interval endpoint or 0 instead of an explicit --s (default zero)",
    )

    p_table = command(cmd_table, "summary table: five rows per marginal level", [output_args])
    p_table.add_argument("--preset", choices=sorted(TABLE_PRESETS))
    p_table.add_argument("--n", type=_positive_int, help="number of events (custom table)")
    p_table.add_argument("--levels", help="comma-separated uniform marginal levels (custom table)")
    p_table.add_argument(
        "--k-range", type=int, nargs=2, metavar=("LO", "HI"),
        help="inclusive k range (custom table)",
    )

    p_verify = command(cmd_verify, "brute-force oracle; omit the profile to run the random suite")
    p_verify.add_argument("--grid", type=int, help=(
        "number of s values per profile, endpoints included "
        "(default 101 for one profile, 11 for the random suite)"
    ))
    p_verify.add_argument("--seed", type=int, help=f"random-suite seed (default {DEFAULT_SEED})")
    return parser


#: Options whose value may start with ``-``, as in ``--s -1/8`` or ``--marginals -0.5,0.2``.
_SIGNED_OPTIONS = ("--s", "--marginals")


def _join_signed_values(argv):
    """Rewrite ``--s VALUE`` as ``--s=VALUE``, and the same for each of
    :data:`_SIGNED_OPTIONS`: argparse would take a value such as ``-1/8``,
    ``-inf`` or ``-0.5,0.2``, which is not a plain decimal, for an option."""
    out = []
    for token in argv:
        if out and out[-1] in _SIGNED_OPTIONS and not token.startswith("--"):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
    # Python 3.10.7+ limits int-to-str conversion to 4,300 digits; the limit
    # guards parsing the inputs, but an exact coefficient C(n-1, k-1) has
    # more digits from n = 14,293, so it is lifted once every input is in
    digits_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    try:
        result = args.handler(args, parser)
        if digits_limit is not None:
            sys.set_int_max_str_digits(0)
        if args.format == "json":
            _write_json(result.payload())
        else:
            lines = result.text() if args.format == "text" else itertools.chain(
                [",".join(result.columns)],
                (",".join(_cell(v, args.precision) for v in row) for row in result.rows()),
            )
            # a last, empty line ends the output with a newline in the same write
            _write_batched(itertools.chain(lines, [""]), "\n")
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return result.code
    except BrokenPipeError:
        # the reader has gone: point stdout at the null device, so the
        # interpreter's last flush cannot raise again, and stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    finally:
        if digits_limit is not None:
            sys.set_int_max_str_digits(digits_limit)


if __name__ == "__main__":
    sys.exit(main())

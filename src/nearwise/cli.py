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
(default), json, and csv.  Exit codes: 0 success, 2 bad usage or invalid
input, 1 internal error or verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .bounds import makarov_bounds, report_to_dict, sharp_bounds
from .marginals import MarginalError, from_raw, load_profile
from .measures import (
    build_measure,
    invariant_m,
    invariant_p,
    measure_to_dict,
    original_subset,
    s_interval,
)
from .numeric import format_scientific
from .oracle import DEFAULT_SEED, check_profile, run_random_suite
from .reference import ROW_KINDS, reference_cell

_KIND_LABELS = {
    "makarov_lower": "makarov lower",
    "sharp_lower": "sharp lower",
    "exact": "exact",
    "sharp_upper": "sharp upper",
    "makarov_upper": "makarov upper",
}


@dataclass(frozen=True)
class TableSpec:
    """Shape of a summary table: one profile per level, one column per k."""

    n: int
    level_labels: tuple
    k_lo: int
    k_hi: int


TABLE_PRESETS = {
    "paper-table-1": TableSpec(8, ("0.1", "0.2", "0.3", "0.4", "0.5"), 1, 4),
    "paper-table-2": TableSpec(8, ("0.1", "0.2", "0.3", "0.4", "0.5"), 5, 8),
}


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
        raise MarginalError(f"could not parse value {token!r}") from exc


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


def _emit(lines):
    sys.stdout.write("\n".join(lines) + "\n")


def _bound_lines_text(profile, reports, precision):
    fmt = lambda v: format_scientific(v, precision)  # noqa: E731
    if len(reports) == 1:
        r = reports[0]
        return [
            f"n = {profile.n}  k = {r.k}",
            f"sharp lower  {fmt(r.sharp_lower)}  (at s = {fmt(r.s_at_lower)})",
            f"exact        {fmt(r.exact_mutual)}",
            f"sharp upper  {fmt(r.sharp_upper)}  (at s = {fmt(r.s_at_upper)})",
            f"coefficient  {r.coefficient}",
        ]
    width = precision + 6
    lines = [f"n = {profile.n}"]
    header = f"{'k':>4}  {'exact':>{width}}  {'lower':>{width}}  {'upper':>{width}}"
    lines.append(header)
    for r in reports:
        lines.append(
            f"{r.k:>4}  {fmt(r.exact_mutual):>{width}}  "
            f"{fmt(r.sharp_lower):>{width}}  {fmt(r.sharp_upper):>{width}}"
        )
    return lines


def cmd_bound(args, parser) -> int:
    profile = _require_profile(args, parser)
    if args.all_k:
        ks = range(1, profile.n + 1)
    elif args.k is not None:
        ks = [args.k]
    else:
        parser.error("one of --k or --all-k is required")
    reports = [sharp_bounds(profile, k) for k in ks]
    if args.format == "json":
        if len(reports) == 1:
            payload = {"n": profile.n, **report_to_dict(reports[0])}
        else:
            payload = {"n": profile.n, "reports": [report_to_dict(r) for r in reports]}
        _emit([json.dumps(payload, indent=2)])
    elif args.format == "csv":
        fmt = lambda v: format_scientific(v, args.precision)  # noqa: E731
        lines = ["k,exact,lower,upper"]
        for r in reports:
            lines.append(
                f"{r.k},{fmt(r.exact_mutual)},{fmt(r.sharp_lower)},{fmt(r.sharp_upper)}"
            )
        _emit(lines)
    else:
        _emit(_bound_lines_text(profile, reports, args.precision))
    return 0


def cmd_interval(args, parser) -> int:
    profile = _require_profile(args, parser)
    iv = s_interval(profile)
    p = invariant_p(profile)
    m = invariant_m(profile)
    fmt = lambda v: format_scientific(v, args.precision)  # noqa: E731
    if args.format == "json":
        payload = {
            "n": profile.n,
            "s_min": float(iv.s_min),
            "s_max": float(iv.s_max),
            "p": p,
            "m": m,
            "collapsed": iv.is_collapsed,
        }
        _emit([json.dumps(payload, indent=2)])
    elif args.format == "csv":
        _emit(["s_min,s_max,p,m", f"{fmt(iv.s_min)},{fmt(iv.s_max)},{p},{m}"])
    else:
        _emit(
            [
                f"n = {profile.n}",
                f"s interval  [{fmt(iv.s_min)}, {fmt(iv.s_max)}]",
                f"p = {p}  m = {m}",
            ]
        )
    return 0


def _subset_label(indices) -> str:
    return "{" + ",".join(str(i) for i in indices) + "}" if indices else "(none)"


def cmd_measure(args, parser) -> int:
    profile = _require_profile(args, parser)
    if args.s is not None and args.s_endpoint is not None:
        parser.error("--s and --s-endpoint are mutually exclusive")
    if args.s is not None:
        s = _parse_value(args.s, args.rational)
    else:
        endpoint = args.s_endpoint or "zero"
        iv = s_interval(profile)
        if endpoint == "min":
            s = iv.s_min
        elif endpoint == "max":
            s = iv.s_max
        else:
            s = 0  # build_measure reads it in the profile's arithmetic
    measure = build_measure(profile, s)
    fmt = lambda v: format_scientific(v, args.precision)  # noqa: E731
    if args.format == "json":
        _emit([json.dumps(measure_to_dict(measure, profile), indent=2)])
        return 0
    rows = []
    for mask in range(1 << measure.n):
        subset = original_subset(profile, mask)
        rows.append((subset, measure.atom_probs[mask]))
    if args.format == "csv":
        lines = ["subset,prob"]
        for subset, prob in rows:
            lines.append(f"{';'.join(str(i) for i in subset)},{fmt(prob)}")
        _emit(lines)
    else:
        lines = [f"n = {measure.n}  s = {fmt(measure.s)}"]
        label_width = max(len(_subset_label(r[0])) for r in rows)
        for subset, prob in rows:
            lines.append(f"{_subset_label(subset):<{label_width}}  {fmt(prob)}")
        _emit(lines)
    return 0


def _table_spec_from_args(args, parser) -> TableSpec:
    if args.preset:
        return TABLE_PRESETS[args.preset]
    if args.n is None or args.levels is None or args.k_range is None:
        parser.error("either --preset or all of --n, --levels, --k-range are required")
    labels = tuple(t.strip() for t in args.levels.split(",") if t.strip())
    if not labels:
        parser.error("--levels must list at least one probability")
    lo, hi = args.k_range
    if lo > hi:
        parser.error(f"--k-range low {lo} exceeds high {hi}")
    return TableSpec(args.n, labels, lo, hi)


def _level_profile(label: str, n: int):
    """Uniform profile for a table level.

    Exact when the label allows it, so cells that land exactly half way
    between two renderings round from the true decimal value rather than
    from its float approximation; falls back to floats otherwise.
    """
    try:
        return from_raw([Fraction(label)] * n, exact=True)
    except (ValueError, ZeroDivisionError):
        return from_raw([float(label)] * n)


def _table_rows(spec: TableSpec, precision: int, with_reference: bool):
    """Rendered cells plus reference deviations for the two standard rows."""
    ks = list(range(spec.k_lo, spec.k_hi + 1))
    rows = {}
    deviations = []
    for label in spec.level_labels:
        profile = _level_profile(label, spec.n)
        sharp = {k: sharp_bounds(profile, k) for k in ks}
        makarov = {k: makarov_bounds(profile, k) for k in ks}
        by_kind = {}
        for kind in ROW_KINDS:
            cells = []
            for k in ks:
                if kind == "makarov_lower":
                    value = makarov[k].lower
                elif kind == "sharp_lower":
                    value = sharp[k].sharp_lower
                elif kind == "exact":
                    value = sharp[k].exact_mutual
                elif kind == "sharp_upper":
                    value = sharp[k].sharp_upper
                else:
                    value = makarov[k].upper
                rendered = format_scientific(value, precision)
                flagged = False
                if with_reference and kind in ("makarov_lower", "makarov_upper"):
                    ref = reference_cell(label, kind, k)
                    if ref is not None and format_scientific(value, 5) != ref:
                        flagged = True
                        deviations.append(
                            {
                                "level": label,
                                "kind": kind,
                                "k": k,
                                "computed": format_scientific(value, 5),
                                "reference": ref,
                            }
                        )
                cells.append((rendered, flagged))
            by_kind[kind] = cells
        rows[label] = by_kind
    return ks, rows, deviations


def cmd_table(args, parser) -> int:
    spec = _table_spec_from_args(args, parser)
    with_reference = bool(args.preset)
    ks, rows, deviations = _table_rows(spec, args.precision, with_reference)
    if args.format == "json":
        payload = {
            "preset": args.preset,
            "n": spec.n,
            "levels": list(spec.level_labels),
            "k_range": [spec.k_lo, spec.k_hi],
            "rows": {
                label: {kind: [c[0] for c in cells] for kind, cells in by_kind.items()}
                for label, by_kind in rows.items()
            },
            "deviations": deviations,
        }
        _emit([json.dumps(payload, indent=2)])
        return 0
    if args.format == "csv":
        lines = ["level,kind,k,value"]
        for label in spec.level_labels:
            for kind in ROW_KINDS:
                for k, (rendered, _) in zip(ks, rows[label][kind]):
                    lines.append(f"{label},{kind},{k},{rendered}")
        _emit(lines)
        return 0
    width = args.precision + 8
    label_width = max(len(v) for v in _KIND_LABELS.values()) + 2
    header = " " * label_width + "".join(f"{f'k = {k}':>{width - 1}} " for k in ks)
    lines = [header.rstrip()]
    any_flag = False
    for label in spec.level_labels:
        lines.append(f"a = {label}")
        for kind in ROW_KINDS:
            cells = []
            for rendered, flagged in rows[label][kind]:
                any_flag = any_flag or flagged
                cells.append(f"{rendered:>{width - 1}}" + ("*" if flagged else " "))
            line = f"  {_KIND_LABELS[kind]:<{label_width - 2}}" + "".join(cells)
            lines.append(line.rstrip())
    if any_flag:
        lines.append("")
        lines.append(
            "* printed closed form; deviates from the bundled reference cell"
        )
    _emit(lines)
    return 0


def cmd_verify(args, parser) -> int:
    profile = _profile_from_args(args)
    fmt = lambda v: format_scientific(v, args.precision)  # noqa: E731
    mode = "rational" if args.rational else "float"
    if profile is not None:
        report = check_profile(profile, s_points=101 if args.grid is None else args.grid)
        json_extra = {"n": profile.n, "mode": mode}
        iv = s_interval(profile)
        heading = [
            f"n = {profile.n}  mode: {mode}",
            f"s interval  [{fmt(iv.s_min)}, {fmt(iv.s_max)}]",
        ]
    else:
        exact = args.rational
        grid = {} if args.grid is None else {"s_points": args.grid}
        report = run_random_suite(
            count=40 if exact else 200,
            max_n=10 if exact else 12,
            seed=args.seed if args.seed is not None else DEFAULT_SEED,
            exact=exact,
            **grid,
        )
        json_extra = {}
        heading = [
            f"random suite  seed = {report.seed}  profiles = {report.count}  "
            f"max n = {report.max_n}  mode: {mode}",
        ]
    payload = report.to_dict()
    if args.format == "json":
        _emit([json.dumps({**payload, **json_extra}, indent=2)])
    elif args.format == "csv":
        lines = ["key,value"] + [
            f"{k},{v}" for k, v in payload.items() if not isinstance(v, list)
        ]
        _emit(lines)
    else:
        lines = heading
        for key in (
            "measures_checked",
            "worst_normalization",
            "worst_marginal",
            "worst_product",
            "min_atom_seen",
            "tail_match_gap",
            "sharpness_gap",
        ):
            value = payload[key]
            shown = str(value) if isinstance(value, int) else fmt(value)
            lines.append(f"{key.replace('_', ' '):<22}{shown}")
        lines += [f"failure: {f}" for f in report.failures]
        lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
        _emit(lines)
    return 0 if report.passed else 1


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
    profile_args.add_argument(
        "--marginals", help="comma-separated marginal probabilities"
    )
    profile_args.add_argument(
        "--input", help="profile file (.json with a 'marginals' key, or one value per CSV line)"
    )
    profile_args.add_argument(
        "--rational",
        action="store_true",
        help="exact Fraction arithmetic; values may use fraction syntax like 1/3",
    )

    output_args = argparse.ArgumentParser(add_help=False)
    output_args.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    output_args.add_argument(
        "--precision",
        type=_positive_int,
        default=5,
        help="significant digits for text/csv output (default 5)",
    )

    p_bound = sub.add_parser(
        "bound",
        parents=[profile_args, output_args],
        help="sharp bounds on P(at least k events occur)",
    )
    group = p_bound.add_mutually_exclusive_group()
    group.add_argument("--k", type=int, help="threshold k")
    group.add_argument("--all-k", action="store_true", help="report every k from 1 to n")
    p_bound.set_defaults(handler=cmd_bound)

    p_interval = sub.add_parser(
        "interval",
        parents=[profile_args, output_args],
        help="feasible interval of the family parameter s",
    )
    p_interval.set_defaults(handler=cmd_interval)

    p_measure = sub.add_parser(
        "measure",
        parents=[profile_args, output_args],
        help="atom probabilities of the family measure at a chosen s",
    )
    p_measure.add_argument("--s", help="family parameter value")
    p_measure.add_argument(
        "--s-endpoint",
        choices=("min", "max", "zero"),
        help="use an interval endpoint or 0 instead of an explicit --s (default zero)",
    )
    p_measure.set_defaults(handler=cmd_measure)

    p_table = sub.add_parser(
        "table",
        parents=[output_args],
        help="summary table: five rows per marginal level",
    )
    p_table.add_argument("--preset", choices=sorted(TABLE_PRESETS))
    p_table.add_argument("--n", type=int, help="number of events (custom table)")
    p_table.add_argument(
        "--levels", help="comma-separated uniform marginal levels (custom table)"
    )
    p_table.add_argument(
        "--k-range",
        type=int,
        nargs=2,
        metavar=("LO", "HI"),
        help="inclusive k range (custom table)",
    )
    p_table.set_defaults(handler=cmd_table)

    p_verify = sub.add_parser(
        "verify",
        parents=[profile_args, output_args],
        help="brute-force oracle; omit the profile to run the random suite",
    )
    p_verify.add_argument(
        "--grid",
        type=int,
        help=(
            "number of s values per profile, endpoints included "
            "(default 101 for one profile, 11 for the random suite)"
        ),
    )
    p_verify.add_argument(
        "--seed", type=int, help="random-suite seed (default %d)" % DEFAULT_SEED
    )
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

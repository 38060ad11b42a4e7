"""One workload in a fresh process; spawned by ``run.py``, not run by hand.

The process starts, imports what the workload needs, warms up and reports
the monotonic clock at that point, so that ``run.py`` can time set-up from
the spawn.  It then runs the closed loop and prints one JSON line with op
latencies (calibrated and raw), counts and failures.  With ``--probe`` it stops after set-up.
With ``--trace 1`` it runs each cycle of ops untraced and then traced, and
adds the per-layer metrics.

Nothing here prints a result for ``nearwise`` code that is not the
checkout's own: the package is imported from ``src/`` next to this
directory or not at all.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import workloads
from calibrate import Calibration
from tracing import REQUIRED, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Cycles of the ``cli`` mix replayed in process for the traced run.  A
#: fixed count keeps ``cli.stdout_bytes_per_op`` exact from run to run;
#: the other workloads trace for ``--seconds``.
CLI_TRACE_CYCLES = 2
#: Span budget of one traced run (56 bytes each).
MAX_SPANS = 1_000_000

def import_nearwise():
    """Import the package from the checkout's ``src/``, and only from there."""
    sys.path.insert(0, str(SRC))
    import nearwise

    if Path(nearwise.__file__).resolve().parent != SRC / "nearwise":
        sys.exit(f"perfbench: imported nearwise from {nearwise.__file__}, not from {SRC}")
    return nearwise


class ChildRunner:
    """Runs ``python -m nearwise.cli`` and reads its own peak RSS with ``wait4``.

    ``RUSAGE_CHILDREN`` would give the running maximum over every child
    so far, so each child is reaped by pid instead.
    """

    def __init__(self, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stderr_path = workdir / "child-stderr.txt"
        self.max_rss_kb = 0

    def __call__(self, argv):
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "nearwise.cli", *argv],
                stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT,
            )
            try:
                out = proc.stdout.read()
            except BaseException:
                proc.kill()
                raise
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return proc.returncode, out

    def stderr_tail(self) -> str:
        return self.stderr_path.read_text(errors="replace")[-300:]


def replay(main):
    """Runs the CLI in this process with stdout captured."""

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    return run


def run_ops(workload, run, inputs, calibration, *, seconds=None, ops=None, first=0,
            on_output=None):
    """The closed loop.  Ends on a whole cycle once ``seconds`` have passed
    or ``ops`` ops have run; ``first`` numbers the ops in failure messages.

    Each op is timed alone; input generation, calibration samples and the
    check against the reference run outside its timed region.  Returns
    ``(wall ns, calibration sample index)`` per op, and the failures, which
    are counted, never raised.
    """
    timed, failures = [], []
    start = time.monotonic()
    for i in itertools.count():
        if i % workload.cycle == 0 and i and (
            (ops is not None and i >= ops)
            or (seconds is not None and time.monotonic() - start >= seconds)
        ):
            break
        op = next(inputs)
        sample = calibration.sample()
        t0 = time.perf_counter_ns()
        try:
            output, error = run(op), None
        except Exception as exc:
            output, error = None, f"raised {exc!r}"
        timed.append((time.perf_counter_ns() - t0, sample))
        if error is None:
            if on_output is not None:
                on_output(op, output)
            try:
                error = workload.check(op, output)
            except Exception as exc:
                error = f"output check raised {exc!r}"
        if error:
            failures.append(f"op {first + i}: {error}")
    return timed, failures


def in_process_api(nearwise) -> SimpleNamespace:
    return SimpleNamespace(
        from_raw=nearwise.from_raw,
        sharp_bounds=nearwise.sharp_bounds,
        check_profile=nearwise.check_profile,
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workload = workloads.make(args.workload, args.workdir)
    cli = args.workload == "cli"
    report = {}
    if args.trace or not cli:
        t0 = time.perf_counter_ns()
        nearwise = import_nearwise()
        if args.trace:
            import nearwise.cli  # noqa: F401  (timed: what every CLI child pays)

            report["import_ms"] = (time.perf_counter_ns() - t0) / 1e6
        if not cli:
            api = in_process_api(nearwise)
            workload.warm_up(api)
    report["ready"] = time.monotonic()
    if args.probe:
        print(json.dumps(report))
        return 0

    if cli:
        workload.prepare()
    calibration = Calibration(dense=args.workload == "oracle")
    if args.trace:
        timed, failures = traced_run(workload, args, report, calibration)
    else:
        if cli:
            api = ChildRunner(args.workdir)
        timed, failures = run_ops(
            workload, lambda op: workload.run(api, op), workload.inputs(args.seed),
            calibration, seconds=args.seconds,
        )
        if cli:
            report["child_max_rss_kb"] = api.max_rss_kb
            if failures:
                report["last_child_stderr"] = api.stderr_tail()
            report["known_defect"] = known_defect(workload, api)
    report.update(
        latencies_ns=calibration.scaled(timed),
        raw_latencies_ns=[ns for ns, _ in timed],
        failures=failures,
        speed_factor=calibration.factor(),
        kernel_ms=calibration.kernel_ms(),
    )
    print(json.dumps(report))
    return 0


def known_defect(workload, api) -> dict:
    """Runs the op that float underflow fails once, after the timed loop.

    It is not one of the workload's ops, so it moves no metric and no
    count; its verdict is reported so that a fix shows as ``passed``.
    """
    op = workload.defect_op()
    try:
        error = workload.check(op, api(op[2]))
    except Exception as exc:
        error = f"raised {exc!r}"
    return {"op": " ".join(op[2][:-1] + ["<2000-line CSV of 0.5>"]),
            "passed": error is None, "reason": error}


def traced_run(workload, args, report, calibration):
    """Each cycle of ops runs untraced and traced; per-layer metrics go into
    ``report``."""
    nearwise = sys.modules["nearwise"]
    tracer = Tracer(MAX_SPANS)
    if args.workload == "cli":
        api = replay(nearwise.cli.main)
        traced_api = replay(tracer.wrap(nearwise.cli.main, "bench.cli.main"))
        cycles, seconds = CLI_TRACE_CYCLES, float("inf")
    else:
        api = in_process_api(nearwise)
        traced_api = SimpleNamespace(
            from_raw=tracer.wrap(nearwise.from_raw, "bench.from_raw"),
            sharp_bounds=tracer.wrap(nearwise.sharp_bounds, "bench.sharp_bounds"),
            check_profile=tracer.wrap(nearwise.check_profile, "bench.check_profile"),
        )
        cycles, seconds = float("inf"), args.seconds
    op_span = tracer.wrap(lambda op: workload.run(traced_api, op), "bench.op", label="bench.op")
    stdout_bytes = []

    def run_traced(op):
        tracer.op += 1
        return op_span(op)

    def count_stdout(op, output):
        if args.workload == "cli":
            stdout_bytes.append(len(output[1].encode("utf-8")))

    def traced_cycle(first):
        tracer.install()
        try:
            return run_ops(
                workload, run_traced, traced_inputs, calibration,
                ops=workload.cycle, first=first, on_output=count_stdout,
            )
        finally:
            tracer.uninstall()

    # Untraced and traced cycles alternate on the same inputs, and which side
    # goes first alternates too: the second run of a cycle finds memory
    # already mapped, which would otherwise bias the overhead estimate.
    plain, traced, failures, cycle_ns = [], [], [], []
    plain_inputs, traced_inputs = workload.inputs(args.seed), workload.inputs(args.seed)
    start = time.monotonic()
    for cycle in itertools.count():
        if (
            len(plain) >= cycles * workload.cycle
            or time.monotonic() - start >= seconds
            or tracer.full
        ):
            break
        first = len(plain)
        if cycle % 2:
            traced_lat, traced_fails = traced_cycle(first)
        plain_lat, plain_fails = run_ops(
            workload, lambda op: workload.run(api, op), plain_inputs, calibration,
            ops=workload.cycle, first=first,
        )
        if not cycle % 2:
            traced_lat, traced_fails = traced_cycle(first)
        plain += plain_lat
        traced += traced_lat
        cycle_ns.append((plain_lat, traced_lat))
        failures += plain_fails + [f"traced {f}" for f in traced_fails]

    missing = tracer.missing(REQUIRED[args.workload])
    if missing:
        sys.exit(
            f"perfbench: traced boundaries recorded no spans on {args.workload}: "
            f"{', '.join(missing)} (renamed or re-imported?)"
        )
    ops = len(traced)
    speed = calibration.factor()
    layers = {
        name: value * speed if name.endswith("_ms_per_op") else value
        for name, value in tracer.metrics(ops).items()
    }
    layers["cli.import_ms"] = report.pop("import_ms") * speed
    layers["cli.stdout_bytes_per_op"] = sum(stdout_bytes) / ops
    # One ratio per pair of cycles, one of each order, so that the order
    # effect cancels; the median keeps the first cycle's lazy set-up out.
    cycle_ns = [(sum(calibration.scaled(p)), sum(calibration.scaled(t))) for p, t in cycle_ns]
    ratios = [
        (a[1] + b[1]) / (a[0] + b[0]) for a, b in zip(cycle_ns[::2], cycle_ns[1::2])
    ] or [c[1] / c[0] for c in cycle_ns]
    layers["trace.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    report["per_layer"] = layers
    report["traced_ops"] = ops
    report["absent_boundaries"] = tracer.absent

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    header = json.dumps({"workload": args.workload, "seed": args.seed, "ops": ops})
    tracer.write(out_dir / f"spans-{args.workload}.tsv", header)
    return plain + traced, failures


if __name__ == "__main__":
    sys.exit(main())

"""nearwise benchmark: one command for every workload, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-float --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` prints the end-to-end metrics of one workload, measured with
tracing off; ``--trace 1`` prints the per-layer metrics of a separate
traced run.  ``--workload all`` runs every workload both ways.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
provenance and the failures seen.

Each workload runs in a fresh process (``worker.py``), so that its peak
RSS is its own; set-up is timed from that process's spawn.  Inputs come
from ``--seed`` and every output is checked against an exact reference
(``refcheck.py``) outside the timed region.  Times are scaled by the
worker's calibration of the machine's speed (``calibrate.py``).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import UNITS as LAYER_UNITS
from workloads import NAMES as WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units, in the order they are printed.
#: ``success_rate`` is 1 - error rate: an end-to-end metric must never read 0.
E2E_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Extra set-up samples per run: each is a fresh process that imports,
#: warms up and exits.  Half run before the timed run and half after it, so
#: that their median and the run's speed factor cover the same stretch of
#: time.  The run reports the median with its own.
SETUP_PROBES = {"cli": 24}
DEFAULT_SETUP_PROBES = 6
#: A run that is still going after this long is stopped and fails.
WATCHDOG_S = 170


class Watchdog(Exception):
    pass


class Worker:
    """Spawns ``worker.py`` and reaps it with ``wait4`` for its own peak RSS."""

    def __init__(self):
        self.proc = None

    def run(self, argv):
        spawned = time.monotonic()
        self.proc = proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
        )
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            self.kill()
            raise
        finally:
            proc.stdout.close()
        self.proc = None
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: worker {' '.join(argv)} exited {proc.returncode}")
        report = json.loads(out.decode("utf-8").splitlines()[-1])
        report["setup_s"] = report["ready"] - spawned
        report["max_rss_kb"] = usage.ru_maxrss
        return report

    def kill(self):
        """Stop the worker and whatever it started, and reap the worker."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def provenance(workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no commit
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def end_to_end(worker: Worker, workload: str, args, workdir: Path):
    common = ["--workload", workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    probes = SETUP_PROBES.get(workload, DEFAULT_SETUP_PROBES)

    def probe(count):
        return [worker.run(common + ["--seconds", "0", "--probe"])["setup_s"] for _ in range(count)]

    setups = probe(probes // 2)
    report = worker.run(common + ["--seconds", str(args.seconds)])
    setups += [report["setup_s"]] + probe(probes - probes // 2)
    raw_ms = [ns / 1e6 for ns in report["raw_latencies_ns"]]
    latencies = [ns / 1e6 for ns in report["latencies_ns"]]
    speed = report["speed_factor"]
    attempted, failed = len(latencies), len(report["failures"])
    rss_kb = report["child_max_rss_kb"] if workload == "cli" else report["max_rss_kb"]
    p90 = statistics.quantiles(latencies, n=10)[-1]
    metrics = {
        "ops_per_s": attempted / (sum(latencies) / 1e3),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": p90,
        "success_rate": (attempted - failed) / attempted,
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": rss_kb / 1024,
    }
    details = {
        "error_rate": failed / attempted,
        "samples": attempted,
        "samples_above_p90": sum(x > p90 for x in latencies),
        "speed_factor": speed,
        "kernel_ms": report["kernel_ms"],
        "raw": {
            "ops_per_s": attempted / (sum(raw_ms) / 1e3),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_p90_ms": statistics.quantiles(raw_ms, n=10)[-1],
            "setup_s": statistics.median(setups),
        },
        "setup_samples_s": setups,
        "failures": report["failures"][:5],
    }
    for key in ("last_child_stderr", "known_defect"):
        if key in report:
            details[key] = report[key]
    return attempted, failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, details


def per_layer(worker: Worker, workload: str, args, workdir: Path):
    report = worker.run([
        "--workload", workload, "--seed", str(args.seed), "--workdir", str(workdir),
        "--seconds", str(args.seconds), "--trace", "1",
    ])
    attempted, failed = len(report["latencies_ns"]), len(report["failures"])
    layers = report["per_layer"]
    details = {
        "traced_ops": report["traced_ops"],
        "speed_factor": report["speed_factor"],
        "kernel_ms": report["kernel_ms"],
        "absent_boundaries": report["absent_boundaries"],
        "failures": report["failures"][:5],
    }
    return attempted, failed, {k: (layers[k], LAYER_UNITS[k]) for k in LAYER_UNITS}, details


def run_one(worker: Worker, workload: str, trace: int, args, workdir: Path):
    measure = per_layer if trace else end_to_end
    signal.alarm(WATCHDOG_S)
    try:
        attempted, failed, metrics, details = measure(worker, workload, args, workdir)
    finally:
        signal.alarm(0)
    print(f"perfbench {workload} seed={args.seed} trace={trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {unit}")
    print(f"  attempted {attempted}, failed {failed}")
    print(json.dumps({"provenance": provenance(workload, args.seed, args.seconds, trace), **details}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "nearwise" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nearwise sources under {SRC}; nothing to measure")
    compileall.compile_dir(SRC, quiet=1)

    worker = Worker()

    def on_alarm(signum, frame):
        raise Watchdog()

    signal.signal(signal.SIGALRM, on_alarm)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if args.workload == "all":
            combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result = run_one(worker, workload, trace, args, workdir)
                    print(json.dumps(result))
                    combined["correct"] &= result["correct"]
                    combined["attempted"] += result["attempted"]
                    combined["failed"] += result["failed"]
                    for name, value in result["metrics"].items():
                        combined["metrics"][f"{workload}.{name}"] = value
            result = combined
        else:
            result = run_one(worker, args.workload, args.trace, args, workdir)
    except Watchdog:
        sys.exit(f"perfbench: run exceeded {WATCHDOG_S} s and was stopped")
    finally:
        worker.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

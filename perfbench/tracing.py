"""Per-layer spans, recorded from the benchmark's own files.

The traced run replaces, for its duration, each function that one
``nearwise`` module calls from another (plus a few calls inside a module
that the per-layer metrics count) by a wrapper bound under the caller's
name, e.g. ``nearwise.bounds.poisson_binomial_pmf``.  Nothing under
``src/`` changes.  Each wrapper records a span: op id, span id, parent
span, boundary, start, end and a work count.  Spans stay in memory and are
written out once, when the run ends.

A layer is the ``nearwise`` module that defines the called function.  Its
self time is the duration of its spans minus the part covered by their
child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

#: Bindings to wrap, by the module that holds them.  The module's own
#: name in a list means a call inside that module.
BOUNDARIES = {
    "nearwise.bounds": [
        "s_interval", "poisson_binomial_pmf", "tail_from_pmf", "prefix_atom",
        "binom_or_zero", "probability_at_s", "tail_probability_dp",
    ],
    "nearwise.measures": [
        "atom_products_dense", "subset_products_dense", "superset_sums",
        "popcount_table", "prefix_atom", "close", "s_interval",
    ],
    "nearwise.oracle": [
        "probability_at_s", "sharp_bounds", "tail_probability_dp", "from_raw",
        "build_measure", "invariant_m", "invariant_p", "s_interval",
        "atom_products_dense", "subset_products_dense", "superset_sums",
        "close", "popcount_table", "prefix_atom",
        "verify_measure", "verify_extremal_atoms", "scan_sharpness", "enumerate_tail",
    ],
    "nearwise.cli": [
        "makarov_bounds", "report_to_dict", "sharp_bounds", "from_raw",
        "load_profile", "build_measure", "invariant_m", "invariant_p",
        "measure_to_dict", "original_subset", "s_interval", "format_scientific",
        "check_profile", "run_random_suite",
    ],
}

#: Boundaries each workload must exercise.  A rename or a re-import that
#: bypasses one would otherwise record no spans and read as a speed-up.
#: Other bindings in :data:`BOUNDARIES` may disappear in a refactor; they
#: are then listed as absent and their time falls to the caller.
REQUIRED = {
    "sweep-float": [
        "bench.from_raw", "bench.sharp_bounds",
        "nearwise.bounds.s_interval", "nearwise.bounds.poisson_binomial_pmf",
    ],
    "oracle": [
        "bench.from_raw", "bench.check_profile",
        "nearwise.oracle.build_measure", "nearwise.oracle.verify_measure",
        "nearwise.bounds.s_interval", "nearwise.bounds.poisson_binomial_pmf",
    ],
    "cli": [
        "bench.cli.main", "nearwise.cli.load_profile", "nearwise.cli.sharp_bounds",
        "nearwise.cli.build_measure", "nearwise.cli.check_profile",
        "nearwise.oracle.verify_measure", "nearwise.bounds.poisson_binomial_pmf",
    ],
}
REQUIRED["sweep-exact"] = REQUIRED["sweep-float"]

#: Per-layer metrics and their units, in the order they are printed.
UNITS = {
    "marginals.calls_per_op": "count",
    "marginals.self_ms_per_op": "ms",
    "measures.s_interval.calls_per_op": "count",
    "measures.s_interval.self_ms_per_op": "ms",
    "measures.build_measure.calls_per_op": "count",
    "measures.build_measure.self_ms_per_op": "ms",
    "measures.self_ms_per_op": "ms",
    "numeric.pmf.calls_per_op": "count",
    "numeric.pmf.self_ms_per_op": "ms",
    "numeric.pmf.mults_per_op": "count",
    "numeric.dense.self_ms_per_op": "ms",
    "numeric.dense.bytes_per_op": "B-computed",
    "numeric.self_ms_per_op": "ms",
    "bounds.sharp_bounds.calls_per_op": "count",
    "bounds.probability_at_s.calls_per_op": "count",
    "bounds.self_ms_per_op": "ms",
    "oracle.verify_measure.self_ms_per_op": "ms",
    "oracle.self_ms_per_op": "ms",
    "oracle.measures_checked_per_op": "count",
    "cli.import_ms": "ms",
    "cli.self_ms_per_op": "ms",
    "cli.stdout_bytes_per_op": "B",
    "trace.overhead_pct": "%",
}

_DENSE = {"numeric.atom_products_dense", "numeric.subset_products_dense", "numeric.superset_sums"}
#: Bytes of a dense vector entry: a float64, or a pointer in exact mode.
#: ``numeric.dense.bytes_per_op`` is computed from 2^n and this size; it
#: is not measured.
_DENSE_ENTRY_BYTES = 8


def _work(label: str):
    """Work count of one call, from its arguments or result, or ``None``."""
    if label == "numeric.poisson_binomial_pmf":
        # a convolution of L factors multiplies 2 * (i + 1) terms at step i
        return lambda args, kwargs, result: len(args[0]) * (len(args[0]) + 1)
    if label in ("numeric.atom_products_dense", "numeric.subset_products_dense"):
        return lambda args, kwargs, result: _DENSE_ENTRY_BYTES << len(args[0])
    if label == "numeric.superset_sums":
        return lambda args, kwargs, result: _DENSE_ENTRY_BYTES << (
            args[1] if len(args) > 1 else kwargs["n"]
        )
    if label == "oracle.check_profile":
        return lambda args, kwargs, result: result.measures_checked
    return None


class Tracer:
    """Installs the wrappers and keeps the spans of one traced run."""

    _FIELDS = 7  # op, span, parent, boundary, start_ns, end_ns, work

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.spans = array("q")
        self.boundaries: list[str] = []
        self.labels: list[str] = []
        self.op = -1
        self._stack = [-1]
        self._next_id = 0
        self._bindings = None
        self.absent: list[str] = []

    @property
    def full(self) -> bool:
        return len(self.spans) >= self.max_spans * self._FIELDS

    def wrap(self, fn, boundary: str, label: str | None = None):
        """``fn`` recording a span under ``boundary`` on every call."""
        if label is None:
            label = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        index = len(self.boundaries)
        self.boundaries.append(boundary)
        self.labels.append(label)
        work = _work(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id = span + 1
            parent = stack[-1]
            stack.append(span)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = work(args, kwargs, result) if work and result is not None else 0
                spans.extend((self.op, span, parent, index, start, end, count))

        return traced

    def install(self) -> None:
        """Bind every wrapper; built on the first call from the bindings in
        :data:`BOUNDARIES` that exist."""
        if self._bindings is None:
            self._bindings = []
            for module_name, names in BOUNDARIES.items():
                module = importlib.import_module(module_name)
                for name in names:
                    original = getattr(module, name, None)
                    if original is None:
                        self.absent.append(f"{module_name}.{name}")
                        continue
                    wrapper = self.wrap(original, f"{module_name}.{name}")
                    self._bindings.append((module, name, original, wrapper))
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._bindings or ():
            setattr(module, name, original)

    def _rows(self):
        spans, f = self.spans, self._FIELDS
        for i in range(0, len(spans), f):
            yield spans[i:i + f]

    def missing(self, required) -> list[str]:
        """Required boundaries that recorded no span."""
        hit = {self.boundaries[row[3]] for row in self._rows()}
        return [b for b in required if b not in hit]

    def metrics(self, ops: int) -> dict:
        """Per-op layer metrics over the ``ops`` traced ops."""
        children = defaultdict(int)
        for row in self._rows():
            children[row[2]] += row[5] - row[4]
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        layer_ns = defaultdict(int)
        layer_calls = defaultdict(int)
        work = defaultdict(int)
        for op, span, parent, index, start, end, count in self._rows():
            label = self.labels[index]
            layer = label.split(".", 1)[0]
            own = end - start - children[span]
            calls[label] += 1
            self_ns[label] += own
            layer_ns[layer] += own
            layer_calls[layer] += 1
            work[label] += count
        dense_ns = sum(self_ns[label] for label in _DENSE)
        dense_bytes = sum(work[label] for label in _DENSE)
        per_op = lambda x: x / ops  # noqa: E731
        ms = lambda ns: ns / 1e6 / ops  # noqa: E731
        return {
            "marginals.calls_per_op": per_op(layer_calls["marginals"]),
            "marginals.self_ms_per_op": ms(layer_ns["marginals"]),
            "measures.s_interval.calls_per_op": per_op(calls["measures.s_interval"]),
            "measures.s_interval.self_ms_per_op": ms(self_ns["measures.s_interval"]),
            "measures.build_measure.calls_per_op": per_op(calls["measures.build_measure"]),
            "measures.build_measure.self_ms_per_op": ms(self_ns["measures.build_measure"]),
            "measures.self_ms_per_op": ms(layer_ns["measures"]),
            "numeric.pmf.calls_per_op": per_op(calls["numeric.poisson_binomial_pmf"]),
            "numeric.pmf.self_ms_per_op": ms(self_ns["numeric.poisson_binomial_pmf"]),
            "numeric.pmf.mults_per_op": per_op(work["numeric.poisson_binomial_pmf"]),
            "numeric.dense.self_ms_per_op": ms(dense_ns),
            "numeric.dense.bytes_per_op": per_op(dense_bytes),
            "numeric.self_ms_per_op": ms(layer_ns["numeric"]),
            "bounds.sharp_bounds.calls_per_op": per_op(calls["bounds.sharp_bounds"]),
            "bounds.probability_at_s.calls_per_op": per_op(calls["bounds.probability_at_s"]),
            "bounds.self_ms_per_op": ms(layer_ns["bounds"]),
            "oracle.verify_measure.self_ms_per_op": ms(self_ns["oracle.verify_measure"]),
            "oracle.self_ms_per_op": ms(layer_ns["oracle"]),
            "oracle.measures_checked_per_op": per_op(work["oracle.check_profile"]),
            "cli.self_ms_per_op": ms(layer_ns["cli"]),
        }

    def write(self, path, header: str) -> None:
        """Write every span as one tab-separated line, after ``header``."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(f"# {header}\n")
            out.write("op\tspan\tparent\tboundary\tlayer\tstart_ns\tend_ns\twork\n")
            for op, span, parent, index, start, end, count in self._rows():
                label = self.labels[index]
                out.write(
                    f"{op}\t{span}\t{parent}\t{self.boundaries[index]}\t"
                    f"{label.split('.', 1)[0]}\t{start}\t{end}\t{count}\n"
                )

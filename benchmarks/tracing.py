"""In-memory spans around calls into the gmpdetect modules.

A :class:`Tracer` replaces a public function at the module attribute its
callers look it up through (``harness.mmse_detect``, ``sagmpid.auto_relaxation``,
``cli.run_convergence_table``, ...) with a wrapper that records one span per
call: name, start, end, parent span, trial id, and the ``iterations`` /
``flops`` / ``terminated`` fields of the returned result when it has them.
Spans stay in a list until the run ends; :func:`layer_metrics` turns them
into the per-layer numbers.

Nothing under ``src/`` is edited: the wrappers exist only in the traced
benchmark process.
"""
from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass

from stats import percentile, tail_percentile

LAYERS = ("model", "reference", "gmpid", "sagmpid", "analysis", "classic", "harness", "cli")

# (module whose attribute is replaced, attribute, defining module).
# One function may be looked up through several modules; every lookup site
# a workload reaches is wrapped so no call escapes its span. The package
# namespace ``gmpdetect`` is the site the library workload calls through.
WRAP_SITES = (
    ("gmpdetect", "build_instance", "model"),
    ("gmpdetect", "realize", "model"),
    ("gmpdetect", "mmse_detect", "reference"),
    ("gmpdetect", "gmpid_detect", "gmpid"),
    ("gmpdetect", "sagmpid_detect", "sagmpid"),
    ("gmpdetect", "auto_relaxation", "sagmpid"),
    ("gmpdetect", "gmpid_mean_convergence_report", "analysis"),
    ("gmpdetect", "sagmpid_convergence_report", "analysis"),
    ("harness", "build_instance", "model"),
    ("harness", "realize", "model"),
    ("harness", "derive_trial_seeds", "model"),
    ("harness", "mse", "model"),
    ("harness", "mmse_detect", "reference"),
    ("harness", "matched_filter_detect", "reference"),
    ("harness", "inverse_filter_detect", "reference"),
    ("harness", "gmp_block_detect", "reference"),
    ("harness", "gmpid_detect", "gmpid"),
    ("harness", "sagmpid_detect", "sagmpid"),
    ("harness", "iterate", "classic"),
    ("harness", "jacobi_for_mmse", "classic"),
    ("harness", "richardson_for_mmse", "classic"),
    ("harness", "run_detector", "harness"),
    ("harness", "resolve_relaxation", "harness"),
    ("sagmpid", "auto_relaxation", "sagmpid"),
    ("sagmpid", "variance_fixed_point", "gmpid"),
    ("analysis", "variance_fixed_point", "gmpid"),
    ("analysis", "relaxation_system_matrix", "sagmpid"),
    ("analysis", "relaxation_iteration_matrix", "sagmpid"),
    ("analysis", "convergence_check", "analysis"),
    ("analysis", "spectral_radius", "analysis"),
    ("cli", "run_experiment", "harness"),
    ("cli", "run_convergence_table", "harness"),
    ("cli", "aggregate_records", "harness"),
    ("cli", "emit_csv", "harness"),
    ("cli", "write_text", "harness"),
    ("cli", "main", "cli"),
)


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index into the span list, -1 for a root span
    trial: int
    iterations: int | None
    flops: int | None
    terminated: str | None


def _result_counts(result) -> tuple[int | None, int | None, str | None]:
    """Counts carried by a detector result, whatever wrapper type holds it."""
    inner = getattr(result, "result", result)
    iterations = getattr(inner, "iterations", None)
    flops = getattr(inner, "flops", None)
    terminated = getattr(inner, "terminated", None)
    terminated = getattr(terminated, "value", terminated)
    if not isinstance(iterations, int) or not isinstance(flops, int):
        return None, None, None
    return iterations, flops, terminated


class Tracer:
    """Records spans for calls through the wrapped module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.trial = 0  # set by the workload at each trial boundary
        self._stack: list[int] = []

    def install(self, modules: dict) -> None:
        """Wrap every site in :data:`WRAP_SITES` (``modules`` maps short names)."""
        for site, attr, defining in WRAP_SITES:
            module = modules[site]
            setattr(module, attr, self._wrap(getattr(module, attr), f"{defining}.{attr}"))

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.trial, *_result_counts(result))

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one object per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its child spans cover (ns)."""
    out = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end_ns - s.start_ns
    return out


class _Calls:
    """Spans of one function, with their self times."""

    def __init__(self, spans: list[Span], selfs: list[int]) -> None:
        self.spans = spans
        self.selfs = selfs

    def p50_ms(self, own: bool = False) -> float:
        if not self.spans:
            return 0.0
        values = self.selfs if own else [s.end_ns - s.start_ns for s in self.spans]
        return statistics.median(values) / 1e6

    def tail_ms(self) -> float:
        if not self.spans:
            return 0.0
        p = tail_percentile(len(self.spans))
        return percentile([s.end_ns - s.start_ns for s in self.spans], 50.0 if p is None else p) / 1e6

    def total_ns(self) -> int:
        return sum(s.end_ns - s.start_ns for s in self.spans)

    def iterations(self) -> int:
        return sum(s.iterations or 0 for s in self.spans)

    def flops(self) -> int:
        return sum(s.flops or 0 for s in self.spans)

    def mean_iterations(self) -> float:
        return self.iterations() / len(self.spans) if self.spans else 0.0

    def ms_per_iter(self, own: bool = False) -> float:
        it = self.iterations()
        ns = sum(self.selfs) if own else self.total_ns()
        return ns / 1e6 / it if it else 0.0

    def flops_per_iter(self) -> float:
        it = self.iterations()
        return self.flops() / it if it else 0.0

    def gflops(self) -> float:
        ns = self.total_ns()
        return self.flops() / ns if ns else 0.0  # flops per ns == Gflop/s

    def frac(self, status: str) -> float:
        if not self.spans:
            return 0.0
        return sum(s.terminated == status for s in self.spans) / len(self.spans)

    def wasted_iter_frac(self) -> float:
        it = self.iterations()
        wasted = sum(
            s.iterations or 0
            for s in self.spans
            if s.terminated in ("Diverged", "MaxIterations")
        )
        return wasted / it if it else 0.0


def layer_metrics(spans: list[Span], wall_ns: int, trials: int) -> dict[str, float]:
    """Per-layer metrics (``<module>.<function>.<stat>``) from one traced run.

    A function that never ran reports 0 for its statistics; the expected-span
    check in :func:`missing_spans` is what makes an absent layer fail.
    """
    selfs = self_times(spans)
    by_name: dict[str, tuple[list[Span], list[int]]] = {}
    layer_self = {layer: 0 for layer in LAYERS}
    for span, own in zip(spans, selfs):
        group = by_name.setdefault(span.name, ([], []))
        group[0].append(span)
        group[1].append(own)
        layer_self[span.name.split(".", 1)[0]] += own

    def calls(name: str) -> _Calls:
        return _Calls(*by_name.get(name, ([], [])))

    gmp = calls("gmpid.gmpid_detect")
    sag = calls("sagmpid.sagmpid_detect")
    mmse = calls("reference.mmse_detect")
    it = calls("classic.iterate")
    m: dict[str, float] = {
        "gmpid.gmpid_detect.p50_ms": gmp.p50_ms(),
        "gmpid.gmpid_detect.iterations": gmp.mean_iterations(),
        "gmpid.gmpid_detect.ms_per_iter": gmp.ms_per_iter(),
        "gmpid.gmpid_detect.flops_per_iter": gmp.flops_per_iter(),
        "gmpid.gmpid_detect.gflops": gmp.gflops(),
        "gmpid.gmpid_detect.converged_frac": gmp.frac("Converged"),
        "gmpid.gmpid_detect.wasted_iter_frac": gmp.wasted_iter_frac(),
        "sagmpid.auto_relaxation.p50_ms": calls("sagmpid.auto_relaxation").p50_ms(),
        "sagmpid.sagmpid_detect.p50_ms": sag.p50_ms(own=True),
        "sagmpid.sagmpid_detect.iterations": sag.mean_iterations(),
        "sagmpid.sagmpid_detect.ms_per_iter": sag.ms_per_iter(own=True),
        "sagmpid.sagmpid_detect.converged_frac": sag.frac("Converged"),
        "sagmpid.sagmpid_detect.wasted_iter_frac": sag.wasted_iter_frac(),
        "reference.mmse_detect.p50_ms": mmse.p50_ms(),
        "reference.mmse_detect.tail_ms": mmse.tail_ms(),
        "reference.mmse_detect.gflops": mmse.gflops(),
        "reference.matched_filter_detect.p50_ms": calls("reference.matched_filter_detect").p50_ms(),
        "reference.inverse_filter_detect.p50_ms": calls("reference.inverse_filter_detect").p50_ms(),
        "reference.gmp_block_detect.p50_ms": calls("reference.gmp_block_detect").p50_ms(),
        "model.build_instance.p50_ms": calls("model.build_instance").p50_ms(),
        "model.realize.p50_ms": calls("model.realize").p50_ms(),
        "analysis.gmpid_mean_convergence_report.p50_ms": calls("analysis.gmpid_mean_convergence_report").p50_ms(),
        "analysis.sagmpid_convergence_report.p50_ms": calls("analysis.sagmpid_convergence_report").p50_ms(),
        "classic.iterate.p50_ms": it.p50_ms(),
        "classic.iterate.iterations": it.mean_iterations(),
        "classic.iterate.ms_per_iter": it.ms_per_iter(),
        "classic.iterate.wasted_iter_frac": it.wasted_iter_frac(),
        "classic.jacobi_for_mmse.p50_ms": calls("classic.jacobi_for_mmse").p50_ms(),
        "classic.richardson_for_mmse.p50_ms": calls("classic.richardson_for_mmse").p50_ms(),
        "harness.run_detector.calls": float(len(calls("harness.run_detector").spans)),
        "harness.self_ms_per_trial": layer_self["harness"] / 1e6 / trials if trials else 0.0,
        "cli.main.self_ms": calls("cli.main").p50_ms(own=True),
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall_ns if wall_ns else 0.0
    return m


def missing_spans(spans: list[Span], expected: tuple[str, ...]) -> list[str]:
    """Names in ``expected`` that no recorded span carries."""
    seen = {s.name for s in spans}
    return [name for name in expected if name not in seen]

"""One workload process: set up, then run the timed phase.

Started by ``run.py`` with the BLAS thread variables already in its
environment, so they act before numpy is imported. It prints ``READY`` once
set-up (interpreter start, ``import gmpdetect``, one warm-up unit) is done,
and one ``RESULT <json>`` line at the end.

``--trace`` wraps the package's public functions in spans before the timed
phase. Units are numbered from ``--first-unit``, so children of one run can
work on distinct inputs of the same seed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gmpdetect  # noqa: E402  (needs the path above)
from gmpdetect import analysis, cli, harness, sagmpid  # noqa: E402

import envinfo  # noqa: E402
from tracing import Tracer, layer_metrics, missing_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = {"gmpdetect": gmpdetect, "harness": harness, "sagmpid": sagmpid, "analysis": analysis, "cli": cli}
WARM_S = 1.0  # untimed work after READY, so the first timed unit is not cold


def _usage() -> tuple[float, int]:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime, ru.ru_nivcsw


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--first-unit", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-out")
    args = p.parse_args()

    wl = WORKLOADS[args.workload](MODULES, args.workdir, args.seed)
    wl.warmup()
    print("READY", flush=True)

    warm_end = time.perf_counter() + WARM_S
    while time.perf_counter() < warm_end:
        wl.warmup()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(MODULES)
        wl.tracer = tracer

    trial_ns, ratios, units, failures = [], [], [], []
    attempted = output_bytes = 0
    cpu0, ctx0 = _usage()
    start = time.perf_counter_ns()
    deadline = start + int(args.seconds * 1e9)
    index = 0
    while index == 0 or time.perf_counter_ns() < deadline:
        res = wl.unit(args.first_unit + index)
        trial_ns += res.trial_ns
        ratios += res.mse_ratios
        attempted += res.attempted
        failures += res.failures
        output_bytes += res.output_bytes
        units.append(res.counts)
        index += 1
    wall_ns = time.perf_counter_ns() - start
    cpu1, ctx1 = _usage()

    out = {
        "wall_ns": wall_ns,
        "units": index,
        "trial_ns": trial_ns,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "mse_ratios": ratios,
        "unit_counts": units,
        "output_bytes_per_unit": output_bytes / index,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_per_wall": (cpu1 - cpu0) / (wall_ns / 1e9),
        "invol_ctx_switches_per_s": (ctx1 - ctx0) / (wall_ns / 1e9),
        "numpy": envinfo.numpy_info(),
    }
    if tracer is not None:
        spans = tracer.spans
        out["layers"] = layer_metrics(spans, wall_ns, len(trial_ns))
        out["missing_spans"] = missing_spans(spans, wl.expected_spans)
        out["span_count"] = len(spans)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

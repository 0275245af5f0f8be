"""gmpdetect benchmark: one workload, one run, one JSON line.

    python3 benchmarks/run.py --workload <large-detect|mmse-sweep|load-table> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src/`` (no install step). Every workload runs in child processes whose
BLAS thread count is set to ``nproc`` before numpy is imported.

``--trace 0`` runs ``CHILDREN`` children one after another, each timed for
a third of ``--seconds`` on its own units of the seed. Each child's start is
timed until it reports ready (one set-up sample). It reports the end-to-end
metrics over all their trials.

``--trace 1`` runs three children on the same units of the seed, each for a
third of ``--seconds``: untraced at ``nproc`` BLAS threads, traced at
``nproc`` threads, and traced at one thread (a report-only single-threaded
baseline). It reports the per-layer metrics and the tracing overhead, and
fails when a span the workload must reach is missing or when the two
``nproc`` children disagree on any count.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it are a readable report, and a detailed JSON copy goes to
``benchmarks/.work/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import envinfo  # noqa: E402
from stats import percentile, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILDREN = 3  # processes per run; each is one set-up sample
UNIT_STRIDE = 1_000_000  # unit numbers of child k start at k * UNIT_STRIDE
RUN_LIMIT_S = 170.0  # children still running this long after the start are killed
RUN_DEADLINE = time.monotonic() + RUN_LIMIT_S

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_p50_ms": "ms",
    "trial_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "mse_vs_mmse": "ratio",
}

# Per-layer metrics of the single-threaded traced child, prefixed "st1.".
SINGLE_THREAD = (
    "reference.mmse_detect.p50_ms", "reference.mmse_detect.tail_ms",
    "gmpid.gmpid_detect.ms_per_iter", "sagmpid.sagmpid_detect.ms_per_iter",
    "sagmpid.auto_relaxation.p50_ms", "model.build_instance.p50_ms",
    "classic.iterate.ms_per_iter",
)

# ROADMAP baseline at 500x3500 (default BLAS threads).
ROADMAP_500x3500 = {
    "gmpid.gmpid_detect.ms_per_iter": ("gmpid interleaved, per iteration", 26.8),
    "reference.mmse_detect.p50_ms": ("warm mmse_detect", 30.0),
    "sagmpid.auto_relaxation.p50_ms": ("auto_relaxation", 282.0),
}


class ChildError(RuntimeError):
    pass


def run_child(args, threads: int, workdir: str, seconds: float, first_unit: int = 0,
              trace: bool = False, spans_out: str | None = None) -> tuple[float, dict]:
    """Run one child to the end; return its set-up time and its result."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--first-unit", str(first_unit),
           "--workdir", workdir]
    if trace:
        cmd.append("--trace")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(RUN_DEADLINE - time.monotonic(), 1.0), proc.kill)
    timer.start()
    setup = result = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                setup = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0 or setup is None or result is None:
        raise ChildError(f"{args.workload} child exited with code {rc} without a result")
    return setup, result


def merge(results: list[dict]) -> dict:
    """One result from several children's results."""
    out = {key: sum((r[key] for r in results), []) for key in
           ("trial_ns", "mse_ratios", "unit_counts", "failures")}
    for key in ("wall_ns", "attempted", "failed", "units"):
        out[key] = sum(r[key] for r in results)
    out["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in results)
    out["numpy"] = results[0]["numpy"]
    return out


def trial_stats(res: dict) -> dict:
    """Rate, median and tail of the trial times. With fewer than 20 trials no
    percentile has ten samples beyond it; the tail then repeats the median
    (the steadiest order statistic such a run has) and the note says so."""
    ns = res["trial_ns"]
    p = tail_percentile(len(ns))
    return {
        "trials": len(ns),
        "trials_per_s": len(ns) / (res["wall_ns"] / 1e9),
        "trial_p50_ms": statistics.median(ns) / 1e6,
        "trial_tail_ms": percentile(ns, 50.0 if p is None else p) / 1e6,
        "tail_note": (
            f"p{p:g} of {len(ns)} trials" if p is not None
            else f"median of {len(ns)} trials: too few trials for a tail percentile with ten beyond it"
        ),
    }


def end_to_end(args, threads, workdir) -> tuple[dict, dict]:
    """CHILDREN children, each timed for a share of ``--seconds`` on its own
    units of the seed, so one process's luck (memory layout, which core) is
    averaged, and each child's start is one set-up sample."""
    setups, results = [], []
    for k in range(CHILDREN):
        setup, res = run_child(args, threads, workdir, args.seconds / CHILDREN, k * UNIT_STRIDE)
        setups.append(setup)
        results.append(res)
    res = merge(results)
    ts = trial_stats(res)
    values = {
        "setup_s": statistics.median(setups),
        "trials_per_s": ts["trials_per_s"],
        "trial_p50_ms": ts["trial_p50_ms"],
        "trial_tail_ms": ts["trial_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "mse_vs_mmse": statistics.fmean(res["mse_ratios"]),
    }
    notes = {
        "setup_samples_s": setups,
        "trials": ts["trials"],
        "units": res["units"],
        "tail_note": ts["tail_note"],
        "failures": res["failures"][:10],
        "mse_detections": len(res["mse_ratios"]),
        "trial_ms": [t / 1e6 for t in res["trial_ns"]],
        "unit_counts": res["unit_counts"],
        "numpy": res["numpy"],
    }
    return {"correct": res["failed"] == 0 and res["attempted"] > 0, "attempted": res["attempted"],
            "failed": res["failed"], "values": values}, notes


def _common_prefix_equal(a: list, b: list) -> bool:
    n = min(len(a), len(b))
    return n > 0 and a[:n] == b[:n]


def traced(args, threads, workdir) -> tuple[dict, dict]:
    share = args.seconds / CHILDREN
    spans_out = os.path.join(workdir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    _, plain = run_child(args, threads, workdir, share)
    _, tr = run_child(args, threads, workdir, share, trace=True, spans_out=spans_out)
    st_setup, st = run_child(args, 1, workdir, share, trace=True)

    plain_ts, tr_ts, st_ts = trial_stats(plain), trial_stats(tr), trial_stats(st)
    values = dict(tr["layers"])
    values["cli.output_bytes"] = tr["output_bytes_per_unit"]
    values["proc.cpu_per_wall"] = plain["cpu_per_wall"]
    values["proc.invol_ctx_switches_per_s"] = plain["invol_ctx_switches_per_s"]
    values["trace.overhead_frac"] = 1.0 - tr_ts["trials_per_s"] / plain_ts["trials_per_s"]
    values["st1.setup_s"] = st_setup
    values["st1.trials_per_s"] = st_ts["trials_per_s"]
    values["st1.trial_p50_ms"] = st_ts["trial_p50_ms"]
    values["st1.trial_tail_ms"] = st_ts["trial_tail_ms"]
    values["st1.proc.invol_ctx_switches_per_s"] = st["invol_ctx_switches_per_s"]
    for name in SINGLE_THREAD:
        values["st1." + name] = st["layers"][name]

    # Counts must repeat exactly between two processes on one seed.
    deterministic = _common_prefix_equal(plain["unit_counts"], tr["unit_counts"])
    missing = tr["missing_spans"] + [f"st1:{n}" for n in st["missing_spans"]]
    failed = plain["failed"] + tr["failed"] + st["failed"]
    attempted = plain["attempted"] + tr["attempted"] + st["attempted"]
    notes = {
        "missing_spans": missing,
        "deterministic": deterministic,
        "compared_units": min(len(plain["unit_counts"]), len(tr["unit_counts"])),
        "single_thread_counts_equal": _common_prefix_equal(plain["unit_counts"], st["unit_counts"]),
        "untraced_trials_per_s": plain_ts["trials_per_s"],
        "traced_trials_per_s": tr_ts["trials_per_s"],
        "span_count": tr["span_count"],
        "spans_file": os.path.relpath(spans_out, ROOT),
        "failures": (plain["failures"] + tr["failures"] + st["failures"])[:10],
        "numpy": tr["numpy"],
        "roadmap": [
            f"{label} at 500x3500: {values[name]:.4g} ms here, {base:g} ms in the ROADMAP baseline"
            for name, (label, base) in ROADMAP_500x3500.items()
            if args.workload == "large-detect"
        ],
    }
    correct = failed == 0 and attempted > 0 and not missing and deterministic
    return {"correct": correct, "attempted": attempted, "failed": failed, "values": values}, notes


def _unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    stat = name.rsplit(".", 1)[-1]
    if stat.endswith("_per_s"):
        return "1/s"
    if "ms" in stat.split("_"):
        return "ms"
    if stat.endswith("_s"):
        return "s"
    return {
        "gflops": "Gflop/s", "flops_per_iter": "flop", "iterations": "count", "calls": "count",
        "output_bytes": "bytes", "cpu_per_wall": "ratio",
    }.get(stat, "fraction")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "gmpdetect", "__init__.py")):
        print("benchmark: no gmpdetect sources under src/; run from a source checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    threads = len(os.sched_getaffinity(0))

    ticks = envinfo.cpu_ticks()
    try:
        outcome, notes = (traced if args.trace else end_to_end)(args, threads, workdir)
    except ChildError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    notes["cpu_steal_share"] = envinfo.steal_share(ticks, envinfo.cpu_ticks())

    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in outcome["values"].items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": envinfo.system_info(threads), "notes": notes, "metrics": metrics,
        "correct": outcome["correct"], "attempted": outcome["attempted"], "failed": outcome["failed"],
    }
    detail = os.path.join(workdir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"blas_threads={threads} ({notes['numpy']['blas_threads_in_effect']} in effect)")
    for name, m in metrics.items():
        extra = f"  [{notes['tail_note']}]" if name == "trial_tail_ms" else ""
        print(f"{name:48s} {m['value']:14.6g} {m['unit']}{extra}")
    print(f"failed_frac {outcome['failed']}/{outcome['attempted']}"
          + (f"  first failures: {notes['failures']}" if notes["failures"] else ""))
    if args.trace:
        print(f"spans {notes['span_count']} ({notes['spans_file']}); missing: {notes['missing_spans'] or 'none'}; "
              f"counts repeat across processes: {notes['deterministic']} over {notes['compared_units']} units")
        for line in notes["roadmap"]:
            print(line)
    steal = notes["cpu_steal_share"]
    print(f"cpu steal during the run: {'unknown' if steal is None else f'{steal:.1%}'}")
    print(f"details: {os.path.relpath(detail, ROOT)}")
    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

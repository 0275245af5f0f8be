"""The three benchmark workloads.

Each workload runs closed-loop with one caller. ``warmup()`` is the untimed
unit that set-up includes; ``unit(i)`` is one timed unit of work built from
``(seed, i)`` alone, so two processes with one seed see identical inputs.

- ``large-detect``: library calls at K=500, M=3500, 10 dB. A trial is one
  channel: build it, pick the relaxation, run both convergence reports, then
  detect ``VECTORS`` received vectors with mmse, gmpid and sagmpid. The
  paper's headline scale, with the engine in its memory-bound regime (each
  M x K float64 array is 14 MB, computed, against 4 MB of L2).
- ``mmse-sweep``: ``gmpdetect sweep`` at 100x600 over three SNRs with the
  four one-shot detectors, run in-process through ``cli.main``. A trial is
  one (SNR, trial) realization. The engine does no work; time goes to
  channel draws, small dense algebra and harness/CLI overhead.
- ``load-table``: ``gmpdetect table`` at K=100 over loads 0.05/0.2/0.9,
  80 dB, 8000-iteration cap. A trial is one (beta, trial) pair with its MMSE
  reference. Tiny arrays, thousands of iterations, Diverged exits and
  Richardson at its cap: per-iteration Python overhead dominates.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import time

import numpy as np

clock = time.perf_counter_ns

K_LARGE, M_LARGE, SNR_LARGE = 500, 3500, 10.0
VECTORS = 2  # received vectors per channel
TARGET_REL = 1e-4  # criterion 8's relative 2-norm target against MMSE
WARMUP_ITERS = 3  # engine iterations in the large-detect warm-up unit
EQUAL_REL = 1e-10  # criterion 1: if/gmp MSE equals mmse MSE

SWEEP_ARGS = ["sweep", "--users", "100", "--antennas", "600", "--snr-db", "0,10,20",
              "--detectors", "mmse,mf,if,gmp", "--no-wall-time"]
SWEEP_ROWS = 4 * 3 * 10  # detectors x SNRs x default trials
TABLE_ARGS = ["table", "--users", "100", "--beta", "0.05,0.2,0.9", "--snr-db", "80",
              "--max-iter", "8000"]
TABLE_TRIALS = 3 * 10  # loads x default trials
# Verdicts that hold on every seed. gmpid and jacobi at beta=0.2 change with
# the seed. So do richardson and sagmpid at beta=0.9: with ten trials a row,
# one channel whose run stops at the 8000-iteration cap short of the target
# turns the row to D (seed 13 does this). Those two rows are checked for no
# Diverged run instead.
TABLE_VERDICTS = {
    ("0.05", "jacobi"): "C", ("0.05", "gmpid"): "C", ("0.05", "richardson"): "C",
    ("0.05", "sagmpid"): "C", ("0.2", "richardson"): "C", ("0.2", "sagmpid"): "C",
    ("0.9", "jacobi"): "D", ("0.9", "gmpid"): "D",
}
NEVER_DIVERGE = {("0.9", "richardson"), ("0.9", "sagmpid")}
PASS_FRACTION = 0.95  # run_convergence_table's default
MMSE_EQUIVALENT = ("if", "gmp", "gmpid", "sagmpid")


def unit_seed(seed: int, index: int) -> int:
    """Seed of unit ``index``; ``index = -1`` is the warm-up unit."""
    return int(np.random.SeedSequence([seed, index + 1]).generate_state(1)[0])


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class UnitResult:
    """What one unit reports: trial times, checks, accuracy and counts."""

    def __init__(self) -> None:
        self.trial_ns: list[int] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.mse_ratios: list[float] = []
        self.counts: list = []  # iterations, flops, verdicts: must repeat exactly
        self.output_bytes = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = ""
    expected_spans: tuple[str, ...] = ()

    def __init__(self, mods: dict, workdir: str, seed: int) -> None:
        self.mods = mods
        self.workdir = workdir
        self.seed = seed
        self.tracer = None  # set in traced runs; receives trial ids
        self.trials = 0

    def _trial_started(self) -> None:
        if self.tracer is not None:
            self.tracer.trial = self.trials
        self.trials += 1


class LargeDetect(Workload):
    name = "large-detect"
    expected_spans = (
        "model.build_instance", "model.realize", "reference.mmse_detect",
        "gmpid.gmpid_detect", "sagmpid.auto_relaxation", "sagmpid.sagmpid_detect",
        "analysis.gmpid_mean_convergence_report", "analysis.sagmpid_convergence_report",
    )

    def _channel(self, index: int, max_iter: int | None, res: UnitResult) -> None:
        gd = self.mods["gmpdetect"]
        ss = np.random.SeedSequence([self.seed, index + 1])
        channel_seed, *vector_seeds = (int(s) for s in ss.generate_state(1 + VECTORS))
        limit = {} if max_iter is None else {"max_iter": max_iter}
        inst = gd.build_instance(K_LARGE, M_LARGE, snr_db=SNR_LARGE, channel_seed=channel_seed)
        relax = gd.auto_relaxation(inst)
        gd.gmpid_mean_convergence_report(inst)
        gd.sagmpid_convergence_report(inst, relax)
        for vs in vector_seeds:
            draw = gd.realize(inst, vs)
            ref = gd.mmse_detect(inst, draw.received).estimate
            ref_norm = float(np.linalg.norm(ref))
            ref_mse = gd.mse(ref, draw.symbols)
            for det, out in (
                ("gmpid", gd.gmpid_detect(inst, draw.received, **limit)),
                ("sagmpid", gd.sagmpid_detect(inst, draw.received, relax, **limit)),
            ):
                r = out.result
                rel = float(np.linalg.norm(r.estimate - ref)) / ref_norm
                ratio = gd.mse(r.estimate, draw.symbols) / ref_mse
                res.counts.append([det, r.iterations, r.flops, r.terminated.value, repr(ratio)])
                if max_iter is None:
                    res.check(
                        r.terminated.value == "Converged" and rel < TARGET_REL,
                        f"{det} channel {index}: {r.terminated.value}, rel {rel:.3g}",
                    )
                    res.mse_ratios.append(ratio)

    def warmup(self) -> None:
        self._channel(-1, WARMUP_ITERS, UnitResult())

    def unit(self, index: int) -> UnitResult:
        res = UnitResult()
        self._trial_started()
        start = clock()
        self._channel(index, None, res)
        res.trial_ns.append(clock() - start)
        return res


class _CliWorkload(Workload):
    """Runs one ``gmpdetect`` command per unit through ``cli.main``.

    Trial boundaries come from a light probe on ``harness.build_instance``
    (one call per trial) and on the runner ``cli`` calls, which ends the last
    trial; both are one clock read per call, so untraced runs stay untraced.
    """

    args: list[str] = []
    runner = ""  # the harness runner cli.main calls, looked up on cli

    def __init__(self, mods, workdir, seed):
        super().__init__(mods, workdir, seed)
        self.out_path = os.path.join(workdir, f"{self.name}-{os.getpid()}.csv")
        self.marks: list[int] = []
        self._install_probes()

    def _install_probes(self) -> None:
        harness, cli = self.mods["harness"], self.mods["cli"]
        build, run = harness.build_instance, getattr(cli, self.runner)

        def build_probe(*args, **kwargs):
            self.marks.append(clock())
            self._trial_started()
            return build(*args, **kwargs)

        def run_probe(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            finally:
                self.marks.append(clock())

        harness.build_instance = build_probe
        setattr(cli, self.runner, run_probe)

    def invoke(self, seed: int, extra: list[str] = ()) -> tuple[int, list[int]]:
        self.marks = []
        rc = self.mods["cli"].main(self.args + list(extra) + ["--seed", str(seed), "--out", self.out_path])
        return rc, [b - a for a, b in zip(self.marks, self.marks[1:])]

    def read_output(self) -> tuple[bytes, list[list[str]]]:
        with open(self.out_path, "rb") as fh:
            data = fh.read()
        return data, list(csv.reader(data.decode().splitlines()))


class MmseSweep(_CliWorkload):
    name = "mmse-sweep"
    args = SWEEP_ARGS
    runner = "run_experiment"
    expected_spans = (
        "model.build_instance", "model.realize", "reference.mmse_detect",
        "reference.matched_filter_detect", "reference.inverse_filter_detect",
        "reference.gmp_block_detect", "harness.run_detector", "harness.run_experiment",
        "cli.main",
    )

    def warmup(self) -> None:
        self.invoke(unit_seed(self.seed, -1), ["--trials", "1"])

    def unit(self, index: int) -> UnitResult:
        res = UnitResult()
        rc, res.trial_ns = self.invoke(unit_seed(self.seed, index))
        data, rows = self.read_output() if rc == 0 else (b"", [])
        res.output_bytes = len(data)
        records = rows[1 : rows.index(["# aggregate"])] if ["# aggregate"] in rows else []
        res.counts.append(digest(data.decode()))
        ok = rc == 0 and len(records) == SWEEP_ROWS and len(res.trial_ns) == SWEEP_ROWS // 4
        by_key = {(r[0], r[1], r[2]): float(r[4]) for r in records} if ok else {}
        for snr in ("0.0", "10.0", "20.0"):
            for trial in range(SWEEP_ROWS // 12):
                ref = by_key.get(("mmse", snr, str(trial)))
                for det in ("if", "gmp"):
                    got = by_key.get((det, snr, str(trial)))
                    good = ok and ref is not None and got is not None and abs(got - ref) <= EQUAL_REL * ref
                    res.check(good, f"{det} snr {snr} trial {trial}: rc {rc}, mse {got} vs mmse {ref}")
                    if good:
                        res.mse_ratios.append(got / ref)
        return res


class LoadTable(_CliWorkload):
    name = "load-table"
    args = TABLE_ARGS
    runner = "run_convergence_table"
    expected_spans = (
        "gmpid.gmpid_detect", "sagmpid.auto_relaxation", "sagmpid.sagmpid_detect",
        "classic.iterate", "classic.jacobi_for_mmse", "classic.richardson_for_mmse",
        "reference.mmse_detect", "harness.run_detector", "harness.run_convergence_table",
        "cli.main",
    )

    def _install_probes(self) -> None:
        # Keep each trial's truth and MMSE reference, and every detection,
        # so the checks can recompute the table from the run's own estimates.
        super()._install_probes()
        harness = self.mods["harness"]
        realize, mmse, run_detector = harness.realize, harness.mmse_detect, harness.run_detector
        seen: dict = {}

        def realize_probe(inst, seed):
            draw = realize(inst, seed)
            seen["truth"] = draw.symbols
            return draw

        def mmse_probe(inst, y):
            r = mmse(inst, y)
            seen["ref"] = r.estimate
            seen["mmse_mse"] = float(np.mean((r.estimate - seen["truth"]) ** 2))
            return r

        def run_detector_probe(name, inst, y, **kwargs):
            run = run_detector(name, inst, y, **kwargs)
            ref = seen["ref"]
            rel = float(np.linalg.norm(run.estimate - ref)) / float(np.linalg.norm(ref))
            self.detections.append([inst.dims.n_antennas, name, run.iterations, run.flops,
                                    run.terminated.value, bool(np.isfinite(rel) and rel < TARGET_REL)])
            if name in MMSE_EQUIVALENT and run.terminated.value == "Converged":
                err = float(np.mean((run.estimate - seen["truth"]) ** 2))
                self.ratios.append(err / seen["mmse_mse"])
            return run

        harness.realize = realize_probe
        harness.mmse_detect = mmse_probe
        harness.run_detector = run_detector_probe

    def warmup(self) -> None:
        self.detections, self.ratios = [], []
        self.invoke(unit_seed(self.seed, -1), ["--trials", "1", "--max-iter", "200"])

    def unit(self, index: int) -> UnitResult:
        res = UnitResult()
        self.detections, self.ratios = [], []
        rc, res.trial_ns = self.invoke(unit_seed(self.seed, index))
        data, rows = self.read_output() if rc == 0 else (b"", [])
        res.output_bytes = len(data)
        ok = rc == 0 and len(rows) == 13 and len(res.trial_ns) == TABLE_TRIALS
        # Each row is one operation: its fraction and verdict must follow from
        # the estimates the run produced, and must match what every seed gives.
        for beta, _, m, det, fraction, verdict in rows[1:] if ok else []:
            runs = [d for d in self.detections if d[0] == int(m) and d[1] == det]
            frac = sum(d[5] for d in runs) / len(runs)
            good = float(fraction) == frac and verdict == ("C" if frac >= PASS_FRACTION else "D")
            good &= TABLE_VERDICTS.get((beta, det), verdict) == verdict
            if (beta, det) in NEVER_DIVERGE:
                good &= all(d[4] != "Diverged" for d in runs)
            res.check(good, f"beta {beta} {det}: verdict {verdict}, fraction {fraction} vs {frac}")
        if not ok:
            for _ in range(12):
                res.check(False, f"table: rc {rc}, {len(rows)} rows, {len(res.trial_ns)} trials")
        res.mse_ratios = list(self.ratios)
        res.counts = [digest(data.decode()), self.detections, [repr(r) for r in self.ratios]]
        return res


WORKLOADS = {w.name: w for w in (LargeDetect, MmseSweep, LoadTable)}

"""Seeded Monte-Carlo experiment harness.

Runs registered detectors over seeded (channel, symbols, noise)
realizations and emits deterministic CSV/JSON data files: MSE-vs-SNR
sweeps, per-iteration variance/MSE traces, convergence verdict tables, and
flops-to-target complexity comparisons.

Seeding contract: every (experiment index, trial) pair derives a
(channel_seed, realization_seed) pair from the master seed via
``model.derive_trial_seeds``; all detectors within one trial consume the
identical realization, so detector comparisons are paired. Records are
sorted by (detector, snr, trial) before emission, so any parallel
execution order would produce identical bytes.
"""
from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .classic import iterate, jacobi_for_mmse, richardson_for_mmse
from .gmpid import gmpid_detect
from .model import SystemDims, build_instance, derive_trial_seeds, mse, realize
from .reference import (
    gmp_block_detect,
    inverse_filter_detect,
    matched_filter_detect,
    mmse_detect,
)
from .results import DetectionResult
from .sagmpid import RelaxationChoice, sagmpid_detect

# A table trial converges when its estimate is within TABLE_TARGET_REL
# relative 2-norm error of exact MMSE; a row is C when TABLE_PASS_FRACTION
# of its trials converge.
TABLE_TARGET_REL = 1e-4
TABLE_PASS_FRACTION = 0.95
# A complexity trial reaches its target when its MSE is within
# COMPLEXITY_REL_TARGET (relatively) of the exact MMSE detector's MSE.
COMPLEXITY_REL_TARGET = 0.1


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to CLI exit code 1)."""


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte-for-byte."""

    dims: SystemDims
    snr_grid_db: list[float]
    trials: int = 1
    master_seed: int = 0
    detectors: tuple[str, ...] = ("mmse",)
    max_iter: int = 200
    eps: float | None = None
    prior_var: float = 1.0
    w_mode: str = "auto"
    record_wall_time: bool = True

    def validate(self) -> None:
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("seed must be non-negative")
        if not self.snr_grid_db:
            raise ConfigError("snr grid must be non-empty")
        if any(np.isnan(snr) for snr in self.snr_grid_db):
            raise ConfigError("snr points must be numbers, not NaN")
        if -np.inf in self.snr_grid_db:
            raise ConfigError("snr points must be above -inf dB")
        if not self.detectors:
            raise ConfigError("at least one detector is required")
        _check_detectors(self.detectors)
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError(f"duplicate detectors in {list(self.detectors)}")
        # +inf dB is noise variance 0, where only the decorrelator runs.
        if np.inf in self.snr_grid_db and set(self.detectors) != {"if"}:
            raise ConfigError("snr point +inf dB (zero noise) runs only detector if")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.eps is not None and not self.eps > 0:
            raise ConfigError("eps must be positive when given")
        if not 0 < self.prior_var < np.inf:
            raise ConfigError("prior_var must be finite and positive")
        _parse_w_mode(self.w_mode)  # raises ConfigError on bad syntax

    def single_snr(self, what: str) -> float:
        """The one SNR point of the grid; ConfigError naming ``what`` if not."""
        if len(self.snr_grid_db) != 1:
            raise ConfigError(f"{what} requires a single SNR point")
        if not np.isfinite(self.snr_grid_db[0]):
            raise ConfigError(f"{what} requires a finite SNR point")
        return self.snr_grid_db[0]


def _check_load(config: ExperimentConfig) -> None:
    """Reject detectors that cannot run at the config's load.

    For the runners that read ``config.dims.n_antennas``: the inverse filter
    needs K <= M. (``sagmpid`` under w-mode ``beta`` needs load beta < 1,
    which :func:`resolve_relaxation` checks.)
    """
    dims = config.dims
    if "if" in config.detectors and dims.n_users > dims.n_antennas:
        raise ConfigError("detector if requires users <= antennas")


def _parse_w_mode(text: str) -> tuple[str, float | None]:
    """Split a w-mode string into (mode, manual value)."""
    if text in ("auto", "beta"):
        return text, None
    if text.startswith("manual:"):
        try:
            value = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad manual w value in {text!r}") from exc
        if not 0 < value < np.inf:
            raise ConfigError("manual w must be finite and positive")
        return "manual", value
    raise ConfigError(f"unknown w-mode {text!r}; expected auto|beta|manual:<v>")


def resolve_relaxation(inst, w_mode: str) -> RelaxationChoice | None:
    """Turn a w-mode string into the relaxation a ``sagmpid`` run uses.

    ``auto`` gives None: :func:`sagmpid_detect` then measures ``w`` itself
    (source ``"auto"``). ``beta`` gives ``w = 1/(1+beta)`` at the
    instance's load, a ConfigError unless beta < 1; ``manual:<v>`` gives
    ``w = v``.
    """
    mode, value = _parse_w_mode(w_mode)
    if mode == "auto":
        return None
    if mode == "manual":
        return RelaxationChoice(value)
    beta = inst.dims.beta
    if not beta < 1:
        raise ConfigError("w-mode beta requires load beta < 1")
    return RelaxationChoice(1.0 / (1.0 + beta), source="beta")


@dataclass(frozen=True)
class TrialRecord:
    """One detector run on one realization."""

    detector: str
    snr_db: float
    trial: int
    seed: int
    mse: float
    iterations: int
    flops: int
    terminated: str
    wall_time_ns: int


CSV_HEADER = ",".join(f.name for f in fields(TrialRecord))


@dataclass(frozen=True)
class AggregateRecord:
    """Mean MSE of one detector at one SNR point."""

    detector: str
    snr_db: float
    mean_mse: float
    trials: int


# Detector name -> callable(inst, y, w_mode, *, max_iter, eps, truth). Each
# entry is one library call, which it looks up in this module's namespace at
# call time.
_ONE_SHOT = {
    "mmse": lambda inst, y, w_mode, **_: mmse_detect(inst, y),
    "mf": lambda inst, y, w_mode, **_: matched_filter_detect(inst, y),
    "if": lambda inst, y, w_mode, **_: inverse_filter_detect(inst, y),
    "gmp": lambda inst, y, w_mode, **_: gmp_block_detect(inst, y),
}
_REGISTRY = {
    **_ONE_SHOT,
    "gmpid": lambda inst, y, w_mode, **run: gmpid_detect(inst, y, **run).result,
    "sagmpid": lambda inst, y, w_mode, **run: sagmpid_detect(
        inst, y, resolve_relaxation(inst, w_mode), **run
    ).result,
    "jacobi": lambda inst, y, w_mode, **run: iterate(jacobi_for_mmse(inst, y), **run),
    "richardson": lambda inst, y, w_mode, **run: iterate(
        richardson_for_mmse(inst, y)[0], **run
    ),
}
DETECTORS = frozenset(_REGISTRY)
ONE_SHOT_DETECTORS = frozenset(_ONE_SHOT)


def _check_detectors(
    names, known=DETECTORS, message: str = "unknown detectors"
) -> None:
    """Raise ConfigError naming every entry of ``names`` not in ``known``."""
    unknown = [d for d in names if d not in known]
    if unknown:
        raise ConfigError(f"{message} {unknown}; known: {sorted(known)}")


def run_detector(
    name: str,
    inst,
    y: np.ndarray,
    *,
    max_iter: int = 200,
    eps: float | None = None,
    w_mode: str = "auto",
    truth: np.ndarray | None = None,
) -> DetectionResult:
    """Run one registered detector on one realization."""
    _check_detectors((name,))
    return _REGISTRY[name](inst, y, w_mode, max_iter=max_iter, eps=eps, truth=truth)


def _seeded_draw(config, index, trial, snr_db, n_antennas):
    """Channel seed, instance and realization of one (index, trial) pair."""
    channel_seed, realization_seed = derive_trial_seeds(
        config.master_seed, index, trial
    )
    inst = build_instance(
        config.dims.n_users,
        n_antennas,
        snr_db=snr_db,
        prior_var=config.prior_var,
        channel_seed=channel_seed,
    )
    return channel_seed, inst, realize(inst, realization_seed)


def _run(config, name, inst, y, **overrides) -> DetectionResult:
    """:func:`run_detector` with the config's budget, eps and w-mode."""
    opts = dict(max_iter=config.max_iter, eps=config.eps, w_mode=config.w_mode)
    return run_detector(name, inst, y, **{**opts, **overrides})


def run_experiment(config: ExperimentConfig) -> list[TrialRecord]:
    """MSE-vs-SNR sweep: every detector on the same realization per trial.

    Returns one TrialRecord per (detector, snr, trial), sorted by that key.
    Aggregate rows are derived at emission time via
    :func:`aggregate_records`.
    """
    config.validate()
    _check_load(config)
    records: list[TrialRecord] = []
    for snr_index, snr_db in enumerate(config.snr_grid_db):
        for trial in range(config.trials):
            channel_seed, inst, real = _seeded_draw(
                config, snr_index, trial, snr_db, config.dims.n_antennas
            )
            for name in config.detectors:
                start = time.perf_counter_ns()
                run = _run(config, name, inst, real.received)
                elapsed = time.perf_counter_ns() - start
                records.append(
                    TrialRecord(
                        detector=name,
                        snr_db=float(snr_db),
                        trial=trial,
                        seed=int(channel_seed),
                        mse=float(mse(run.estimate, real.symbols)),
                        iterations=run.iterations,
                        flops=run.flops,
                        terminated=run.terminated.value,
                        wall_time_ns=elapsed if config.record_wall_time else 0,
                    )
                )
    records.sort(key=lambda r: (r.detector, r.snr_db, r.trial))
    return records


def aggregate_records(records: list[TrialRecord]) -> list[AggregateRecord]:
    """Mean MSE per (detector, snr), sorted."""
    sums: dict[tuple[str, float], list[float]] = {}
    for r in records:
        sums.setdefault((r.detector, r.snr_db), []).append(r.mse)
    return [
        AggregateRecord(
            detector=det,
            snr_db=snr,
            mean_mse=float(np.mean(vals)),
            trials=len(vals),
        )
        for (det, snr), vals in sorted(sums.items())
    ]


@dataclass(frozen=True)
class MsetRow:
    """One averaged trace row: iteration, mean message variance, MSE."""

    iteration: int
    mean_variance: float
    mse: float


def run_mset_trace(config: ExperimentConfig) -> list[MsetRow]:
    """Per-iteration variance/MSE trace, averaged over trials.

    Requires exactly one detector, gmpid or sagmpid, and a single SNR
    point. Every trial runs the full iteration budget (the step-change stop
    is disabled) so traces align; rows average only iterations present in
    all trials.
    """
    config.validate()
    _check_load(config)
    if len(config.detectors) != 1 or config.detectors[0] not in ("gmpid", "sagmpid"):
        raise ConfigError("mset trace requires exactly one of: gmpid, sagmpid")
    snr_db = config.single_snr("mset trace")
    var_traces: list[list[float]] = []
    mse_traces: list[list[float]] = []
    for trial in range(config.trials):
        _, inst, real = _seeded_draw(config, 0, trial, snr_db, config.dims.n_antennas)
        name = config.detectors[0]
        tr = _run(config, name, inst, real.received, eps=0.0, truth=real.symbols).trace
        var_traces.append(list(tr.mean_variance))
        mse_traces.append(list(tr.mse_to_truth))
    n = min(len(v) for v in var_traces)
    return [
        MsetRow(
            iteration=t + 1,
            mean_variance=float(np.mean([v[t] for v in var_traces])),
            mse=float(np.mean([m[t] for m in mse_traces])),
        )
        for t in range(n)
    ]


@dataclass(frozen=True)
class TableRecord:
    """Convergence verdict of one detector at one load factor."""

    beta: float
    n_users: int
    n_antennas: int
    detector: str
    fraction_converged: float
    verdict: str


def run_convergence_table(
    config: ExperimentConfig, beta_list: list[float]
) -> list[TableRecord]:
    """Converged/Diverged verdict table across load factors.

    Returns one record per (load, detector), loads in ``beta_list`` order
    and detectors in config order. The records for load beta have
    K = ``config.dims.n_users`` users and M = round(K / beta) antennas;
    ``config.dims.n_antennas`` is ignored.
    A trial counts as converged when the detector's final estimate is
    within ``TABLE_TARGET_REL`` relative 2-norm error of the exact MMSE
    solution on the same realization (within the iteration budget); the
    verdict is C when at least ``TABLE_PASS_FRACTION`` of trials converge,
    else D.
    """
    config.validate()
    snr_db = config.single_snr("table")
    if not beta_list:
        raise ConfigError("load list must be non-empty")
    for beta in beta_list:
        if not 0.0 < beta < 1.0:
            raise ConfigError("table loads must satisfy 0 < beta < 1")
    n_users, detectors = config.dims.n_users, config.detectors
    rows: list[TableRecord] = []
    for row_index, beta in enumerate(beta_list):
        M = int(round(n_users / beta))
        successes = {d: 0 for d in detectors}
        for trial in range(config.trials):
            _, inst, real = _seeded_draw(config, row_index, trial, snr_db, M)
            x_ref = mmse_detect(inst, real.received).estimate
            denom = float(np.linalg.norm(x_ref))
            for name in detectors:
                run = _run(config, name, inst, real.received)
                rel = float(np.linalg.norm(run.estimate - x_ref)) / denom
                if np.isfinite(rel) and rel < TABLE_TARGET_REL:
                    successes[name] += 1
        for name in detectors:
            fraction = successes[name] / config.trials
            rows.append(
                TableRecord(
                    beta=float(beta),
                    n_users=n_users,
                    n_antennas=M,
                    detector=name,
                    fraction_converged=fraction,
                    verdict="C" if fraction >= TABLE_PASS_FRACTION else "D",
                )
            )
    return rows


@dataclass(frozen=True)
class ComplexityRecord:
    """Flops needed to reach the MMSE-relative MSE target in one trial."""

    detector: str
    trial: int
    reach_iteration: int | None
    flops_to_target: int | None
    total_flops: int
    final_mse: float
    mmse_mse: float
    mmse_flops: int


def run_complexity(config: ExperimentConfig) -> list[ComplexityRecord]:
    """Cumulative flops until the per-trial MSE is within
    ``COMPLEXITY_REL_TARGET`` (relatively) of the exact MMSE detector's MSE
    on the same realization.

    Only iterative detectors qualify. The MMSE reference cost is its
    one-shot flop count; the ``complexity`` command defaults to w-mode
    ``beta`` so that relaxation search cost stays out of the comparison.
    """
    config.validate()
    _check_load(config)
    snr_db = config.single_snr("complexity")
    _check_detectors(
        config.detectors,
        DETECTORS - ONE_SHOT_DETECTORS,
        "complexity detectors must be iterative:",
    )
    out: list[ComplexityRecord] = []
    for trial in range(config.trials):
        _, inst, real = _seeded_draw(config, 0, trial, snr_db, config.dims.n_antennas)
        ref = mmse_detect(inst, real.received)
        mmse_err = float(mse(ref.estimate, real.symbols))
        for name in config.detectors:
            run = _run(config, name, inst, real.received, truth=real.symbols)
            reach = None
            flops_to_target = None
            for idx, m in enumerate(run.trace.mse_to_truth):
                if abs(m / mmse_err - 1.0) < COMPLEXITY_REL_TARGET:
                    reach = idx + 1
                    flops_to_target = run.trace.cum_flops[idx]
                    break
            out.append(
                ComplexityRecord(
                    detector=name,
                    trial=trial,
                    reach_iteration=reach,
                    flops_to_target=flops_to_target,
                    total_flops=run.flops,
                    final_mse=float(mse(run.estimate, real.symbols)),
                    mmse_mse=mmse_err,
                    mmse_flops=ref.flops,
                )
            )
    return out


def write_text(path: str, text: str) -> None:
    """Write text to a file, or to stdout when path is '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def render_rows(records: list, kind: type, fmt: str = "csv") -> str:
    """Render flat ``kind`` records as CSV or JSON, the one row format of
    every command.

    CSV is a header line of ``kind``'s field names, then one line per record
    with each cell as ``str(value)`` (None as an empty cell). JSON is an
    array of flat objects; strict JSON has no infinity or NaN, so such a
    cell is the text of its CSV cell (``"inf"``, ``"-inf"``, ``"nan"``).
    """
    if fmt == "json":
        rows = [asdict(r) for r in records]
        for row in rows:
            for k, v in row.items():
                if isinstance(v, float) and not np.isfinite(v):
                    row[k] = str(v)
        return json.dumps(rows, indent=1) + "\n"
    names = [f.name for f in fields(kind)]
    lines = [",".join(names)]
    for r in records:
        cells = (getattr(r, name) for name in names)
        lines.append(",".join("" if v is None else str(v) for v in cells))
    return "\n".join(lines) + "\n"


def render_csv(
    records: list[TrialRecord],
    aggregates: list[AggregateRecord] | None = None,
) -> str:
    """Render trial records as CSV with a trailing '# aggregate' section.

    An empty record list renders as the header line only (no aggregate
    section).
    """
    text = render_rows(records, TrialRecord)
    if not records:
        return text
    if aggregates is None:
        aggregates = aggregate_records(records)
    return text + "# aggregate\n" + render_rows(aggregates, AggregateRecord)


def emit_csv(
    records: list[TrialRecord],
    path: str,
    aggregates: list[AggregateRecord] | None = None,
) -> None:
    """Write trial records as CSV (see :func:`render_csv`)."""
    write_text(path, render_csv(records, aggregates))

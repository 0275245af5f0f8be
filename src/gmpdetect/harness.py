"""Seeded Monte-Carlo experiment harness.

Runs registered detectors over seeded (channel, symbols, noise)
realizations and emits deterministic CSV/JSON data files: MSE-vs-SNR
sweeps, per-iteration variance/MSE traces, convergence verdict tables,
flops-to-target complexity comparisons and one channel's analysis report.

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

from .analysis import (
    gmpid_mean_convergence_report, rmt_mmse_mse, sagmpid_convergence_report,
)
from .classic import iterate, jacobi_for_mmse, richardson_for_mmse
from .gmpid import gmpid_detect, variance_fixed_point, variance_recursion
from .model import (
    SystemDims, _noise_var, build_instance, derive_trial_seeds, mse, realize,
)
from .reference import (
    gmp_block_detect,
    inverse_filter_detect,
    matched_filter_detect,
    mmse_detect,
)
from .results import DEFAULT_MAX_ITER, DetectionResult
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
        if not self.detectors:
            raise ConfigError("at least one detector is required")
        _check_detectors(self.detectors)
        if len(set(self.detectors)) != len(self.detectors):
            raise ConfigError(f"duplicate detectors in {list(self.detectors)}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if self.eps is not None and not self.eps > 0:
            raise ConfigError("eps must be positive when given")
        if not 0 < self.prior_var < np.inf:
            raise ConfigError("prior_var must be finite and positive")
        _parse_w_mode(self.w_mode)  # raises ConfigError on a bad mode or manual w


def _parse_w_mode(text: str) -> tuple[str, RelaxationChoice | None]:
    """Split a w-mode string into (mode, the manual relaxation or None)."""
    if text in ("auto", "beta"):
        return text, None
    if text.startswith("manual:"):
        try:
            return "manual", RelaxationChoice(float(text.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad manual w in {text!r}: {exc}") from exc
    raise ConfigError(f"unknown w-mode {text!r}; expected auto|beta|manual:<v>")


def resolve_relaxation(inst, w_mode: str) -> RelaxationChoice | None:
    """Turn a w-mode string into the relaxation a ``sagmpid`` run uses.

    ``auto`` gives None: :func:`sagmpid_detect` then measures ``w`` itself
    (source ``"auto"``). ``beta`` gives ``w = 1/(1+beta)`` at the
    instance's load, a ConfigError unless beta < 1; ``manual:<v>`` gives
    ``w = v``.
    """
    mode, manual = _parse_w_mode(w_mode)
    if mode != "beta":
        return manual
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
    "gmpid": lambda inst, y, w_mode, **run: gmpid_detect(inst, y, **run),
    "sagmpid": lambda inst, y, w_mode, **run: sagmpid_detect(
        inst, y, resolve_relaxation(inst, w_mode), **run
    ),
    "jacobi": lambda inst, y, w_mode, **run: iterate(jacobi_for_mmse(inst, y), **run),
    "richardson": lambda inst, y, w_mode, **run: iterate(richardson_for_mmse(inst, y), **run),
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
    max_iter: int = DEFAULT_MAX_ITER,
    eps: float | None = None,
    w_mode: str = "auto",
    truth: np.ndarray | None = None,
) -> DetectionResult:
    """Run one registered detector on one realization, with the defaults of
    the library call it registers."""
    _check_detectors((name,))
    return _REGISTRY[name](inst, y, w_mode, max_iter=max_iter, eps=eps, truth=truth)


def _points(config: ExperimentConfig, what: str, loads: list[float] | None = None):
    """Check ``config`` for runner ``what`` and return the ``(snr_db, M)``
    points it draws at. Every ConfigError of a runner comes from here,
    before its first draw.

    Each SNR point's noise variance must be finite and positive, or 0 in a
    ``sweep`` of ``if`` alone. Every runner but ``sweep`` takes one SNR
    point, and ``analyze`` a load K / M < 1. The points are the SNR grid
    at ``config.dims.n_antennas`` antennas or, given ``loads`` (the table),
    each load ``0 < beta < 1`` at M = round(K / beta) > K antennas, a size
    :class:`SystemDims` takes. At every point ``if`` needs K <= M and
    ``sagmpid`` under w-mode ``beta`` needs K < M. ``mset trace`` runs one
    of ``gmpid`` and ``sagmpid``, ``complexity`` only iterative detectors.
    """
    config.validate()
    K, snr_grid = config.dims.n_users, config.snr_grid_db
    noiseless_ok = what == "sweep" and set(config.detectors) == {"if"}
    for snr in snr_grid:
        s = _noise_var(snr, config.prior_var)
        if not (0 < s < np.inf or s == 0 and noiseless_ok):
            raise ConfigError(f"snr point {snr} dB gives noise variance {s}: it must be finite "
                              "and positive (0 runs only in a sweep whose sole detector is if)")
    if what != "sweep" and len(snr_grid) != 1:
        raise ConfigError(f"{what} requires a single SNR point")
    if what == "analyze" and not config.dims.beta < 1:
        raise ConfigError("analyze requires load beta < 1")
    if loads is None:
        points = [(snr_db, config.dims.n_antennas) for snr_db in snr_grid]
    elif not loads:
        raise ConfigError("load list must be non-empty")
    else:
        points = []
        for beta in loads:
            if not (0.0 < beta < 1.0 and K / beta < np.inf):
                raise ConfigError("table loads must satisfy 0 < beta < 1, with K / beta finite")
            M = round(K / beta)
            if not M > K:  # its row would run load 1
                raise ConfigError(f"load {beta} gives M = round(K / beta) = K = {K}")
            try:
                SystemDims(K, M)
            except ValueError as exc:
                raise ConfigError(f"load {beta}: {exc}") from exc
            points.append((snr_grid[0], M))
    for _, M in points:
        if "if" in config.detectors and K > M:
            raise ConfigError("detector if requires users <= antennas")
        if "sagmpid" in config.detectors and config.w_mode == "beta" and not K < M:
            raise ConfigError("w-mode beta requires load beta < 1")
    if what == "mset trace" and (len(config.detectors) != 1
                                 or config.detectors[0] not in ("gmpid", "sagmpid")):
        raise ConfigError("mset trace requires exactly one of: gmpid, sagmpid")
    if what == "complexity":
        _check_detectors(config.detectors, DETECTORS - ONE_SHOT_DETECTORS,
                         "complexity detectors must be iterative:")
    return points


def _draws(config: ExperimentConfig, points: list[tuple[float, int]]):
    """Yield ``(point, trial, channel_seed, inst, realization)`` for every
    trial at every point of :func:`_points`; ``point`` indexes ``points`` and
    is the seeding contract's experiment index."""
    for point, (snr_db, M) in enumerate(points):
        for trial in range(config.trials):
            channel_seed, realization_seed = derive_trial_seeds(config.master_seed, point, trial)
            inst = build_instance(config.dims.n_users, M, snr_db=snr_db,
                                  prior_var=config.prior_var, channel_seed=channel_seed)
            yield point, trial, channel_seed, inst, realize(inst, realization_seed)


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
    records: list[TrialRecord] = []
    for point, trial, channel_seed, inst, real in _draws(config, _points(config, "sweep")):
        for name in config.detectors:
            start = time.perf_counter_ns()
            run = _run(config, name, inst, real.received)
            elapsed = time.perf_counter_ns() - start
            records.append(
                TrialRecord(
                    detector=name,
                    snr_db=float(config.snr_grid_db[point]),
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
    traces = [_run(config, config.detectors[0], inst, real.received, eps=0.0,
                   truth=real.symbols).trace
              for _, _, _, inst, real in _draws(config, _points(config, "mset trace"))]
    return [
        MsetRow(
            iteration=t + 1,
            mean_variance=float(np.mean([tr.mean_variance[t] for tr in traces])),
            mse=float(np.mean([tr.mse_to_truth[t] for tr in traces])),
        )
        for t in range(min(len(tr.mean_variance) for tr in traces))
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
    K = ``config.dims.n_users`` users and M = round(K / beta) > K antennas
    (a ConfigError if not); ``config.dims.n_antennas`` is ignored.
    A trial counts as converged when the detector's final estimate is
    within ``TABLE_TARGET_REL`` relative 2-norm error of the exact MMSE
    solution on the same realization (within the iteration budget); the
    verdict is C when at least ``TABLE_PASS_FRACTION`` of trials converge,
    else D.
    """
    converged: dict[tuple[int, int, str], int] = {}  # (point, M, detector) -> trials
    for point, _, _, inst, real in _draws(config, _points(config, "table", beta_list)):
        x_ref = mmse_detect(inst, real.received).estimate
        denom = float(np.linalg.norm(x_ref))
        for name in config.detectors:
            run = _run(config, name, inst, real.received)
            rel = float(np.linalg.norm(run.estimate - x_ref)) / denom
            hit = bool(np.isfinite(rel) and rel < TABLE_TARGET_REL)
            key = (point, inst.dims.n_antennas, name)
            converged[key] = converged.get(key, 0) + hit
    rows: list[TableRecord] = []
    for (point, M, name), n in converged.items():
        fraction = n / config.trials
        rows.append(
            TableRecord(
                beta=float(beta_list[point]),
                n_users=config.dims.n_users,
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
    one-shot flop count. The ``complexity`` command defaults to w-mode
    ``beta``, the paper's ``w = 1/(1+beta)``, which costs nothing to
    choose. Auto ``w``'s measurement (``A^T H`` and a symmetric eigenvalue
    solve) is not charged either: ``sagmpid`` reports equal flops under
    auto and given ``w``, so ``--w-mode auto`` undercounts it.
    """
    out: list[ComplexityRecord] = []
    for _, trial, _, inst, real in _draws(config, _points(config, "complexity")):
        ref = mmse_detect(inst, real.received)
        mmse_err = float(mse(ref.estimate, real.symbols))
        for name in config.detectors:
            run = _run(config, name, inst, real.received, truth=real.symbols)
            reach = flops_to_target = None
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


def run_analysis(config: ExperimentConfig) -> dict:
    """The ``analyze`` report on one channel, drawn at the config's one SNR
    point with ``config.master_seed`` as its channel seed: the variances'
    fixed point, the MMSE MSE prediction, both mean-convergence reports,
    ``sagmpid``'s at the relaxation of ``config.w_mode``, and the sweeps the
    variance schedule ran before it settled. It needs K < M."""
    [(snr_db, M)] = _points(config, "analyze")
    K = config.dims.n_users
    inst = build_instance(K, M, snr_db=snr_db, prior_var=config.prior_var,
                          channel_seed=config.master_seed)
    relax = resolve_relaxation(inst, config.w_mode)  # None means auto
    return {
        "n_users": K,
        "n_antennas": M,
        "beta": config.dims.beta,
        "snr_db": snr_db,
        "seed": config.master_seed,
        "variance_fixed_point": asdict(variance_fixed_point(inst)),
        "mmse_mse_prediction": asdict(rmt_mmse_mse(K, M, config.prior_var, inst.noise_var)),
        "gmpid": asdict(gmpid_mean_convergence_report(inst)),
        "sagmpid": asdict(sagmpid_convergence_report(inst, relax)),
        "variance_sweeps": variance_recursion(inst)[2],  # read from the reports' schedule
    }


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


def render_csv(records: list[TrialRecord], aggregates: list[AggregateRecord]) -> str:
    """Render trial records as CSV with a trailing '# aggregate' section of
    ``aggregates``, which :func:`aggregate_records` makes from ``records``.

    An empty record list renders as the header line only (no aggregate
    section).
    """
    text = render_rows(records, TrialRecord)
    if not records:
        return text
    return text + "# aggregate\n" + render_rows(aggregates, AggregateRecord)


def emit_csv(records: list[TrialRecord], path: str, aggregates: list[AggregateRecord]) -> None:
    """Write trial records as CSV (see :func:`render_csv`)."""
    write_text(path, render_csv(records, aggregates))

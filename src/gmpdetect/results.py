"""Shared result containers (termination reasons, relaxation choices, results,
traces) and the run record of every iterative detector."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .model import _require_finite

DEFAULT_MAX_ITER = 500  # iteration budget of every iterative detector


class Termination(Enum):
    """Why a detector stopped."""

    CONVERGED = "Converged"          # step change fell below tolerance
    MAX_ITERATIONS = "MaxIterations"  # iteration budget exhausted
    DIVERGED = "Diverged"            # estimate blew up or went non-finite
    EXACT = "Exact"                  # one-shot (non-iterative) solution


@dataclass
class IterationTrace:
    """Per-iteration progress of an iterative detector, written by ``_Run.step``:
    each column holds one entry per iteration run. Optional columns stay
    None unless the run recorded them."""

    step_change: list[float] = field(default_factory=list)   # ||x(t)-x(t-1)||_inf
    cum_flops: list[int] = field(default_factory=list)  # cost to t, set-up included
    mean_variance: list[float] | None = None     # message-passing only: avg posterior variance
    mse_to_truth: list[float] | None = None      # mean((x(t) - truth)^2) when truth supplied

    def __len__(self) -> int:
        return len(self.step_change)


class _Run:
    """The record of one iterative run: its stop rule, trace, flop tally and result.

    ``ref`` sets ``scale = 1 + ||ref||_inf``. Construction checks ``truth``,
    any finite length-``n`` reference (the symbols sent, the MMSE estimate)
    whose MSE the trace then records (the 2-norm distance is ``sqrt(n *
    mse_to_truth)``), then ``eps``: the default is ``1e-8 * scale``, 0
    never stops, a negative or NaN ``eps`` raises ValueError; and then the
    budget ``max_iter``: 0 runs no step, a negative one raises ValueError.
    ``flops`` is the charge before the first step. A run ends
    MaxIterations unless :meth:`step` stops it.
    """

    def __init__(self, ref: np.ndarray, eps: float | None, max_iter: int, first: int, n: int,
                 truth: np.ndarray | None = None, flops: int = 0):
        if truth is not None:
            _require_finite(truth, "truth", length=n)
        if eps is not None and not eps >= 0:
            raise ValueError("eps must be non-negative")
        if not max_iter >= 0:
            raise ValueError("max_iter must be non-negative")
        scale = 1.0 + float(np.max(np.abs(ref), initial=0.0))
        self.eps = 1e-8 * scale if eps is None else eps
        self.thresh, self.first, self.truth = 1e12 * scale, first, truth
        self.flops = flops
        self.trace = IterationTrace()
        self.terminated = Termination.MAX_ITERATIONS

    def step(self, t: int, x: np.ndarray, x_new: np.ndarray, flops: int,
             mean_variance: float | None = None) -> bool:
        """Record step ``t`` from ``x`` to ``x_new``, which cost ``flops``; True
        once the run stops: Diverged once ``||x_new||_inf`` passes ``1e12 *
        scale`` or is NaN, Converged once the change is below ``eps`` at
        ``t >= first``."""
        d = x_new - x
        # max |d| from two reductions; abs() gives an all-zero d a +0 change.
        change = abs(float(max(d.max(), -d.min())))
        self.flops += flops
        trace = self.trace
        trace.step_change.append(change)
        trace.cum_flops.append(int(self.flops))
        if mean_variance is not None:
            trace.mean_variance = trace.mean_variance or []
            trace.mean_variance.append(float(mean_variance))
        if self.truth is not None:
            trace.mse_to_truth = trace.mse_to_truth or []
            trace.mse_to_truth.append(float(np.mean((x_new - self.truth) ** 2)))
        # NaN fails the comparison too, so one test covers non-finite values.
        if not max(x_new.max(), -x_new.min()) <= self.thresh:
            self.terminated = Termination.DIVERGED
        elif t >= self.first and change < self.eps:
            self.terminated = Termination.CONVERGED
        return self.terminated is not Termination.MAX_ITERATIONS

    def result(self, x: np.ndarray, **fields) -> DetectionResult:
        """The run's result, with final iterate ``x`` and the optional ``fields``."""
        return DetectionResult(estimate=x, flops=self.flops, terminated=self.terminated,
                               trace=self.trace, **fields)


@dataclass(frozen=True)
class RelaxationChoice:
    """A relaxation factor and where it came from.

    ``source`` is ``"auto"`` (:func:`~gmpdetect.sagmpid.auto_relaxation`,
    from the measured spectrum, whose extreme eigenvalues it also carries),
    ``"beta"`` (the large-system rule ``1/(1+beta)``) or ``"manual"``
    (given by the user).
    """

    w: float
    source: str = "manual"
    lambda_min: float | None = None
    lambda_max: float | None = None

    def __post_init__(self) -> None:
        if self.source not in ("auto", "beta", "manual"):
            raise ValueError(f"unknown relaxation source {self.source!r}")
        if not 0 < self.w < np.inf:
            raise ValueError("relaxation factor w must be finite and positive")


@dataclass(eq=False)
class DetectionResult:
    """Output of one detector run on one realized problem; plain data.

    Every detector returns this type: the exact detectors, message passing,
    the affine iterations of :mod:`gmpdetect.classic` and
    ``harness.run_detector``. Message passing also fills ``relax`` and
    ``previous_estimate``: ``trace.step_change[-1]``, the residual of its
    decision rule at exit, equals ``max|estimate - previous_estimate|``.
    Results compare by identity, since they hold arrays.
    """

    estimate: np.ndarray        # length-K posterior mean estimate of the sources
    flops: int                  # analytic cost of a standalone run, reused set-up included
    terminated: Termination
    posterior_var: np.ndarray | None = None  # length-K; None for affine iterations
    trace: IterationTrace | None = None  # filled by iterative detectors
    relax: RelaxationChoice | None = None  # the relaxation a sagmpid run used
    previous_estimate: np.ndarray | None = None  # message passing: before the last update

    @property
    def iterations(self) -> int:
        """The iterations run: the trace's length, 0 for one-shot detectors."""
        return 0 if self.trace is None else len(self.trace)

    @property
    def result(self) -> DetectionResult:
        """This result itself, for the one reader left, ``benchmarks/workloads.py``;
        the benchmark change that takes ``large-detect`` off ``.result`` deletes it."""
        return self

"""Shared result containers: termination reasons, relaxation choices, results, traces."""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_MAX_ITER = 500  # iteration budget of every iterative detector


class Termination(Enum):
    """Why a detector stopped."""

    CONVERGED = "Converged"          # step change fell below tolerance
    MAX_ITERATIONS = "MaxIterations"  # iteration budget exhausted
    DIVERGED = "Diverged"            # estimate blew up or went non-finite
    EXACT = "Exact"                  # one-shot (non-iterative) solution


def _stop_rule(ref: np.ndarray, eps: float | None, first: int):
    """The stop policy of every iterative detector, with ``scale = 1 + ||ref||_inf``.

    ``stop(t, d, x)``, for step ``t`` moving the iterate by ``d`` to ``x``,
    returns ``||d||_inf`` and Diverged once ``||x||_inf`` passes ``1e12 *
    scale`` or is NaN, Converged once that change is below ``eps`` (default
    ``1e-8 * scale``; 0 never stops) at ``t >= first``, else None. A
    negative or NaN ``eps`` raises ValueError.
    """
    if eps is not None and not eps >= 0:
        raise ValueError("eps must be non-negative")
    scale = 1.0 + float(np.max(np.abs(ref), initial=0.0))
    eps = 1e-8 * scale if eps is None else eps
    thresh = 1e12 * scale

    def stop(t: int, d: np.ndarray, x: np.ndarray) -> tuple[float, Termination | None]:
        # max |d| from two reductions; abs() gives an all-zero d a +0 change.
        change = abs(float(max(d.max(), -d.min())))
        # NaN fails the comparison too, so one test covers non-finite values.
        if not max(x.max(), -x.min()) <= thresh:
            return change, Termination.DIVERGED
        if t >= first and change < eps:
            return change, Termination.CONVERGED
        return change, None

    return stop


@dataclass
class IterationTrace:
    """Per-iteration progress of an iterative detector.

    Column lists all share one length, the iterations run. Optional columns
    stay None unless the run was asked to record them.
    """

    step_change: list[float] = field(default_factory=list)   # ||x(t)-x(t-1)||_inf
    cum_flops: list[int] = field(default_factory=list)  # cost to t, set-up included
    mean_variance: list[float] | None = None     # message-passing only: avg posterior variance
    mse_to_truth: list[float] | None = None      # mean((x(t) - truth)^2) when truth supplied

    def append(
        self,
        step_change: float,
        cum_flops: int,
        x: np.ndarray,
        *,
        truth: np.ndarray | None = None,
        mean_variance: float | None = None,
    ) -> None:
        """Record the next iteration, with iterate ``x``. ``truth``, any
        length-K reference (the symbols sent, the MMSE estimate), fills the
        MSE column; the 2-norm distance is ``sqrt(K * mse_to_truth)``."""
        self.step_change.append(float(step_change))
        self.cum_flops.append(int(cum_flops))
        if mean_variance is not None:
            self._column("mean_variance").append(float(mean_variance))
        if truth is not None:
            self._column("mse_to_truth").append(float(np.mean((x - truth) ** 2)))

    def _column(self, name: str) -> list[float]:
        """The optional column ``name``, started empty on first use."""
        if getattr(self, name) is None:
            setattr(self, name, [])
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.step_change)


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


@dataclass
class DetectionResult:
    """Output of one detector run on one realized problem; plain data.

    Every detector returns this type: the exact detectors, message passing,
    the affine iterations of :mod:`gmpdetect.classic` and
    ``harness.run_detector``. Message passing also fills ``relax`` and
    ``previous_estimate``: ``trace.step_change[-1]``, the residual of its
    decision rule at exit, equals ``max|estimate - previous_estimate|``.
    """

    estimate: np.ndarray        # length-K posterior mean estimate of the sources
    iterations: int             # 0 for one-shot detectors
    flops: int                  # analytic cost of a standalone run, reused set-up included
    terminated: Termination
    posterior_var: np.ndarray | None = None  # length-K; None for affine iterations
    trace: IterationTrace | None = None  # filled by iterative detectors
    relax: RelaxationChoice | None = None  # the relaxation a sagmpid run used
    previous_estimate: np.ndarray | None = None  # message passing: before the last update

    @property
    def result(self) -> DetectionResult:
        """This result itself, for the one reader left, ``benchmarks/workloads.py``;
        the benchmark change that takes ``large-detect`` off ``.result`` deletes it."""
        return self

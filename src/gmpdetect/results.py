"""Shared result containers: termination reasons, detection results, traces."""
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
    ``1e-8 * scale``; 0 never stops) at ``t >= first``, else None.
    """
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

    Column lists all share one length; ``iteration`` counts from 1. Optional
    columns stay None unless the run was asked to record them.
    """

    iteration: list[int] = field(default_factory=list)
    step_change: list[float] = field(default_factory=list)   # ||x(t)-x(t-1)||_inf
    cum_flops: list[int] = field(default_factory=list)  # cost to t, set-up included
    oracle_gap: list[float] | None = None        # ||x(t) - x*||_2 vs a supplied oracle
    mean_variance: list[float] | None = None     # message-passing only: avg posterior variance
    mse_to_truth: list[float] | None = None      # mean((x(t) - truth)^2) when truth supplied

    def append(
        self,
        t: int,
        step_change: float,
        cum_flops: int,
        x: np.ndarray,
        *,
        oracle: np.ndarray | None = None,
        truth: np.ndarray | None = None,
        mean_variance: float | None = None,
    ) -> None:
        """Record iteration ``t`` with iterate ``x``; ``oracle`` / ``truth``
        fill the gap and MSE columns from it."""
        self.iteration.append(t)
        self.step_change.append(float(step_change))
        self.cum_flops.append(int(cum_flops))
        if oracle is not None:
            self._column("oracle_gap").append(float(np.linalg.norm(x - oracle)))
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
        return len(self.iteration)


@dataclass
class DetectionResult:
    """Output of one detector run on one realized problem.

    Every detector returns this type: the exact detectors, message passing
    (inside :class:`~gmpdetect.gmpid.MessagePassingOutput`), the affine
    iterations of :mod:`gmpdetect.classic` and ``harness.run_detector``.
    """

    estimate: np.ndarray        # length-K posterior mean estimate of the sources
    iterations: int             # 0 for one-shot detectors
    flops: int                  # analytic cost of a standalone run, reused set-up included
    terminated: Termination
    posterior_var: np.ndarray | None = None  # length-K; None for affine iterations
    trace: IterationTrace | None = None  # filled by iterative detectors

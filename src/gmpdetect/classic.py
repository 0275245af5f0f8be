"""Classical affine iterations ``x(t) = B x(t-1) + c``.

Provides the generic driver with convergence/divergence termination and
flop accounting, plus the two textbook splittings of the MMSE normal
equations ``(H^T H / noise_var + diag(prior_precisions)) x = H^T y /
noise_var`` — Jacobi and Richardson — whose fixed points are exactly the
MMSE solution, so they are directly comparable with the message-passing
detectors on the same realization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemInstance, _require_finite
from .results import (
    DEFAULT_MAX_ITER, DetectionResult, IterationTrace, Termination, _stop_rule,
)

__all__ = [
    "AffineIteration",
    "iterate",
    "jacobi_for_mmse",
    "richardson_for_mmse",
]


@dataclass(frozen=True)
class AffineIteration:
    """One affine fixed-point iteration: ``x_new = matrix @ x + offset``.

    ``setup_flops`` is the cost of building the matrix and offset, charged
    by :func:`iterate` before its first step.
    """

    matrix: np.ndarray  # (K, K) iteration matrix
    offset: np.ndarray  # (K,)
    setup_flops: int = 0

    def __post_init__(self) -> None:
        K = self.offset.shape[0]
        if K == 0:
            raise ValueError("AffineIteration is empty: it needs at least one unknown")
        if self.matrix.shape != (K, K):
            raise ValueError("iteration matrix and offset sizes disagree")


def iterate(
    iteration: AffineIteration,
    x0: np.ndarray | None = None,
    eps: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    truth: np.ndarray | None = None,
) -> DetectionResult:
    """Run ``x(t) = B x(t-1) + c`` until the step change is below ``eps``.

    Terminates Converged when the max-norm step change drops below ``eps``
    (default ``1e-8 * (1 + ||c||_inf)``), Diverged when the iterate grows
    past ``1e12 * (1 + ||c||_inf)`` or turns non-finite, otherwise
    MaxIterations. The flop count starts at ``iteration.setup_flops``, so
    ``trace.cum_flops[t-1]`` is the cost of a standalone run stopped after
    ``t`` steps, as for message passing. ``truth`` adds the per-iteration
    ``mse_to_truth`` column (diagnostic only, not counted as detector
    work). The final iterate is the result's ``estimate``;
    ``posterior_var`` stays None. A non-finite offset raises ValueError.
    """
    B, c = iteration.matrix, iteration.offset
    _require_finite(c, "offset")
    K = c.shape[0]
    x = np.zeros(K) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (K,):
        raise ValueError("x0 has the wrong length")
    if eps is not None and not eps > 0:
        raise ValueError("eps must be positive")
    stop = _stop_rule(c, eps, first=1)

    trace = IterationTrace()
    terminated = Termination.MAX_ITERATIONS
    flops = iteration.setup_flops
    for t in range(1, max_iter + 1):
        x_new = B @ x + c
        change, verdict = stop(t, x_new - x, x_new)
        x = x_new
        flops += 2 * K * K + 3 * K
        trace.append(t, change, flops, x, truth=truth)
        if verdict is not None:
            terminated = verdict
            break
    return DetectionResult(
        estimate=x,
        iterations=len(trace),
        flops=flops,
        terminated=terminated,
        trace=trace,
    )


def _normal_equations(
    inst: SystemInstance, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """System matrix and right-hand side whose solution is the MMSE estimate,
    and the set-up flops of a splitting: the two plus a K x K matrix and offset."""
    if not inst.noise_var > 0:
        raise ValueError("normal equations require positive noise variance")
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    A = inst._gram() / s
    A[np.diag_indices_from(A)] += inst.prior.precisions
    b = H.T @ y / s
    return A, b, (2 * M * K * K + K * K + K + 2 * M * K + K) + (K * K + K)


def jacobi_for_mmse(inst: SystemInstance, y: np.ndarray) -> AffineIteration:
    """Jacobi splitting of the MMSE normal equations.

    ``B = -D^{-1}(A - D)``, ``c = D^{-1} b`` with D the diagonal of A; the
    fixed point is the MMSE estimate. Set-up is the normal equations plus
    the K x K matrix and offset.
    """
    A, b, flops = _normal_equations(inst, y)
    d = np.diag(A).copy()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry in the system matrix")
    B = -A / d[:, None]
    np.fill_diagonal(B, 0.0)
    return AffineIteration(matrix=B, offset=b / d, setup_flops=flops)


def richardson_for_mmse(
    inst: SystemInstance, y: np.ndarray, omega: float | None = None
) -> tuple[AffineIteration, float]:
    """Richardson splitting of the MMSE normal equations.

    ``B = I - omega*A``, ``c = omega*b``; ``omega=None`` selects the
    radius-minimizing ``2/(lambda_min + lambda_max)`` of the system matrix.
    Returns the iteration together with the omega actually used. Set-up is
    the normal equations, the eigenvalue solve when it picks omega and the
    K x K matrix and offset.
    """
    A, b, flops = _normal_equations(inst, y)
    if omega is None:
        evals = np.linalg.eigvalsh(A)
        omega = 2.0 / (float(evals[0]) + float(evals[-1]))
        flops += (8 * len(b) ** 3) // 3  # symmetric eigenvalues only
    if not omega > 0:
        raise ValueError("omega must be positive")
    B = -omega * A
    B[np.diag_indices_from(B)] += 1.0
    return AffineIteration(matrix=B, offset=omega * b, setup_flops=flops), float(omega)

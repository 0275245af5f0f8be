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

from .model import SystemInstance
from .results import DEFAULT_MAX_ITER, DetectionResult, IterationTrace, Termination

__all__ = [
    "AffineIteration",
    "iterate",
    "jacobi_for_mmse",
    "richardson_for_mmse",
]


@dataclass(frozen=True)
class AffineIteration:
    """One affine fixed-point iteration: ``x_new = matrix @ x + offset``."""

    matrix: np.ndarray  # (K, K) iteration matrix
    offset: np.ndarray  # (K,)
    label: str

    def __post_init__(self) -> None:
        K = self.offset.shape[0]
        if self.matrix.shape != (K, K):
            raise ValueError("iteration matrix and offset sizes disagree")


def iterate(
    iteration: AffineIteration,
    x0: np.ndarray | None = None,
    eps: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    oracle: np.ndarray | None = None,
) -> DetectionResult:
    """Run ``x(t) = B x(t-1) + c`` until the step change is below ``eps``.

    Terminates Converged when the max-norm step change drops below ``eps``
    (default ``1e-8 * (1 + ||c||_inf)``), Diverged when the iterate grows
    past ``1e12 * (1 + ||c||_inf)`` or turns non-finite, otherwise
    MaxIterations. ``oracle`` adds a per-iteration 2-norm gap column to the
    trace (diagnostic only, not counted as detector work). The final
    iterate is the result's ``estimate``; ``posterior_var`` stays None.
    """
    B, c = iteration.matrix, iteration.offset
    K = c.shape[0]
    x = np.zeros(K) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x.shape != (K,):
        raise ValueError("x0 has the wrong length")
    scale = 1.0 + float(np.max(np.abs(c))) if K else 1.0
    if eps is None:
        eps = 1e-8 * scale
    if not eps > 0:
        raise ValueError("eps must be positive")
    thresh = 1e12 * scale

    trace = IterationTrace()
    terminated = Termination.MAX_ITERATIONS
    flops = 0
    iterations = 0
    for t in range(1, max_iter + 1):
        x_new = B @ x + c
        change = float(np.max(np.abs(x_new - x)))
        x = x_new
        flops += 2 * K * K + 3 * K
        iterations = t
        trace.append(
            t,
            change,
            flops,
            oracle_gap=(
                float(np.linalg.norm(x - oracle)) if oracle is not None else None
            ),
        )
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > thresh:
            terminated = Termination.DIVERGED
            break
        if change < eps:
            terminated = Termination.CONVERGED
            break
    return DetectionResult(
        estimate=x,
        iterations=iterations,
        flops=flops,
        terminated=terminated,
        trace=trace,
    )


def _normal_equations(
    inst: SystemInstance, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """System matrix and right-hand side whose solution is the MMSE estimate."""
    if not inst.noise_var > 0:
        raise ValueError("normal equations require positive noise variance")
    H = inst.channel
    s = inst.noise_var
    A = inst._gram() / s
    A[np.diag_indices_from(A)] += inst.prior.precisions
    b = H.T @ y / s
    return A, b


def jacobi_for_mmse(inst: SystemInstance, y: np.ndarray) -> AffineIteration:
    """Jacobi splitting of the MMSE normal equations.

    ``B = -D^{-1}(A - D)``, ``c = D^{-1} b`` with D the diagonal of A; the
    fixed point is the MMSE estimate.
    """
    A, b = _normal_equations(inst, y)
    d = np.diag(A).copy()
    if np.any(d == 0.0):
        raise ValueError("zero diagonal entry in the system matrix")
    B = -A / d[:, None]
    np.fill_diagonal(B, 0.0)
    return AffineIteration(matrix=B, offset=b / d, label="jacobi")


def richardson_for_mmse(
    inst: SystemInstance, y: np.ndarray, omega: float | None = None
) -> tuple[AffineIteration, float]:
    """Richardson splitting of the MMSE normal equations.

    ``B = I - omega*A``, ``c = omega*b``; ``omega=None`` selects the
    radius-minimizing ``2/(lambda_min + lambda_max)`` of the system matrix.
    Returns the iteration together with the omega actually used.
    """
    A, b = _normal_equations(inst, y)
    if omega is None:
        evals = np.linalg.eigvalsh(A)
        omega = 2.0 / (float(evals[0]) + float(evals[-1]))
    if not omega > 0:
        raise ValueError("omega must be positive")
    B = -omega * A
    B[np.diag_indices_from(B)] += 1.0
    return AffineIteration(matrix=B, offset=omega * b, label="richardson"), float(
        omega
    )

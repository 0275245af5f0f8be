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
from .reference import _normal_matrix
from .results import DEFAULT_MAX_ITER, DetectionResult, _Run

__all__ = [
    "AffineIteration",
    "iterate",
    "jacobi_for_mmse",
    "richardson_for_mmse",
]


@dataclass(frozen=True, eq=False)
class AffineIteration:
    """One affine fixed-point iteration: ``x_new = matrix @ x + offset``.

    ``setup_flops`` is the cost of building the matrix and offset, charged
    by :func:`iterate` before its first step.
    """

    matrix: np.ndarray  # (K, K) iteration matrix
    offset: np.ndarray  # (K,)
    setup_flops: int = 0

    def __post_init__(self) -> None:
        if self.offset.ndim != 1:  # B @ x + c would broadcast a column into a matrix
            raise ValueError("offset must be a vector")
        K = self.offset.shape[0]
        if K == 0:
            raise ValueError("AffineIteration is empty: it needs at least one unknown")
        if self.matrix.shape != (K, K):
            raise ValueError("iteration matrix and offset sizes disagree")


def iterate(
    iteration: AffineIteration,
    eps: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    truth: np.ndarray | None = None,
) -> DetectionResult:
    """Run ``x(t) = B x(t-1) + c`` from ``x(0) = 0`` until the step change
    is below ``eps``.

    Terminates Converged when the max-norm step change drops below ``eps``
    (default ``1e-8 * (1 + ||c||_inf)``; ``eps=0`` turns the stop off, a
    negative, NaN or infinite ``eps`` raises ValueError), Diverged when the
    iterate grows past ``1e12 * (1 + ||c||_inf)`` or turns non-finite,
    otherwise MaxIterations. The flop count starts at ``iteration.setup_flops``, so
    ``trace.cum_flops[t-1]`` is the cost of a standalone run stopped after
    ``t`` steps, as for message passing. ``truth`` adds the per-iteration
    ``mse_to_truth`` column (diagnostic only, not counted as detector
    work). The final iterate is the result's ``estimate``;
    ``posterior_var`` stays None. A non-finite offset, a ``truth`` not a
    finite vector of length K, or a ``max_iter`` that is not a non-negative
    integer raises ValueError before the first step.
    """
    B, c = iteration.matrix, iteration.offset
    _require_finite(c, "offset")
    K = c.shape[0]
    run = _Run(c, eps, max_iter, 1, K, truth, iteration.setup_flops)
    x = np.zeros(K)
    for t in range(1, run.max_iter + 1):
        x_prev, x = x, B @ x + c
        if run.step(t, x_prev, x, 2 * K * K + 3 * K):
            break
    return run.result(x)


def _normal_equations(
    inst: SystemInstance, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """System matrix and right-hand side whose solution is the MMSE estimate,
    and the set-up flops of a splitting: the two plus a K x K matrix and offset."""
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    A = _normal_matrix(inst)
    b = H.T @ y / inst.noise_var
    return A, b, (2 * M * K * K + K * K + K + 2 * M * K + K) + (K * K + K)


def jacobi_for_mmse(inst: SystemInstance, y: np.ndarray) -> AffineIteration:
    """Jacobi splitting of the MMSE normal equations.

    ``B = -D^{-1}(A - D)``, ``c = D^{-1} b`` with D the diagonal of A; the
    fixed point is the MMSE estimate. Set-up is the normal equations plus
    the K x K matrix and offset.
    """
    A, b, flops = _normal_equations(inst, y)
    d = np.diag(A).copy()  # ||h_k||^2 / s + 1/prior_k > 0
    B = -A / d[:, None]
    np.fill_diagonal(B, 0.0)
    return AffineIteration(matrix=B, offset=b / d, setup_flops=flops)


def richardson_for_mmse(inst: SystemInstance, y: np.ndarray) -> AffineIteration:
    """Richardson splitting of the MMSE normal equations.

    ``B = I - omega*A``, ``c = omega*b`` at the radius-minimizing
    ``omega = 2/(lambda_min + lambda_max)`` of the system matrix. Set-up is
    the normal equations, the eigenvalue solve that picks omega and the
    K x K matrix and offset.
    """
    A, b, flops = _normal_equations(inst, y)
    evals = np.linalg.eigvalsh(A)
    omega = 2.0 / (float(evals[0]) + float(evals[-1]))
    flops += (8 * len(b) ** 3) // 3  # symmetric eigenvalues only
    B = -omega * A
    B[np.diag_indices_from(B)] += 1.0
    return AffineIteration(matrix=B, offset=omega * b, setup_flops=flops)

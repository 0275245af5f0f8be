"""One-shot reference detectors: exact MMSE, matched filter, decorrelator,
and the block-message formulation that is algebraically equivalent to MMSE.

All four return a :class:`~gmpdetect.results.DetectionResult` with
``iterations=0`` and ``terminated=Termination.EXACT``, and raise ValueError
unless ``y`` is a finite vector of length M. Flop counts follow the dense-linear-algebra route of
a standalone call, counting one multiply or add as one flop (a
multiply-accumulate is two); set-up that an instance keeps (the Gram
matrix, the MMSE factor) is charged to every call that uses it.
"""
from __future__ import annotations

import numpy as np

from .model import SystemInstance, _require_finite
from .results import DetectionResult, Termination

# Diagonal blocks of at most this many rows are inverted by a dense solve.
_TRIANGLE_BLOCK = 32


def _invert_lower(L: np.ndarray, X: np.ndarray) -> None:
    """Write ``L^{-1}`` of a lower-triangular ``L`` into the zeroed ``X``.

    The 2x2 block recursion inverts both diagonal blocks in place, then
    sets ``X21 = -X22 (L21 X11)``; ``X``'s upper triangle stays 0.
    """
    n = L.shape[0]
    if n <= _TRIANGLE_BLOCK:
        X[...] = np.tril(np.linalg.inv(L))
        return
    h = n // 2
    _invert_lower(L[:h, :h], X[:h, :h])
    _invert_lower(L[h:, h:], X[h:, h:])
    X21 = X[h:, :h]
    np.matmul(X[h:, h:], L[h:, :h] @ X[:h, :h], out=X21)
    np.negative(X21, out=X21)


def _inverse_factor(L: np.ndarray) -> tuple[np.ndarray, int]:
    """Invert the Cholesky factor of ``W = L L^T``; return ``L^{-1}`` plus
    the flop cost of the factorization and the inversion.

    Solves and inverse diagonals are then O(K^2) products with the inverted
    triangular factor; W itself is never inverted directly. Callers form L
    with ``np.linalg.cholesky``, which raises ``numpy.linalg.LinAlgError``
    if W is not positive definite.

    The inverse is written into one zeroed K x K buffer, triangle by
    triangle (:func:`_invert_lower`), so it needs no more scratch than one
    product of half-size blocks. ``np.linalg.inv(L)`` would solve against a
    K x K identity with an LU factorization of a copy of ``L``: two more
    K x K arrays, malloc'd by numpy.linalg where tracemalloc does not see
    them. The flops charged stay those of the dense route.
    """
    K = L.shape[0]
    X = np.zeros_like(L)
    _invert_lower(L, X)
    return X, K**3 // 3 + K**3


def _mmse_cholesky(inst: SystemInstance) -> np.ndarray:
    """Cholesky factor of ``H^T H / s + diag(1/prior)`` (K <= M) or of
    ``H diag(prior) H^T + s I`` (M < K).

    The matrix is a local here, freed on return: the triangular inverse
    then runs beside the factor alone, not beside the matrix too.
    """
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    if K <= M:
        W = np.divide(inst._gram(), s)  # one K x K buffer, no diag(1/prior) array
        W.reshape(-1)[:: K + 1] += inst.prior.precisions  # its diagonal, in place
    else:
        W = (H * inst.prior.variances[None, :]) @ H.T
        W[np.diag_indices_from(W)] += s
    return np.linalg.cholesky(W)


def _mmse_setup(inst: SystemInstance) -> tuple[np.ndarray, np.ndarray, int]:
    """The part of the MMSE solve that does not depend on ``y``.

    Returns the inverse of :func:`_mmse_cholesky`'s factor, the posterior
    variances and the factor's flop cost. Formed once per instance and kept
    there (read-only); :func:`inverse_filter_detect` combines with the same
    user-side factor. Over the kept Gram matrix, the factor and its
    inverse are the only K x K arrays (M x M on the antenna side) live at
    once, beside one quarter-size product while :func:`_inverse_factor`
    runs: the matrix is freed once factored, and the factor once inverted.
    """

    def build(inst: SystemInstance):
        H = inst.channel
        M, K = H.shape
        Linv, f = _inverse_factor(_mmse_cholesky(inst))  # the factor is freed once inverted
        if K <= M:
            post_var = (Linv * Linv).sum(axis=0)
        else:
            vx = inst.prior.variances
            T = Linv @ H
            post_var = vx - vx * vx * (T * T).sum(axis=0)
        Linv.flags.writeable = post_var.flags.writeable = False
        return Linv, post_var, f

    return inst._cached("mmse", build)


def _exact(x: np.ndarray, var: np.ndarray, flops: int) -> DetectionResult:
    return DetectionResult(
        estimate=x,
        iterations=0,
        flops=flops,
        terminated=Termination.EXACT,
        posterior_var=var,
    )


def mmse_detect(inst: SystemInstance, y: np.ndarray) -> DetectionResult:
    """Exact linear MMSE estimate with per-user posterior variances.

    Solves the user-side normal equations when K <= M and switches to the
    antenna-side (matrix-inversion-lemma) form when M < K, so the cubic cost
    always scales with min(K, M).
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    if not s > 0:
        raise ValueError("mmse_detect requires positive noise variance")
    vx = inst.prior.variances
    _require_finite(vx, "mmse_detect: prior variances")

    Linv, post_var, f = _mmse_setup(inst)
    if K <= M:
        flops = 2 * M * K * K + K * K + K + f
        b = H.T @ y / s
        flops += 2 * M * K + K
        x_hat = Linv.T @ (Linv @ b)
        flops += 4 * K * K + 2 * K * K
    else:
        flops = K * M + 2 * K * M * M + M + f
        z = Linv.T @ (Linv @ y)
        flops += 4 * M * M
        x_hat = vx * (H.T @ z)
        flops += 2 * K * M + K + 2 * M * M * K + 2 * M * K + 3 * K

    return _exact(x_hat, post_var, flops)


def matched_filter_detect(inst: SystemInstance, y: np.ndarray) -> DetectionResult:
    """Per-user correlator x_hat_k = h_k^T y / ||h_k||^2.

    The reported per-user variance accounts for residual multi-user
    interference plus noise after the correlator:
    sum_{i != k} sigma_x_i^2 (h_k^T h_i)^2 / ||h_k||^4 + sigma_n^2/||h_k||^2.
    This normalization (unit gain on the desired user) is a documented
    choice; other conventions rescale the same statistic.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    vx = inst.prior.variances

    G = inst._gram()
    d = np.diag(G)
    x_hat = (H.T @ y) / d
    interference = (G * G) @ vx - d * d * vx
    post_var = interference / (d * d) + s / d
    flops = 2 * M * K * K + 2 * M * K + K + 2 * K * K + 6 * K

    return _exact(x_hat, post_var, flops)


def inverse_filter_detect(inst: SystemInstance, y: np.ndarray) -> DetectionResult:
    """Decorrelator (zero-forcing) front end followed by prior combining.

    First computes the unbiased estimate x_tilde = (H^T H)^{-1} H^T y, then
    combines it with the Gaussian prior in precision form. The combining
    step makes the output identical (up to rounding) to the MMSE estimate
    for positive noise; with an infinite-variance (flat) prior the output is
    the plain decorrelator. Requires K <= M and a full-column-rank channel.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    if K > M:
        raise ValueError("inverse_filter_detect requires K <= M")
    s = inst.noise_var

    G = inst._gram()
    flops = 2 * M * K * K
    # np.linalg.cholesky raises if H is column-rank deficient.
    Lginv, f = _inverse_factor(np.linalg.cholesky(G))
    flops += f
    z0 = H.T @ y
    x_tilde = Lginv.T @ (Lginv @ z0)
    flops += 2 * M * K + 4 * K * K

    if s == 0.0:
        # Noiseless: the decorrelator recovers the sources exactly and the
        # posterior collapses; no prior information can move the estimate.
        return _exact(x_tilde, np.zeros(K), flops)

    # Precision-form combine of the decorrelator output (covariance
    # s * G^{-1}) with the prior; flat-prior users contribute precision 0.
    # The combined matrix G/s + diag(1/prior) is MMSE's: its factor is shared.
    Lwinv, post_var, f = _mmse_setup(inst)
    flops += K * K + K + f
    t = (G @ x_tilde) / s
    x_hat = Lwinv.T @ (Lwinv @ t)
    flops += 2 * K * K + K + 4 * K * K + 2 * K * K

    return _exact(x_hat, post_var, flops)


def gmp_block_detect(inst: SystemInstance, y: np.ndarray) -> DetectionResult:
    """Block message combination over the whole observation vector at once.

    Treats the M observations as a single Gaussian message with weight
    (1/sigma_n^2) I, pushes it through the channel, and combines with the
    prior in information form (plain inversion of the K x K posterior
    precision). Algebraically identical to MMSE; kept as an independent
    code path for cross-validation. The weight is applied as the scalar
    ``1/s``, which gives the bits of the dense product ``(I/s) @ H`` (its
    off-diagonal terms add exact zeros) without an M x M array. ``flops``
    is the block formulation's analytic cost, dense M x M products
    included.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    if not s > 0:
        raise ValueError("gmp_block_detect requires positive noise variance")

    w_in = 1.0 / s
    W_msg = H.T @ (H * w_in)
    pre = H.T @ (y * w_in)
    flops = M + 2 * M * M * K + 2 * M * K * K + 2 * M * M + 2 * M * K

    W_post = W_msg + np.diag(inst.prior.precisions)
    V = np.linalg.inv(W_post)
    x_hat = V @ pre
    flops += K + 2 * K**3 + 2 * K * K

    return _exact(x_hat, np.diag(V).copy(), flops)

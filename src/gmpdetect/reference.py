"""One-shot reference detectors: exact MMSE, matched filter, decorrelator,
and the block-message formulation that is algebraically equivalent to MMSE.

All four return a :class:`~gmpdetect.results.DetectionResult` with no
trace, so 0 iterations, and ``terminated=Termination.EXACT``. All four
raise ValueError unless ``y`` is a finite vector of length M. ``mmse`` and
``gmp`` raise it at noise 0, in :func:`_normal_matrix`, and where their
solve of that matrix fails, in :func:`_solve_normal`; at K > M ``gmp``
also refuses wherever ``mmse`` does. ``mf`` raises it at a zero-norm
column, ``if`` at K > M and where the Gram's Cholesky fails. Flop counts
follow the dense-linear-algebra route of a standalone call, counting one
multiply or add as one flop (a multiply-accumulate is two); set-up that
an instance keeps (the Gram matrix, the MMSE factor) is charged to every
call that uses it. Exact MMSE factors the user-side normal matrix at
every K and M.
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


def _normal_matrix(inst: SystemInstance) -> np.ndarray:
    """A fresh ``H^T H / s + diag(1/prior)``, the user-side normal matrix,
    over the kept Gram: one K x K buffer, no ``diag(1/prior)`` array.

    MMSE's factor, the Jacobi and Richardson splittings and the block
    detector all read this matrix, so theirs are the same bits, and this is
    their one zero-noise check: noise 0 raises ValueError before any division.
    """
    if not inst.noise_var > 0:
        raise ValueError("the normal matrix requires positive noise variance")
    K = inst.dims.n_users
    W = np.divide(inst._gram(), inst.noise_var)
    W.reshape(-1)[:: K + 1] += inst.prior.precisions  # its diagonal, in place
    return W


def _solve_normal(inst: SystemInstance, solve):
    """``solve(W)``, MMSE's Cholesky factor or ``gmp``'s inverse, of ``W`` from
    :func:`_normal_matrix`; ValueError where it fails, where its output has a
    non-finite entry or a non-positive diagonal, or where, at K > M (a singular
    Gram), the prior's precision rounds away beside ``||h_k||^2 / s`` on the diagonal."""
    W = _normal_matrix(inst)
    K, M = inst.dims.n_users, inst.dims.n_antennas
    try:  # W's diagonal against its bits before the prior's precision was added
        if K > M and (np.diagonal(W) == np.diagonal(inst._gram()) / inst.noise_var).any():
            raise np.linalg.LinAlgError
        out = solve(W)
        if not (np.isfinite(out).all() and (np.diagonal(out) > 0).all()):
            raise np.linalg.LinAlgError
        return out
    except np.linalg.LinAlgError as exc:
        raise ValueError("the normal matrix is not positive definite in floating point: "
                         "the prior's precision rounds away beside ||H||^2 / s") from exc


def _mmse_setup(inst: SystemInstance) -> tuple[np.ndarray, np.ndarray, int]:
    """The part of the MMSE solve that does not depend on ``y``.

    Returns the inverse of the Cholesky factor of :func:`_normal_matrix`,
    the posterior variances and the factor's flop cost, at every K and M
    where the matrix is positive definite in floating point (:func:`_solve_normal`).
    Formed once per instance and kept there (read-only);
    :func:`inverse_filter_detect` combines with the same factor. Over the
    kept Gram matrix, the factor and its inverse are the only K x K arrays
    live at once, beside one quarter-size product while
    :func:`_inverse_factor` runs: the matrix is a temporary, freed once
    factored, and the factor once inverted.
    """

    def build(inst: SystemInstance):
        Linv, f = _inverse_factor(_solve_normal(inst, np.linalg.cholesky))
        post_var = (Linv * Linv).sum(axis=0)
        Linv.flags.writeable = post_var.flags.writeable = False
        return Linv, post_var, f

    return inst._cached("mmse", build)


def _exact(x: np.ndarray, var: np.ndarray, flops: int) -> DetectionResult:
    return DetectionResult(
        estimate=x,
        flops=flops,
        terminated=Termination.EXACT,
        posterior_var=var,
    )


def mmse_detect(inst: SystemInstance, y: np.ndarray) -> DetectionResult:
    """Exact linear MMSE estimate with per-user posterior variances.

    Solves the user-side normal equations
    ``(H^T H / s + diag(1/prior)) x = H^T y / s`` with the kept inverse
    factor, at every K and M.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var

    Linv, post_var, f = _mmse_setup(inst)
    x_hat = Linv.T @ (Linv @ (H.T @ y / s))
    # The factor, the matrix, H^T y / s, two K x K products and the variances.
    flops = f + (2 * M * K * K + K * K + K) + (2 * M * K + K) + 6 * K * K

    return _exact(x_hat, post_var, flops)


def matched_filter_detect(inst: SystemInstance, y: np.ndarray) -> DetectionResult:
    """Per-user correlator x_hat_k = h_k^T y / ||h_k||^2.

    The reported per-user variance accounts for residual multi-user
    interference plus noise after the correlator:
    sum_{i != k} sigma_x_i^2 (h_k^T h_i)^2 / ||h_k||^4 + sigma_n^2/||h_k||^2.
    This normalization (unit gain on the desired user) is a documented
    choice; other conventions rescale the same statistic. A column of zero
    norm (in floating point) raises ValueError.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    vx = inst.prior.variances

    G = inst._gram()
    d = np.diag(G)
    if not (d > 0).all():
        raise ValueError("the matched filter requires every channel column to have a positive norm")
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
    for positive noise; at zero noise the output is the plain decorrelator,
    the pseudo-inverse estimate, with zero posterior variances. Requires
    K <= M and a full-column-rank channel, else ValueError: a
    column-rank-deficient one (equal columns, a zero column) usually fails
    the Gram's Cholesky, which raises ValueError, but where rounding leaves
    a tiny positive pivot it factors and the estimate is finite. No rank
    check is made.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape
    if K > M:
        raise ValueError("inverse_filter_detect requires K <= M")
    s = inst.noise_var

    G = inst._gram()
    flops = 2 * M * K * K
    try:
        Lginv, f = _inverse_factor(np.linalg.cholesky(G))
    except np.linalg.LinAlgError as exc:
        raise ValueError("the channel's columns are linearly dependent in floating point: "
                         "its Gram matrix is not positive definite") from exc
    flops += f
    z0 = H.T @ y
    x_tilde = Lginv.T @ (Lginv @ z0)
    flops += 2 * M * K + 4 * K * K

    if s == 0.0:
        # Noiseless: the decorrelator recovers the sources exactly and the
        # posterior collapses; no prior information can move the estimate.
        return _exact(x_tilde, np.zeros(K), flops)

    # Precision-form combine of the decorrelator output (covariance
    # s * G^{-1}) with the prior.
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
    code path for cross-validation: the inverse is ``np.linalg.inv``'s,
    not MMSE's Cholesky factor and triangle inverse. The posterior
    precision is MMSE's user-side matrix, bit for bit, read from the
    instance's kept Gram ``H^T H``; for K > M that K x K Gram is larger
    than the M x K array ``H / s`` it replaces. ``flops`` stays the block
    formulation's analytic cost, dense M x M products included. At K > M
    it first reads MMSE's kept factor, so it refuses what ``mmse`` refuses.
    """
    _require_finite(y, length=inst.dims.n_antennas)
    H = inst.channel
    M, K = H.shape

    if K > M:  # where MMSE's factor fails, this inverse may not: refuse with it
        _mmse_setup(inst)
    V = _solve_normal(inst, np.linalg.inv)  # first: it refuses noise 0
    pre = H.T @ (y * (1.0 / inst.noise_var))
    flops = M + 2 * M * M * K + 2 * M * K * K + 2 * M * M + 2 * M * K
    x_hat = V @ pre
    flops += K + 2 * K**3 + 2 * K * K

    return _exact(x_hat, np.diag(V).copy(), flops)

"""Closed-form predictions and convergence diagnostics.

Three layers:

- random-matrix MSE prediction for the exact MMSE detector (a finite-size
  F-function expression plus its three-branch large-system limit),
- spectral diagnostics for the mean iterations: the radius of the matrix
  the engine iterates, its closed-form approximation, a row-sum dominance
  check, and the large-system radius asymptotes ``beta + 2*sqrt(beta)``
  (plain) and ``2*sqrt(beta)/(1+beta)`` (relaxed),
- the load threshold ``(sqrt(2)-1)^2`` below which the plain detector's
  asymptotic radius is below 1.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gmpid import variance_fixed_point
from .model import SystemInstance, _read_only
from .sagmpid import (
    RelaxationChoice,
    _measured_spectrum,
    _require_choice,
    auto_relaxation,
    relaxation_iteration_matrix,  # noqa: F401 - a site the benchmark tracer wraps
    relaxation_system_matrix,
)

# Load factor below which beta + 2*sqrt(beta) < 1: the plain detector's
# mean iteration contracts asymptotically.
THRESHOLD_BETA = float((np.sqrt(2.0) - 1.0) ** 2)


@dataclass(frozen=True)
class ConvergenceReport:
    """Convergence diagnostics for one mean-update iteration matrix.

    In the mean-iteration reports the matrix is ``I - w Mt``, the map the
    engine iterates once its weights freeze. Their ``spectral_radius`` is
    ``max |1 - w lam|`` over the eigenvalues ``lam`` of the symmetric part
    of a diagonal similarity of Mt: an upper bound on the radius of
    ``I - w Mt`` when Mt's spectrum is real, not when it is complex.
    ``predicted_converges`` is that radius below 1; ``closed_form_radius``
    is the radius of the paper's approximation
    ``I - w (gamma*(H^T H - D) + I)``, and ``gamma_measured`` the ratio
    ``v / (K v + noise_var)`` at the mean ``v`` of the settled user
    variances, next to the closed-form ``gamma``; both closed-form fields
    are None unless the prior is homogeneous. ``diag_dominant`` is the
    max absolute row sum of the iteration matrix below 1.
    ``beta``/``asymptotic_radius`` are NaN when not applicable.
    """

    diag_dominant: bool
    spectral_radius: float
    asymptotic_radius: float
    predicted_converges: bool
    beta: float
    threshold_beta: float = field(default=THRESHOLD_BETA, init=False)
    gamma: float | None = None            # closed-form variance ratio used
    gamma_measured: float | None = None   # converged-recursion ratio
    closed_form_radius: float | None = None
    w: float | None = None                # relaxation factor reported on


@dataclass(frozen=True)
class RmtMse:
    """Finite-size F-expression MSE and its large-system branch value."""

    exact: float
    asymptote: float
    regime: str


def spectral_radius(B: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix.

    Dense at every order: the symmetric solver when ``B`` equals its
    transpose exactly, the general one otherwise.
    """
    n = B.shape[0]
    if B.shape != (n, n):
        raise ValueError("spectral_radius requires a square matrix")
    eig = np.linalg.eigvalsh if np.array_equal(B, B.T) else np.linalg.eigvals
    return float(np.max(np.abs(eig(B))))


def convergence_check(B: np.ndarray) -> ConvergenceReport:
    """Diagnose an affine iteration's matrix: dominance, radius, verdict.

    ``diag_dominant`` is the max absolute row sum of B being below 1 (the
    row-sum form of strict diagonal dominance of the system matrix I - B);
    the verdict is that condition OR measured spectral radius < 1. A bare
    matrix has no load, so ``beta`` and ``asymptotic_radius`` are NaN.
    """
    dominant = bool(float(np.max(np.abs(B).sum(axis=1))) < 1.0)
    rho = spectral_radius(B)
    return ConvergenceReport(
        diag_dominant=dominant,
        spectral_radius=rho,
        asymptotic_radius=float("nan"),
        predicted_converges=dominant or rho < 1.0,
        beta=float("nan"),
    )


def rmt_mmse_mse(
    n_users: int, n_antennas: int, sigma_x_sq: float, sigma_n_sq: float
) -> RmtMse:
    """Random-matrix prediction of the exact MMSE detector's per-user MSE.

    ``exact`` evaluates the finite-size expression
    ``sigma_x^2 * (1 - F(snr*M, beta) / (4*snr*K))`` with
    ``F(x, z) = (sqrt(x*(1+sqrt(z))^2 + 1) - sqrt(x*(1-sqrt(z))^2 + 1))^2``
    and ``snr = sigma_x^2/sigma_n^2``, rewritten to subtract no two nearly
    equal numbers, which at high SNR would cancel its digits. It equals
    :func:`~gmpdetect.gmpid.variance_fixed_point`'s ``sigma_hat_sq``.
    ``asymptote`` is the large-system branch for the load regime:
    ``sigma_n^2/(M-K)`` underloaded, ``sqrt(sigma_x^2*sigma_n^2/K)`` at
    K=M, ``(1-M/K)*sigma_x^2`` overloaded.
    """
    if min(n_users, n_antennas) < 1 or not all(0 < v < np.inf for v in (sigma_x_sq, sigma_n_sq)):
        raise ValueError("rmt_mmse_mse requires positive sizes and finite, positive variances")
    K, M = n_users, n_antennas
    x = sigma_x_sq / sigma_n_sq * M
    beta, one_minus_beta = K / M, (M - K) / M
    root_b = np.sqrt(beta)
    # With a and c the two square roots of F, 1 - F/(4 snr K) is
    # 2 (g + 1) / (a + c)^2 where g = a c - x (1 - beta), rationalized at K <= M.
    a = np.sqrt(x * (1.0 + root_b) ** 2 + 1.0)
    c = np.sqrt(x * (one_minus_beta / (1.0 + root_b)) ** 2 + 1.0)
    if K <= M:
        g = (2.0 * x * (1.0 + beta) + 1.0) / (a * c + x * one_minus_beta)
    else:
        g = a * c - x * one_minus_beta
    exact = sigma_x_sq * 2.0 * (g + 1.0) / (a + c) ** 2
    if K < M:
        asymptote = sigma_n_sq / (M - K)
        regime = "underloaded"
    elif K == M:
        asymptote = float(np.sqrt(sigma_x_sq * sigma_n_sq / K))
        regime = "critical"
    else:
        asymptote = (1.0 - M / K) * sigma_x_sq
        regime = "overloaded"
    return RmtMse(exact=float(exact), asymptote=float(asymptote), regime=regime)


def _underloaded(inst: SystemInstance) -> float:
    """The instance's load beta; ValueError unless it is below 1."""
    if not inst.dims.beta < 1:
        raise ValueError("mean-convergence report requires load beta < 1")
    return inst.dims.beta


def _mean_iteration_report(
    inst: SystemInstance, w: float, asymptotic_radius: float
) -> ConvergenceReport:
    """Report on ``I - w Mt`` from the instance's one measured spectrum,
    the symmetric-part eigenvalues of :func:`sagmpid._measured_spectrum`.

    The closed-form spectrum at the closed-form gamma is kept on the
    instance too, so every report on it shares one symmetric eigenvalue
    solve.
    """
    row_abs_sums, mu, vv = _measured_spectrum(inst)  # first: its checks guard gamma
    gamma = closed_form_radius = None  # the closed form needs a homogeneous prior
    if inst.prior.is_homogeneous:
        gamma = variance_fixed_point(inst).gamma
        lam = inst._cached(
            "closed_form_spectrum",
            lambda inst: _read_only(np.linalg.eigvalsh(relaxation_system_matrix(inst))),
        )
        closed_form_radius = float(np.max(np.abs(1.0 - w * lam)))
    rho = float(np.max(np.abs(1.0 - w * mu)))
    # Max absolute row sum of I - w Mt, whose diagonal is exactly 1 - w.
    row_sum = abs(1.0 - w) + w * (float(np.max(row_abs_sums)) - 1.0)
    v = float(np.mean(vv))
    return ConvergenceReport(
        diag_dominant=bool(row_sum < 1.0),
        spectral_radius=rho,
        asymptotic_radius=float(asymptotic_radius),
        predicted_converges=rho < 1.0,
        beta=inst.dims.beta,
        gamma=gamma,
        gamma_measured=v / (inst.dims.n_users * v + inst.noise_var),
        closed_form_radius=closed_form_radius,
        w=w,
    )


def gmpid_mean_convergence_report(inst: SystemInstance) -> ConvergenceReport:
    """Convergence diagnostics for the plain detector's mean iteration.

    The radius and verdict are those of ``I - Mt``, the map the engine
    iterates (w = 1), read from the symmetric part of its diagonal
    similarity: an upper bound on the exact radius when Mt's spectrum is
    real, not when it is complex. ``closed_form_radius`` is that of
    ``gamma * (H^T H - D)`` with the closed-form gamma, and
    ``asymptotic_radius`` the large-system ``beta + 2*sqrt(beta)``.
    ``gamma_measured`` is the variance ratio of the settled recursion.
    """
    beta = _underloaded(inst)
    return _mean_iteration_report(inst, 1.0, beta + 2.0 * np.sqrt(beta))


def sagmpid_convergence_report(
    inst: SystemInstance, relax: RelaxationChoice | None = None
) -> ConvergenceReport:
    """Convergence diagnostics for the relaxed detector's mean iteration.

    The radius and verdict are those of ``I - w Mt`` at the run's w, which
    the report carries, read as for the plain report: an upper bound on
    the exact radius on real spectra, not on complex ones.
    ``closed_form_radius`` is that of ``I - w A`` with
    the closed-form ``A = gamma*(H^T H - D) + I``, and ``asymptotic_radius``
    the large-system ``2*sqrt(beta)/(1+beta)``. ``gamma_measured`` is the
    variance ratio of the settled recursion, as in the plain report.
    ``relax=None`` reports on :func:`auto_relaxation`'s w, the one
    :func:`sagmpid_detect` runs by default; any other ``relax`` that is
    not a :class:`RelaxationChoice` raises ValueError.
    """
    _require_choice(relax)
    beta = _underloaded(inst)
    w = float((auto_relaxation(inst) if relax is None else relax).w)
    return _mean_iteration_report(inst, w, 2.0 * np.sqrt(beta) / (1.0 + beta))

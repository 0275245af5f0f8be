"""Successively relaxed Gaussian message passing.

The relaxed detector runs the same message schedule as the plain one but
scales the channel and observation by sqrt(w) in the mean updates and adds
a (w-1)-weighted memory term to each user-side mean. Variance updates are
untouched, so both detectors share one engine (`gmpid._run_message_passing`)
and w=1 reduces to the plain detector bit-for-bit.

Mean-update convergence is governed by the K x K system matrix
``A = gamma * (H^T H - D) + I`` (D the exact diagonal of H^T H, gamma the
converged variance ratio): the relaxed iteration matrix is ``I - w A``, so
any ``0 < w < 2/lambda_max(A)`` contracts, and ``w = 2/(lambda_min +
lambda_max)`` minimizes the contraction factor. This module provides that
matrix, the standard w selection rules, and a measured-spectrum automatic
selection that optimizes w for the instance's actual converged weights.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gmpid import (
    MessagePassingOutput,
    _run_message_passing,
    variance_fixed_point,
    variance_recursion,
)
from .model import SystemInstance
from .results import DEFAULT_MAX_ITER


class WMode(Enum):
    """How the relaxation factor was chosen."""

    ASYMPTOTIC_BETA = "beta"      # w = 1/(1+beta), large-system rule of thumb
    EXACT_EIGEN = "eigen"         # w = 2/(lmin+lmax) of the system matrix
    GERSHGORIN_BOUND = "bound"    # w = 2/lam*, lam* a cheap eigenvalue bound
    MANUAL = "manual"             # user-supplied or measured-spectrum w


@dataclass(frozen=True)
class RelaxationChoice:
    """A relaxation factor plus the provenance needed to audit it."""

    mode: WMode
    w: float
    lambda_min: float | None = None
    lambda_max: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.w < np.inf:
            raise ValueError("relaxation factor w must be finite and positive")


def relaxation_system_matrix(
    inst: SystemInstance, gamma: float | None = None
) -> np.ndarray:
    """The K x K mean-update system matrix ``gamma*(H^T H - D) + I``.

    Uses the exact per-user diagonal of H^T H (not its expectation), so the
    diagonal of the result is exactly 1. ``gamma`` defaults to the converged
    variance ratio from :func:`variance_fixed_point`.
    """
    if gamma is None:
        gamma = variance_fixed_point(inst).gamma
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    A = gamma * inst._gram()
    np.fill_diagonal(A, 1.0)  # gamma*(G - D) has an exact zero diagonal
    return A


def choose_w(
    inst: SystemInstance,
    gamma: float | None = None,
    mode: WMode = WMode.EXACT_EIGEN,
    manual_w: float | None = None,
) -> RelaxationChoice:
    """Select a relaxation factor by one of the standard rules.

    - ``EXACT_EIGEN``: radius-minimizing ``2/(lmin+lmax)`` from a full
      eigendecomposition of the system matrix.
    - ``GERSHGORIN_BOUND``: ``2/lam*`` with ``lam*`` the smaller of the
      largest absolute row sum and largest absolute column sum — an upper
      bound on lambda_max, so the result is admissible by construction.
    - ``ASYMPTOTIC_BETA``: ``1/(1+beta)``, valid for load beta < 1.
    - ``MANUAL``: pass ``manual_w`` through (must be finite and positive).
    """
    if mode is WMode.MANUAL:
        if manual_w is None:
            raise ValueError("manual mode requires manual_w")
        return RelaxationChoice(mode=WMode.MANUAL, w=float(manual_w))
    if mode is WMode.ASYMPTOTIC_BETA:
        beta = inst.dims.beta
        if not beta < 1:
            raise ValueError("asymptotic-beta mode requires load beta < 1")
        return RelaxationChoice(mode=mode, w=1.0 / (1.0 + beta))
    A = relaxation_system_matrix(inst, gamma)
    if mode is WMode.EXACT_EIGEN:
        evals = np.linalg.eigvalsh(A)
        lmin, lmax = float(evals[0]), float(evals[-1])
        return RelaxationChoice(
            mode=mode, w=2.0 / (lmin + lmax), lambda_min=lmin, lambda_max=lmax
        )
    if mode is WMode.GERSHGORIN_BOUND:
        abs_a = np.abs(A)
        lam_star = float(min(abs_a.sum(axis=1).max(), abs_a.sum(axis=0).max()))
        return RelaxationChoice(mode=mode, w=2.0 / lam_star, lambda_max=lam_star)
    raise ValueError(f"unknown relaxation mode: {mode!r}")


def _measured_system_matrix(inst: SystemInstance) -> np.ndarray:
    """The mean-update system matrix at the *converged per-edge weights*.

    The closed-form matrix ``gamma*(H^T H - D) + I`` replaces every edge
    weight by the single asymptotic ratio gamma. At finite size the
    converged weights vary slightly per edge; this builds the exact map the
    mean iteration actually applies, so the optimal w derived from it is
    the true radius minimizer for the instance.
    """
    H = inst.channel
    vv, W, _ = variance_recursion(inst)
    W *= H  # H o W, in place
    Mt = vv[:, None] * (W.T @ H)
    # With G = (H o W)^T H the diagonal is vv * (diag G - u) + 1, and
    # diag G = sum_m H^2 W = u in exact arithmetic: it is exactly 1.
    np.fill_diagonal(Mt, 1.0)
    return Mt


def auto_relaxation(inst: SystemInstance) -> RelaxationChoice:
    """Radius-minimizing w from the measured mean-update spectrum.

    A full eigendecomposition of the measured system matrix gives
    ``w = 2/(mu_min + mu_max)`` over the real parts of its eigenvalues
    (mu_min floored at a tiny positive multiple of mu_max so a numerically
    zero edge cannot produce w >= 2/mu_max). Tagged MANUAL because the
    value comes from measurement, not one of the closed-form rules.
    """
    mu_r = np.sort(np.linalg.eigvals(_measured_system_matrix(inst)).real)
    mu_min, mu_max = float(mu_r[0]), float(mu_r[-1])
    w = 2.0 / (max(mu_min, 1e-12 * mu_max) + mu_max)
    return RelaxationChoice(
        mode=WMode.MANUAL, w=w, lambda_min=mu_min, lambda_max=mu_max
    )


def relaxation_iteration_matrix(
    inst: SystemInstance, w: float, gamma: float | None = None
) -> np.ndarray:
    """The mean-update iteration matrix ``I - w A``.

    Its spectral radius predicts convergence of the relaxed detector before
    running it: radius < 1 iff the mean iteration contracts.
    """
    A = relaxation_system_matrix(inst, gamma)
    B = -w * A
    np.fill_diagonal(B, 1.0 - w)  # exact: diag(A) is exactly 1
    return B


def sagmpid_detect(
    inst: SystemInstance,
    y: np.ndarray,
    relax: RelaxationChoice | None = None,
    *,
    eps: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    truth: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
) -> MessagePassingOutput:
    """Relaxed Gaussian message-passing detection.

    ``relax=None`` selects w automatically via :func:`auto_relaxation`.
    With ``relax.w == 1`` the run is bit-identical to
    :func:`gmpid.gmpid_detect` on the same inputs. The returned output
    carries the relaxation choice used.
    """
    if relax is None:
        relax = auto_relaxation(inst)
    out = _run_message_passing(
        inst,
        y,
        float(relax.w),
        eps=eps,
        max_iter=max_iter,
        truth=truth,
        oracle=oracle,
    )
    out.relax = relax
    return out

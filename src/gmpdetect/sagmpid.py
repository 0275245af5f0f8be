"""Scale-and-add Gaussian message passing (SA-GMPID).

The detector runs the same message schedule as the plain one. It scales
the system, channel and observation alike, by sqrt(w) in the mean updates,
and adds to each user-side mean a memory term, its previous value weighted
by w - 1 (``-(w - 1) x``). Variance updates are untouched, so both
detectors share one engine (`gmpid._run_message_passing`) and w=1 reduces
to the plain detector bit-for-bit.

Once the weights freeze, the mean update is ``x <- (I - w Mt) x + b``, with
``Mt`` the K x K system matrix at the instance's settled per-edge weights.
It contracts iff ``max |1 - w mu| < 1`` over the eigenvalues ``mu`` of Mt.
:func:`auto_relaxation` minimizes that radius over the eigenvalues of the
symmetric part of a diagonal similarity of Mt, from one symmetric solve the
instance keeps, and the convergence reports in :mod:`gmpdetect.analysis`
read the same spectrum. Every ``w`` a run uses is a :class:`RelaxationChoice`
that names its source: ``auto`` (that measurement), ``beta`` or ``manual``
(both resolved from a w-mode string by ``harness.resolve_relaxation``).
The closed-form ``gamma * (H^T H - D) + I`` is the paper's large-system
approximation of Mt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gmpid import (
    MessagePassingOutput,
    _run_message_passing,
    variance_fixed_point,
    variance_recursion,
)
from .model import SystemInstance, _read_only
from .results import DEFAULT_MAX_ITER


@dataclass(frozen=True)
class RelaxationChoice:
    """A relaxation factor and where it came from.

    ``source`` is ``"auto"`` (:func:`auto_relaxation`, from the measured
    spectrum, whose extreme eigenvalues it also carries), ``"beta"`` (the
    large-system rule ``1/(1+beta)``) or ``"manual"`` (given by the user).
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


def relaxation_system_matrix(
    inst: SystemInstance, gamma: float | None = None
) -> np.ndarray:
    """The closed-form K x K system matrix ``gamma*(H^T H - D) + I``.

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


def _system_matrix(G: np.ndarray, vv: np.ndarray) -> np.ndarray:
    """Scale ``G = A^T H`` into ``Mt = vv G`` in place, with unit diagonal.

    The diagonal is vv * (diag G - u) + 1, and diag G = sum_m H o A = u in
    exact arithmetic: it is exactly 1.
    """
    G *= vv[:, None]
    np.fill_diagonal(G, 1.0)
    return G


def _measured_matrix(inst: SystemInstance) -> np.ndarray:
    """``Mt = vv A^T H`` with unit diagonal, a new K x K array each call.

    The mean-update system matrix at the settled step's user variances
    ``vv`` and ``A = H / V``, read in place from the schedule's buffer.
    Every schedule settles, after ``VARIANCE_SWEEP_CAP`` sweeps at the
    latest, and the engine's frozen phase iterates with that buffer: this
    is the exact map the mean iteration applies once the weights freeze.
    The instance keeps only :func:`_measured_spectrum`'s summary of it.
    """
    vv, A, _ = variance_recursion(inst)
    return _system_matrix(A.T @ inst.channel, vv)


def _measured_spectrum(inst: SystemInstance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row_abs_sums, lam, vv)``, formed once per instance (all read-only).

    ``row_abs_sums`` is ``np.abs(Mt).sum(axis=1)`` over the measured
    matrix of :func:`_measured_matrix`, the K numbers the row-sum test
    reads. Every convergence decision reads the measured matrix, not the
    closed-form one, whose single ratio gamma can flip a verdict near
    load 1.

    ``lam`` holds the ascending eigenvalues of the symmetric part of
    ``S = D^-1/2 Mt D^1/2``, ``D = diag(vv)``, from one symmetric solve:
    ``S`` is similar to ``Mt``, and by Bendixson's theorem the real parts
    of Mt's eigenvalues lie within ``[lam[0], lam[-1]]``. So
    ``max |1 - w lam|`` bounds the radius of ``I - w Mt`` from above when
    Mt's spectrum is real, though not when it is complex.

    Neither K x K matrix is kept: ``S`` is formed from ``G = A^T H`` before
    ``G`` becomes ``Mt``, and ``Mt`` is dropped once its row sums are
    taken, so the symmetric solve runs beside ``S`` alone.
    """

    def build(inst: SystemInstance):
        vv, A, _ = variance_recursion(inst)
        G = A.T @ inst.channel
        root = np.sqrt(vv)
        S = root[:, None] * G
        S *= root
        Mt = _system_matrix(G, vv)
        row_abs_sums = np.abs(Mt, out=Mt).sum(axis=1)
        del G, Mt
        S += S.T
        S *= 0.5
        np.fill_diagonal(S, 1.0)  # exactly 1, as in Mt
        return _read_only(row_abs_sums), _read_only(np.linalg.eigvalsh(S)), vv

    return inst._cached("measured_spectrum", build)


def auto_relaxation(inst: SystemInstance) -> RelaxationChoice:
    """Radius-minimizing w from the measured mean-update spectrum.

    ``w = 2/(lambda_min + lambda_max)`` over the extreme eigenvalues of the
    symmetric part of the measured system matrix, taken in the variance
    metric (see :func:`_measured_spectrum`); lambda_min is floored at a tiny
    positive multiple of lambda_max so a numerically zero edge cannot
    produce w >= 2/lambda_max. The interval holds the real parts of the
    measured matrix's eigenvalues, so on a real spectrum this w contracts
    wherever the one from the exact spectrum does.
    """
    lam = _measured_spectrum(inst)[1]
    lam_min, lam_max = float(lam[0]), float(lam[-1])
    w = 2.0 / (max(lam_min, 1e-12 * lam_max) + lam_max)
    return RelaxationChoice(w, source="auto", lambda_min=lam_min, lambda_max=lam_max)


def relaxation_iteration_matrix(inst: SystemInstance, w: float) -> np.ndarray:
    """The closed-form mean-update iteration matrix ``I - w A``.

    Its spectral radius is the paper's large-system approximation of the
    radius of ``I - w Mt``, the matrix the engine iterates.
    """
    B = -w * relaxation_system_matrix(inst)
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

    ``relax=None`` selects w automatically via :func:`auto_relaxation`
    (source ``"auto"``).
    With ``relax.w == 1`` the run is bit-identical to
    :func:`gmpid.gmpid_detect` on the same inputs. The returned output
    carries the relaxation choice used as ``relax``.
    """
    if relax is None:
        relax = auto_relaxation(inst)
    return _run_message_passing(
        inst, y, relax, eps=eps, max_iter=max_iter, truth=truth, oracle=oracle
    )

"""Gaussian message passing on the bipartite user/antenna factor graph.

Each antenna (sum node) m carries one observation equation
``y_m = sum_k h_mk x_k + n_m``; each user (variable node) k carries a
Gaussian prior. Messages are scalar means and variances along the K*M
edges. The sum-to-user message excludes the target user's own
contribution; the user-side combine uses every incoming message plus the
prior, which makes the user-to-sum messages identical across edges and
lets the engine keep a rank-1 state in O(KM) per iteration.

Initialization is the uninformative state (zero means, infinite
variances). Internally variances are represented by their reciprocals
(weights), so "infinite" is an exact 0 weight and the first sweep needs
no special-case arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemDims, SystemInstance
from .results import DetectionResult, IterationTrace, Termination

DEFAULT_MAX_ITER = 500

VARIANCE_MODES = ("interleaved", "frozen")


@dataclass
class MessageState:
    """The four edge-message arrays of one message-passing iteration.

    Variances are extended-positive: ``+inf`` entries are exact and mark
    uninformative messages (the initial state). After the first user-side
    update the user-to-sum rows are constant across antennas by
    construction.
    """

    user_to_sum_mean: np.ndarray  # (K, M)
    user_to_sum_var: np.ndarray   # (K, M), +inf allowed
    sum_to_user_mean: np.ndarray  # (M, K)
    sum_to_user_var: np.ndarray   # (M, K), >= noise variance when finite

    @classmethod
    def initial(cls, dims: SystemDims) -> "MessageState":
        K, M = dims.n_users, dims.n_antennas
        return cls(
            user_to_sum_mean=np.zeros((K, M)),
            user_to_sum_var=np.full((K, M), np.inf),
            sum_to_user_mean=np.zeros((M, K)),
            sum_to_user_var=np.full((M, K), np.inf),
        )


@dataclass(frozen=True)
class VarianceFixedPoint:
    """Closed-form limit of the message variances (homogeneous prior).

    ``sigma_hat_sq`` is the limiting per-user output variance,
    ``sigma_tilde_sq`` the limiting sum-node message variance, and
    ``gamma`` their ratio (bounded by 1/K). ``asymptote`` is the
    large-system limit of sigma_hat_sq for the instance's load regime.
    """

    sigma_hat_sq: float
    sigma_tilde_sq: float
    gamma: float
    asymptote: float
    asymptote_regime: str  # "underloaded" (K<M), "critical" (K=M), "overloaded"


@dataclass
class MessagePassingOutput:
    """Everything a message-passing run produces.

    The fixed-point residual of the decision rule at exit is the last step
    change, ``result.trace.step_change[-1]``.
    """

    result: DetectionResult
    state: MessageState
    relax: object | None = None       # RelaxationChoice when run with relaxation


def sum_node_update(
    state: MessageState, inst: SystemInstance, y: np.ndarray
) -> MessageState:
    """One antenna-side sweep: extrinsic means/variances toward every user.

    For edge (m, k): mean ``y_m - sum_{i != k} h_mi E[i, m]`` and variance
    ``sum_{i != k} h_mi^2 V[i, m] + noise_var``, computed for all K*M edges
    in O(KM) via row totals minus the own term. Infinite incoming variances
    are handled exactly: an edge's outgoing variance is +inf iff at least
    one *other* user on that antenna is uninformative.
    """
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    E_us = state.user_to_sum_mean
    V_us = state.user_to_sum_var

    row_mean = (H * E_us.T).sum(axis=1)
    E_su = (y - row_mean)[:, None] + H * E_us.T

    mask = np.isinf(V_us)
    fin = np.where(mask, 0.0, V_us)
    H2 = H * H
    row_var = (H2 * fin.T).sum(axis=1)
    V_fin = (row_var + s)[:, None] - H2 * fin.T
    n_inf_other = mask.T.sum(axis=1)[:, None] - mask.T  # inf contributors besides k
    V_su = np.where(n_inf_other > 0, np.inf, V_fin)

    return MessageState(
        user_to_sum_mean=E_us,
        user_to_sum_var=V_us,
        sum_to_user_mean=E_su,
        sum_to_user_var=V_su,
    )


def variable_node_update(state: MessageState, inst: SystemInstance) -> MessageState:
    """One user-side sweep: combine all incoming messages with the prior.

    The combine uses every antenna's message (full-information variant), so
    the outgoing mean/variance of user k is the same on all M edges:
    variance ``1/(sum_i h_ik^2 / V_su[i,k] + 1/prior_k)`` and mean
    ``vv_k * sum_i h_ik E_su[i,k] / V_su[i,k]``. Infinite incoming variances
    contribute exactly zero weight.
    """
    H = inst.channel
    M, K = H.shape
    px = inst.prior.precisions
    E_su = state.sum_to_user_mean
    V_su = state.sum_to_user_var

    H2 = H * H
    W = 1.0 / V_su  # +inf -> exact 0 weight
    u = (H2 * W).sum(axis=0)
    vv = 1.0 / (u + px)
    ev = vv * (H * W * E_su).sum(axis=0)

    return MessageState(
        user_to_sum_mean=np.broadcast_to(ev[:, None], (K, M)).copy(),
        user_to_sum_var=np.broadcast_to(vv[:, None], (K, M)).copy(),
        sum_to_user_mean=E_su,
        sum_to_user_var=V_su,
    )


def variance_fixed_point(inst: SystemInstance) -> VarianceFixedPoint:
    """Closed-form variance limit for a homogeneous prior.

    Solves the scalar quadratic satisfied by the limiting output variance
    and reports the companion sum-node variance, their ratio, and the
    large-system asymptote for the instance's load regime.
    """
    if not inst.prior.is_homogeneous:
        raise ValueError("variance_fixed_point requires a homogeneous prior")
    sx = float(inst.prior.variances[0])
    if not np.isfinite(sx):
        raise ValueError("variance_fixed_point requires a finite prior")
    s = inst.noise_var
    K, M = inst.dims.n_users, inst.dims.n_antennas

    b = s / sx + M - K
    sigma_hat_sq = (np.sqrt(b * b + 4.0 * (K / sx) * s) - b) / (2.0 * K / sx)
    sigma_tilde_sq = K * sigma_hat_sq + s
    gamma = sigma_hat_sq / sigma_tilde_sq

    if K < M:
        asymptote = s / (M - K + s / sx)
        regime = "underloaded"
    elif K == M:
        asymptote = float(np.sqrt(sx * s / K))
        regime = "critical"
    else:
        asymptote = (K - M) * sx / K
        regime = "overloaded"

    return VarianceFixedPoint(
        sigma_hat_sq=float(sigma_hat_sq),
        sigma_tilde_sq=float(sigma_tilde_sq),
        gamma=float(gamma),
        asymptote=float(asymptote),
        asymptote_regime=regime,
    )


def variance_recursion(inst: SystemInstance) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the message-variance recursion from the prior to its fixed point.

    The variances depend on neither the means, ``y`` nor the relaxation
    factor. Sweeps stop once no user variance moves by 1e-16 or more, or
    after 500 sweeps. Returns the user variances (K,), the matching
    sum-node message variances (M, K) and the number of sweeps run.
    """
    H = inst.channel
    H2 = H * H
    s = inst.noise_var
    px = inst.prior.precisions
    vv = inst.prior.variances.astype(float).copy()
    for sweeps in range(1, 501):
        Tm = H2 @ vv
        V_su = (Tm + s)[:, None] - H2 * vv[None, :]
        u = (H2 / V_su).sum(axis=0)
        vv_new = 1.0 / (u + px)
        settled = np.max(np.abs(vv_new - vv)) < 1e-16
        vv = vv_new
        if settled:
            break
    V_su = (H2 @ vv + s)[:, None] - H2 * vv[None, :]
    return vv, V_su, sweeps


def _run_message_passing(
    inst: SystemInstance,
    y: np.ndarray,
    w: float,
    *,
    eps: float | None,
    max_iter: int,
    variance_mode: str,
    truth: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
) -> MessagePassingOutput:
    """Shared engine for plain (w=1) and relaxed (w != 1) message passing.

    Rank-1 fast path: user-side messages are edge-independent, so the state
    is one mean vector ``ev`` and one weight vector ``vv_w`` (reciprocal
    variances; 0 means infinite). Relaxation scales the system by sqrt(w)
    in the mean updates and adds a (w-1)-weighted memory term; the variance
    recursion is identical for every w. ``w == 1.0`` runs the exact same
    statements with the scaling and memory term skipped, so a w=1 run is
    bit-identical to the plain detector.

    ``variance_mode``: "interleaved" (default) updates variances and means
    together each sweep; "frozen" first converges the variance recursion,
    then iterates means only with fixed weights (cheaper per iteration).
    """
    if variance_mode not in VARIANCE_MODES:
        raise ValueError(f"variance_mode must be one of {VARIANCE_MODES}")
    if not w > 0:
        raise ValueError("relaxation factor must be positive")
    H = inst.channel
    M, K = H.shape
    s = inst.noise_var
    if not s > 0:
        raise ValueError("message passing requires positive noise variance")
    if not np.all(np.isfinite(inst.prior.variances)):
        raise ValueError("message passing requires finite prior variances")
    px = inst.prior.precisions

    H2 = H * H
    flops = K * M
    if w == 1.0:
        Hp, yp = H, y
    else:
        sw = np.sqrt(w)
        Hp = sw * H
        yp = sw * y
        flops += K * M + M + 1
    if eps is None:
        eps = 1e-8 * (1.0 + float(np.max(np.abs(y))))
    thresh = 1e12 * (1.0 + float(np.max(np.abs(y))))

    ev = np.zeros(K)
    vv_w = np.zeros(K)  # current user weights; 0 == infinite variance
    trace = IterationTrace()
    terminated = Termination.MAX_ITERATIONS
    iterations = 0
    E_su = None
    V_su = None
    W_su_frozen = None

    if variance_mode == "frozen":
        # Converge the variance recursion first (it does not depend on the
        # means), then keep the weights fixed during the mean iterations.
        _, V_su, sweeps = variance_recursion(inst)
        W_su_frozen = 1.0 / V_su
        u_frozen = (H2 * W_su_frozen).sum(axis=0)
        vv_w = u_frozen + px
        flops += sweeps * (8 * K * M + M + 2 * K) + 7 * K * M + M + K

    for t in range(1, max_iter + 1):
        S = Hp @ ev
        E_su = (yp - S)[:, None] + Hp * ev[None, :]
        flops += 4 * K * M + M
        if variance_mode == "frozen":
            W_su = W_su_frozen
            u = u_frozen
            pw = vv_w
            vv_new = 1.0 / pw
            flops += K
        else:
            if vv_w.min() > 0.0:
                vvar = 1.0 / vv_w
                Tm = H2 @ vvar
                V_su = (Tm + s)[:, None] - H2 * vvar[None, :]
                W_su = 1.0 / V_su
                flops += 5 * K * M + M + K
            else:
                W_su = np.zeros((M, K))
            u = (H2 * W_su).sum(axis=0)
            pw = u + px
            vv_new = 1.0 / pw
            flops += 2 * K * M + 2 * K
        g = (Hp * W_su * E_su).sum(axis=0)
        flops += 3 * K * M
        if w == 1.0:
            ev_new = vv_new * g
            flops += K
        else:
            ev_new = vv_new * g - (w - 1.0) * ev
            flops += 3 * K
        change = float(np.max(np.abs(ev_new - ev)))
        flops += 2 * K
        ev = ev_new
        vv_w = pw
        iterations = t

        trace.append(
            t,
            change,
            flops,
            oracle_gap=(
                float(np.linalg.norm(ev - oracle)) if oracle is not None else None
            ),
            mean_variance=float(np.mean(1.0 / vv_w)),
            mse_to_truth=(
                float(np.mean((ev - truth) ** 2)) if truth is not None else None
            ),
        )

        if not np.all(np.isfinite(ev)) or np.max(np.abs(ev)) > thresh:
            terminated = Termination.DIVERGED
            break
        # The first sweep only installs the prior (means stay zero), so the
        # step-change test is armed from the second sweep onward.
        if t > 1 and change < eps:
            terminated = Termination.CONVERGED
            break

    with np.errstate(divide="ignore"):
        post_var = 1.0 / vv_w  # zero weight -> exact +inf variance

    if E_su is None:  # max_iter == 0 edge: never swept
        state = MessageState.initial(inst.dims)
    else:
        state = MessageState(
            user_to_sum_mean=np.broadcast_to(ev[:, None], (K, M)).copy(),
            user_to_sum_var=np.broadcast_to(post_var[:, None], (K, M)).copy(),
            sum_to_user_mean=E_su,
            sum_to_user_var=(
                V_su if V_su is not None else np.full((M, K), np.inf)
            ),
        )

    result = DetectionResult(
        estimate=ev,
        posterior_var=post_var,
        iterations=iterations,
        flops=flops,
        terminated=terminated,
        trace=trace,
    )
    return MessagePassingOutput(result=result, state=state)


def gmpid_detect(
    inst: SystemInstance,
    y: np.ndarray,
    *,
    eps: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    variance_mode: str = "interleaved",
    truth: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
) -> MessagePassingOutput:
    """Iterative Gaussian message-passing detection (plain, unrelaxed).

    Stops when the max-norm mean change falls below ``eps`` (default
    ``1e-8 * (1 + ||y||_inf)``), the iteration budget runs out, or the
    estimate grows past the divergence threshold. ``truth`` / ``oracle``
    optionally enable per-iteration MSE / oracle-gap trace columns.
    """
    return _run_message_passing(
        inst,
        y,
        1.0,
        eps=eps,
        max_iter=max_iter,
        variance_mode=variance_mode,
        truth=truth,
        oracle=oracle,
    )

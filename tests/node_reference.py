"""The node-level reference: Gaussian message passing as edge messages.

The paper defines the detector on the fully connected bipartite graph of
users and antennas, with one scalar mean and variance on each of the K*M
edges in each direction. The package runs it as one rank-1 engine over the
instance's variance schedule (``gmpid._VarianceSchedule``). This module
keeps the edge form, independent of that engine, for the tests to compare
it against: the four edge-message arrays (:class:`MessageState`), the
antenna-side and user-side updates, and :func:`message_state`, which
rebuilds the edge messages at the exit of an engine run from its result.

It is a helper that test modules import, not a test module: pytest does
not collect it, since its name does not start with ``test_``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gmpdetect import DetectionResult, SystemDims, SystemInstance
from gmpdetect.gmpid import _schedule, _VarianceSchedule


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


def variances(schedule: _VarianceSchedule, t: int, out: np.ndarray) -> np.ndarray:
    """Write the sum-node variances ``V`` (M, K) of recorded step ``t`` of
    ``schedule`` into ``out``, by the numpy statements that
    ``_VarianceSchedule.blocks`` runs on a block: ``V = c[t] - H^2 o vv[t-1]``
    with ``vv[t-1] = 1/(u[t-1] + 1/prior)``, and all infinite at step 0."""
    if t == 0:
        out.fill(np.inf)
        return out
    np.multiply(schedule.H, schedule.H, out=out)
    out *= 1.0 / (schedule.u[t - 1] + schedule.px)
    return np.subtract(schedule.c[t][:, None], out, out=out)


def message_state(
    inst: SystemInstance, y: np.ndarray, result: DetectionResult
) -> MessageState:
    """The four edge-message arrays at the exit of the run ``result`` on ``y``.

    ``inst`` is the run's instance or one built equal to it, whose schedule
    is stepped forward to the run's last step if it has not recorded it.
    The sum-node variances are that step's ``V``, by the statements the
    engine ran before dividing the channel by them, so ``H / V`` is the
    run's ``A`` bit for bit. The sum-to-user means are those of the system
    scaled by sqrt(w) (the relaxed form of the messages).
    """
    ev_prev = result.previous_estimate
    if ev_prev is None:  # no iteration ran
        return MessageState.initial(inst.dims)
    H = inst.channel
    M, K = H.shape
    w = 1.0 if result.relax is None else float(result.relax.w)
    ev, post_var = result.estimate, result.posterior_var
    Hp, yp = (H, y) if w == 1.0 else (np.sqrt(w) * H, np.sqrt(w) * y)
    schedule = _schedule(inst)
    t = schedule.reach(result.iterations - 1)  # the run's last step, unless settled first
    return MessageState(
        user_to_sum_mean=np.broadcast_to(ev[:, None], (K, M)).copy(),
        user_to_sum_var=np.broadcast_to(post_var[:, None], (K, M)).copy(),
        sum_to_user_mean=(yp - Hp @ ev_prev)[:, None] + Hp * ev_prev,
        sum_to_user_var=variances(schedule, t, np.empty((M, K))),
    )


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

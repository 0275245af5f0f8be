"""Gaussian message passing on the bipartite user/antenna factor graph.

Each antenna (sum node) m carries one observation equation
``y_m = sum_k h_mk x_k + n_m``; each user (variable node) k carries a
Gaussian prior. Messages are scalar means and variances along the K*M
edges. The sum-to-user message excludes the target user's own
contribution; the user-side combine uses every incoming message plus the
prior, which makes the user-to-sum messages identical across edges and
lets the engine keep a rank-1 state in O(KM) per iteration.

Initialization is the uninformative state (zero means, infinite
variances). The engine never forms the sum-node weights ``1/V``: each step
divides the channel by the sum-node variances, ``A = H / V``, and the
uninformative start is an exact ``A = 0``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import SystemDims, SystemInstance, _require_finite
from .results import (
    DEFAULT_MAX_ITER, DetectionResult, IterationTrace, RelaxationChoice, Termination,
    _stop_rule,
)

VARIANCE_SWEEP_CAP = 5000  # the variance schedule settles by this sweep at the latest
_BLOCK_ENTRIES = 2**16  # float64 entries per row block of a schedule step: 512 KiB


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
        sum_to_user_var=schedule.variances(t, np.empty((M, K))),
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


class _VarianceSchedule:
    """The message-variance recursion of one instance, recorded as far as stepped.

    The variances depend on neither ``y``, the means nor the relaxation
    factor, so one schedule serves every consumer of the instance. Step
    ``t`` holds the user weight sums ``u[t] = sum_m H o A``, the user
    variances ``vv[t] = 1/(u[t] + 1/prior)`` and the sum-node totals
    ``c[t] = H^2 vv[t-1] + noise_var`` (M,), which fix the step's sum-node
    variances ``V = c[t] - H^2 o vv[t-1]`` and the engine's matrix
    ``A = H / V``. Step 0 is the all-infinite start, ``A == 0``. The
    schedule settles at the first step whose user weights
    ``pw = u + 1/prior`` each moved from the step before by at most
    ``M 2^-53 pw``, the worst-case rounding error of the M-term sum behind
    ``u``, or repeat bitwise those of any earlier step. The repeat test
    catches rounding cycles wider than that bound (at M <= 2, mostly):
    a sweep reads only the user weights, so repeated weights cycle
    forever. A schedule that neither test settles settles at step
    ``VARIANCE_SWEEP_CAP - 1``. That step is ``settle``, the last one
    recorded.

    :meth:`step` computes ``A`` in row blocks of ``_BLOCK_ENTRIES`` entries
    (``max(1, _BLOCK_ENTRIES // K)`` rows), small enough to stay in cache.
    Each block squares its own rows of ``H`` (``H[rows] * H[rows]`` is
    ``H^2[rows]`` bit for bit) and, while in cache, also feeds its share of
    the engine's ``A^T r`` and, in a sweep, of ``c`` and ``u``; the block
    shares of ``A^T r`` and ``u`` are summed in block order. Only a step
    past the recorded end runs the gemv for ``c``, the reduction and the
    settle test; a recorded step is replayed by the same statements, so it
    is the swept step bit for bit. Where one block covers the channel
    (``M K <= _BLOCK_ENTRIES``) every sum is the unblocked one.

    The schedule keeps a reference to the channel, not a copy of it, and
    one (M, K) buffer ``A``: every sweep writes its step's ``A`` there, so
    once the schedule settles it holds the settled ``A`` (read-only from
    then on), which the engine's frozen phase and the measured spectrum
    read in place.
    """

    def __init__(self, inst: SystemInstance):
        self.H = inst.channel
        self.A = np.zeros(inst.channel.shape)  # the last swept step's A
        self.s, self.px = inst.noise_var, inst.prior.precisions
        self.u, self.vv, self.c = [], [], [None]
        self.settle: int | None = None  # index of the settled step, once reached
        self._rtol = inst.dims.n_antennas * 2.0**-53  # rounding bound of u's sum
        self._seen = set()  # the bytes of every user-weight vector so far
        self._pw = np.inf  # the last step's user weights
        self._record(np.zeros(inst.dims.n_users))

    def _record(self, u: np.ndarray) -> None:
        pw = u + self.px
        settled = pw.tobytes() in self._seen or (abs(pw - self._pw) <= self._rtol * pw).all()
        if settled or len(self.u) == VARIANCE_SWEEP_CAP - 1:
            self.settle = len(self.u)
            self.A.flags.writeable = False
        self._seen.add(pw.tobytes())
        self._pw = pw
        vv = 1.0 / pw
        u.flags.writeable = vv.flags.writeable = False
        self.u.append(u)
        self.vv.append(vv)

    def _rows(self) -> int:
        return max(1, _BLOCK_ENTRIES // self.H.shape[1])

    def block(self) -> np.ndarray:
        """A new buffer of one row block, for the replayed steps of one run."""
        M, K = self.H.shape
        return np.empty((min(M, self._rows()), K))

    def reach(self, t: int) -> int:
        """Sweep until step ``t`` is recorded or the schedule settles; return
        ``t``, or the settled step if that comes first."""
        while self.settle is None and len(self.u) <= t:
            self.step(len(self.u))
        return min(t, len(self.u) - 1)

    def variances(
        self, t: int, out: np.ndarray, rows: slice = slice(None), *, sweep: bool = False
    ) -> np.ndarray:
        """Write the sum-node variances ``V`` of step ``t`` (its rows ``rows``)
        into ``out``.

        With ``sweep``, ``t`` is the step being swept, and its
        ``c[t][rows]`` is first taken from the squared block.
        """
        if t == 0:
            out.fill(np.inf)
            return out
        H, vv, c = self.H[rows], self.vv[t - 1], self.c[t][rows]
        np.multiply(H, H, out=out)
        if sweep:
            np.matmul(out, vv, out=c)
            c += self.s
        out *= vv
        return np.subtract(c[:, None], out, out=out)

    def step(
        self, t: int, r: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> tuple[bool, np.ndarray | None]:
        """Compute ``A = H / V`` of step ``t``, replaying a recorded step or
        sweeping and recording step ``len(self.u)``.

        Returns whether ``t`` is the settled step and, given ``r`` (M,),
        ``A^T r`` (K,). A sweep writes all of ``A`` into ``self.A``; the
        settled step is read from there. Any other replayed step writes
        each block in turn into the leading rows of ``out``, a buffer from
        :meth:`block`. Step 0 writes nothing: its ``A`` is 0.
        """
        sweep = t == len(self.u)
        M, K = self.H.shape
        if t == 0:
            return t == self.settle, None if r is None else np.zeros(K)
        n = self._rows()
        starts = range(0, M, n)
        Ar = None if r is None else np.empty((len(starts), K))
        if sweep:
            self.c.append(np.empty(M))
            u = np.empty((len(starts), K))
        kept = t == self.settle  # the buffer holds this step's A
        for i, lo in enumerate(starts):
            rows = slice(lo, lo + n)
            A = self.A[rows] if sweep or kept else out[: min(n, M - lo)]
            if not kept:
                np.divide(self.H[rows], self.variances(t, A, rows, sweep=sweep), out=A)
            if r is not None:
                np.matmul(A.T, r[rows], out=Ar[i])
            if sweep:
                np.einsum("mk,mk->k", self.H[rows], A, out=u[i])
        if sweep:
            self._record(u.sum(axis=0))
        return t == self.settle, None if r is None else Ar.sum(axis=0)


def _schedule(inst: SystemInstance) -> _VarianceSchedule:
    return inst._cached("variance_schedule", _VarianceSchedule)


def variance_recursion(inst: SystemInstance) -> tuple[np.ndarray, np.ndarray, int]:
    """Run the message-variance recursion from the uninformative state until it settles.

    The variances depend on neither the means, ``y`` nor the relaxation
    factor. Sweeps stop where the detectors freeze their weights: every
    user weight within the rounding bound ``M 2^-53`` of the sweep before,
    a bitwise repeat of any earlier sweep, or ``VARIANCE_SWEEP_CAP``
    sweeps, whichever comes first; the first sweep only installs the
    prior. Returns the user variances (K,), the matrix ``A = H / V``
    (M, K) of the sum-node variances ``V`` behind them, and the sweeps
    run. ``A`` is read-only: the schedule's own settled buffer, which
    detector runs on the instance also read, so no new (M, K) array is
    built. The sweeps are recorded on the instance, so later calls and
    detector runs on it replay them instead of sweeping again.
    """
    schedule = _schedule(inst)
    t = schedule.reach(VARIANCE_SWEEP_CAP - 1)
    return schedule.vv[t], schedule.A, t + 1


def _run_message_passing(
    inst: SystemInstance,
    y: np.ndarray,
    relax: RelaxationChoice | None,
    *,
    eps: float | None,
    max_iter: int,
    truth: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
) -> DetectionResult:
    """Shared engine for plain (w=1) and relaxed (w != 1) message passing.

    ``relax`` is a checked relaxation choice, or None for the plain w = 1.
    Rank-1 fast path: user-side messages are edge-independent, so the state
    is one mean vector ``ev`` and one variance vector ``vv``. Relaxation
    scales the system by sqrt(w) in the mean updates and adds a
    (w-1)-weighted memory term; the variance recursion is identical for
    every w. The scaling is carried by vectors, not by the channel:
    ``r = y - H ev`` and ``ev' = vv w (A^T r + u ev) - (w-1) ev`` with
    ``A = H / V`` the same for every w, which never forms the sum-to-user
    means. ``w == 1.0`` runs the exact same statements with the factor w
    and the memory term skipped, so a w=1 run is bit-identical to the
    plain detector.

    Iteration ``t`` replays (or sweeps and records) step ``t - 1`` of the
    instance's variance schedule, which also returns ``A^T r`` summed over
    its cache-sized row blocks of ``A = H / V``. A replayed step cycles
    its blocks through one row-block buffer of the run's own; a swept step
    writes the schedule's (M, K) buffer, and the settled step is read from
    there, not computed again. Once the sweeps settle, the schedule's
    ``A`` and ``u`` are reused, and an iteration is two full gemv calls
    plus O(K) work. A channel of more than one block sums ``A^T r`` in a
    different order before the weights settle than after, so its estimates
    move in the last digits against an unblocked engine. The weights
    settle within the rounding error of their own sums, so the run stays
    within rounding of sweeping on (about 1e-13 relative at 100x105,
    80 dB, where the recursion contracts slowest).

    ``flops`` is the analytic cost of a standalone run, which sweeps the
    variances itself and scales the system by sqrt(w): a replayed schedule
    is charged in full.
    """
    w = 1.0 if relax is None else float(relax.w)
    H = inst.channel
    M, K = H.shape
    if not inst.noise_var > 0:
        raise ValueError("message passing requires positive noise variance")
    _require_finite(inst.prior.variances, "message passing: prior variances")
    _require_finite(y, length=inst.dims.n_antennas)
    if eps is not None and not eps >= 0:  # eps = 0 turns the stop off
        raise ValueError("eps must be non-negative")

    # The first sweep only installs the prior (means stay zero), so the
    # step-change test is armed from the second sweep onward.
    stop = _stop_rule(y, eps, first=2)
    flops = K * M if w == 1.0 else 2 * K * M + M + 1
    sweep_flops = 8 * K * M + M + K  # a sweep, then A = W o sqrt(w) H

    ev = np.zeros(K)
    ev_prev = None
    vv = np.full(K, np.inf)  # the uninformative state, returned if no iteration runs
    schedule = _schedule(inst)
    block = schedule.block()
    A = None  # the schedule's settled A, once the run reaches it
    trace = IterationTrace()
    terminated = Termination.MAX_ITERATIONS

    for t in range(1, max_iter + 1):
        r = y - H @ ev
        if A is not None:
            Ar = A.T @ r
        else:
            settled, Ar = schedule.step(t - 1, r, block)
            if settled:
                A = schedule.A
            u, vv = schedule.u[t - 1], schedule.vv[t - 1]
            vw = vv if w == 1.0 else w * vv
            mean_var = float(np.mean(vv))
            flops += (sweep_flops if t > 1 else 0) + (2 * K if w == 1.0 else 3 * K)
        g = Ar + u * ev
        ev_new = vw * g if w == 1.0 else vw * g - (w - 1.0) * ev
        change, verdict = stop(t, ev_new - ev, ev_new)
        flops += 4 * K * M + M + (5 * K if w == 1.0 else 7 * K)
        ev_prev, ev = ev, ev_new

        trace.append(
            t, change, flops, ev, oracle=oracle, truth=truth, mean_variance=mean_var
        )
        if verdict is not None:
            terminated = verdict
            break

    return DetectionResult(
        estimate=ev,
        posterior_var=vv,
        iterations=len(trace),
        flops=flops,
        terminated=terminated,
        trace=trace,
        relax=relax,
        previous_estimate=ev_prev,
    )


def gmpid_detect(
    inst: SystemInstance,
    y: np.ndarray,
    *,
    eps: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
    truth: np.ndarray | None = None,
    oracle: np.ndarray | None = None,
) -> DetectionResult:
    """Iterative Gaussian message-passing detection (plain, unrelaxed).

    Stops when the max-norm mean change falls below ``eps`` (default
    ``1e-8 * (1 + ||y||_inf)``; ``eps=0`` turns the stop off, a negative or
    NaN ``eps`` raises ValueError), the iteration budget runs out, or the
    estimate grows past the divergence threshold. A ``y`` that is not a
    finite vector of length M raises ValueError. ``truth`` / ``oracle``
    optionally enable per-iteration MSE / oracle-gap trace columns. The
    result's ``relax`` is None.
    """
    return _run_message_passing(
        inst, y, None, eps=eps, max_iter=max_iter, truth=truth, oracle=oracle
    )

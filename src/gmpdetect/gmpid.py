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

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import _native
from .model import SystemInstance, _read_only, _require_finite
from .results import (
    DEFAULT_MAX_ITER, DetectionResult, IterationTrace, RelaxationChoice, Termination,
    _stop_rule,
)

VARIANCE_SWEEP_CAP = 5000  # the variance schedule settles by this sweep at the latest
_BLOCK_ENTRIES = 2**16  # float64 entries per row block of a schedule step: 512 KiB


@dataclass(frozen=True)
class VarianceFixedPoint:
    """Closed-form limit of the message variances (homogeneous prior).

    ``sigma_hat_sq`` is the limiting per-user output variance,
    ``sigma_tilde_sq`` the limiting sum-node message variance, and
    ``gamma`` their ratio (bounded by 1/K). ``slope`` is ``M K gamma^2``,
    the factor by which the recursion, linearized at this limit, shrinks
    the user weights' move each sweep. ``asymptote`` is the large-system
    limit of sigma_hat_sq for the instance's load regime.
    """

    sigma_hat_sq: float
    sigma_tilde_sq: float
    gamma: float
    slope: float
    asymptote: float
    asymptote_regime: str  # "underloaded" (K<M), "critical" (K=M), "overloaded"


def variance_fixed_point(inst: SystemInstance) -> VarianceFixedPoint:
    """Closed-form variance limit for a homogeneous prior.

    Solves the scalar quadratic satisfied by the limiting output variance
    and reports the companion sum-node variance, their ratio, and the
    large-system asymptote for the instance's load regime. Zero noise
    raises ValueError, as it does for every reader of the variance schedule.
    """
    if not inst.prior.is_homogeneous:
        raise ValueError("variance_fixed_point requires a homogeneous prior")
    s = inst.noise_var
    if not s > 0:
        raise ValueError("variance_fixed_point requires positive noise variance")
    sx = float(inst.prior.variances[0])
    K, M = inst.dims.n_users, inst.dims.n_antennas

    # The positive root of (K/sx) v^2 + b v - s = 0, in the form that adds
    # two terms of one sign for either sign of b; M - K first keeps s at K = M.
    b = (M - K) + s / sx
    root = np.sqrt(b * b + 4.0 * (K / sx) * s)
    sigma_hat_sq = 2.0 * s / (b + root) if b > 0 else (root - b) / (2.0 * K / sx)
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
        slope=float(M * K * gamma**2),
        asymptote=float(asymptote),
        asymptote_regime=regime,
    )


def _address(a: np.ndarray) -> int:
    """The address of ``a``'s first entry, for the compiled loops.

    Read from the array interface: each ``a.ctypes`` leaves a few bytes
    behind in the traced memory the schedule is measured by.
    """
    return a.__array_interface__["data"][0]


class _VarianceSchedule:
    """The message-variance recursion of one instance, recorded as far as stepped.

    The variances depend on neither ``y``, the means nor the relaxation
    factor, so one schedule serves every consumer of the instance. Step
    ``t`` records ``K + M`` floats: the user weight sums ``u[t] = sum_m H
    o A`` and the sum-node totals ``c[t] = H^2 vv[t-1] + noise_var`` (M,).
    Each reader forms the user variances ``vv[t] = 1/(u[t] + 1/prior)``
    from ``u[t]``. ``c[t]`` and ``vv[t-1]`` fix the step's sum-node
    variances ``V = c[t] - H^2 o vv[t-1]`` and the engine's matrix
    ``A = H / V``. Step 0 is the all-infinite start, ``A == 0``. The
    schedule settles at the first step whose user weights
    ``pw = u + 1/prior`` each moved from the step before by at most
    ``M 2^-53 pw``, the worst-case rounding error of the M-term sum behind
    ``u``, or repeat bitwise those of any earlier step, found by a hash of
    each step's weights. The repeat test catches rounding cycles wider
    than that bound (at M <= 2, mostly): a sweep reads only the user
    weights, so repeated weights cycle forever. A schedule that neither
    test settles settles at step ``VARIANCE_SWEEP_CAP - 1``. That step is
    ``settle``, the last one recorded.

    :meth:`step` computes ``A`` in row blocks of ``_BLOCK_ENTRIES`` entries
    (``max(1, _BLOCK_ENTRIES // K)`` rows), small enough to stay in cache,
    each written in turn into a row-block buffer that the caller owns.
    Each block forms its rows of ``A`` from its own rows of ``H`` (``H[rows]
    * H[rows]`` is ``H^2[rows]`` bit for bit) and, while in cache, also
    feeds its share of the engine's ``A^T r`` and, in a sweep, of ``c`` and
    ``u``; the block shares of ``A^T r`` and ``u`` are summed in block
    order. Only a step past the recorded end runs the square and gemv for
    ``c``, the reduction and the settle test; a recorded step is replayed
    by the same statements, so it is the swept step bit for bit. Where one
    block covers the channel (``M K <= _BLOCK_ENTRIES``) every sum is the
    unblocked one. Where :func:`_native.load` gives the compiled loops, a
    block's ``A`` is formed by one loop instead of four element-wise numpy
    passes (square, scale, subtract, divide), a sweep's square by
    another, and at K >= 2 the sweep's loop also sums ``u`` row after row,
    the order of the einsum it stands in for (at K = 1 einsum sums in
    another order and keeps ``u``): the same operations in the same order,
    so the same bits.

    The schedule keeps a reference to the channel, not a copy of it, and
    one (M, K) buffer ``A``, which has one writer: the settle pass, run
    right after the sweep that settles, replays the settled step through
    :meth:`step` into it, each block into its own rows, and makes it
    read-only. The engine's frozen phase and the measured spectrum read it
    in place. Zero noise raises ValueError for every reader.
    """

    def __init__(self, inst: SystemInstance):
        if not inst.noise_var > 0:
            raise ValueError("message passing requires positive noise variance")
        self.H = inst.channel
        self.A = np.zeros(inst.channel.shape)  # the settled step's A, once settled
        self.s, self.px = inst.noise_var, inst.prior.precisions
        self.u, self.c = [], [None]
        self.settle: int | None = None  # index of the settled step, once reached
        self._rtol = inst.dims.n_antennas * 2.0**-53  # rounding bound of u's sum
        self._seen: dict[int, list[int]] = {}  # the steps, by the hash of their user weights
        self._base = _address(self.H)  # for the compiled loops: C-contiguous float64
        self._record(np.zeros(inst.dims.n_users))

    def _record(self, u: np.ndarray) -> None:
        pw = u + self.px
        bits = pw.tobytes()
        steps = self._seen.setdefault(hash(bits), [])
        last = self.u[-1] + self.px if self.u else np.inf  # the last step's user weights
        # A hash match is a repeat only if the weights, rebuilt from u, match bitwise.
        settled = any((self.u[i] + self.px).tobytes() == bits for i in steps) or (
            abs(pw - last) <= self._rtol * pw
        ).all()
        if settled or len(self.u) == VARIANCE_SWEEP_CAP - 1:
            self.settle = len(self.u)
        steps.append(len(self.u))
        u.flags.writeable = False
        self.u.append(u)

    def _rows(self) -> int:
        return max(1, _BLOCK_ENTRIES // self.H.shape[1])

    def block(self) -> np.ndarray:
        """A new buffer of one row block, for the computed steps of one run."""
        M, K = self.H.shape
        return np.empty((min(M, self._rows()), K))

    def reach(self, t: int) -> int:
        """Sweep until step ``t`` is recorded or the schedule settles; return
        ``t``, or the settled step if that comes first."""
        block = self.block()
        while self.settle is None and len(self.u) <= t:
            self.step(len(self.u), None, block)
        return min(t, len(self.u) - 1)

    def step(
        self, t: int, r: np.ndarray | None, out: np.ndarray
    ) -> tuple[bool, np.ndarray | None]:
        """Compute ``A = H / V`` of step ``t``, replaying a recorded step or
        sweeping and recording step ``len(self.u)``.

        Returns whether ``t`` is the settled step and, given ``r`` (M,),
        ``A^T r`` (K,). Every computed step writes each block in turn into
        the leading rows of ``out``, a buffer from :meth:`block`, or into
        its own rows where ``out`` is ``self.A``: the settle pass, which
        replays the settled step there. Otherwise the settled step is read
        from ``self.A``, not computed again. Step 0 writes nothing: its
        ``A`` is 0.
        """
        sweep = t == len(self.u)
        M, K = self.H.shape
        if t == 0:
            return t == self.settle, None if r is None else np.zeros(K)
        n = self._rows()
        starts = range(0, M, n)
        Ar = None if r is None else np.empty((len(starts), K))
        vv = 1.0 / (self.u[t - 1] + self.px)  # formed once for every block
        if sweep:
            self.c.append(np.empty(M))
            u = np.zeros((len(starts), K))
        kept = t == self.settle and out is not self.A  # read from self.A, not formed again
        if kept:
            out = self.A
        native = None if kept else _native.load()
        # The loop sums u row after row, einsum's order from K = 2 (not at K = 1).
        fused = sweep and native is not None and K > 1
        if native is not None:  # row 0's addresses: row lo lies 8 lo K bytes on (of c, 8 lo)
            c0, vv0, out0 = _address(self.c[t]), _address(vv), _address(out)
            u0 = _address(u) if fused else None
        for i, lo in enumerate(starts):
            rows = slice(lo, lo + n)
            at = lo if out is self.A else 0
            A = out[at : at + min(n, M - lo)]
            if native is not None:
                h, c, a = self._base + 8 * lo * K, c0 + 8 * lo, out0 + 8 * at * K
            if native is None and not kept:  # the square H[rows]^2, read by c[t] and V
                np.multiply(self.H[rows], self.H[rows], out=A)
            elif sweep:
                native.square(h, a, A.size)
            if sweep:  # c[t][rows] from the block's square
                total = np.matmul(A, vv, out=self.c[t][rows])
                total += self.s
            if native is not None:
                if fused:
                    native.sum_node_sweep(h, c, vv0, a, u0 + 8 * i * K, len(A), K)
                else:
                    native.sum_node_block(h, c, vv0, a, len(A), K)
            elif not kept:  # V = c[t] - H^2 o vv[t-1], then A = H / V
                A *= vv
                np.subtract(self.c[t][rows, None], A, out=A)
                np.divide(self.H[rows], A, out=A)
            if r is not None:
                np.matmul(A.T, r[rows], out=Ar[i])
            if sweep and not fused:
                np.einsum("mk,mk->k", self.H[rows], A, out=u[i])
        if sweep:
            self._record(u.sum(axis=0))
            if t == self.settle:  # the settle pass
                self.step(t, None, self.A)
                self.A.flags.writeable = False
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
    run. ``A`` is read-only: the schedule's own settled buffer, written
    once when the sweeps settle and read by detector runs on the instance
    too, so no new (M, K) array is built; the sweeps themselves run
    through one row block. The sweeps are recorded on the instance, so
    later calls and detector runs on it replay them instead of sweeping
    again.
    """
    schedule = _schedule(inst)
    t = schedule.reach(VARIANCE_SWEEP_CAP - 1)
    return _read_only(1.0 / (schedule.u[t] + schedule.px)), schedule.A, t + 1


def _run_message_passing(
    inst: SystemInstance,
    y: np.ndarray,
    relax: RelaxationChoice | Callable[[SystemInstance], RelaxationChoice] | None,
    *,
    eps: float | None,
    max_iter: int,
    truth: np.ndarray | None = None,
) -> DetectionResult:
    """Shared engine for plain (w=1) and relaxed (w != 1) message passing.

    ``relax`` is a checked relaxation choice, None for the plain w = 1, or
    a function that measures one on the instance (``auto_relaxation``),
    called only once ``y``, ``truth`` and ``eps`` have passed their checks.
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
    its cache-sized row blocks of ``A = H / V``. A replayed or swept step
    cycles its blocks through one row-block buffer of the run's own; the
    settled step is read from the schedule's (M, K) buffer, not computed
    again. Once the sweeps settle, the schedule's ``A`` and ``u`` are
    reused, and an iteration is two full gemv calls plus O(K) work. A
    channel of more than one block sums ``A^T r`` in a different order
    before the weights settle than after, so its estimates move in the
    last digits against an unblocked engine. The weights
    settle within the rounding error of their own sums, so the run stays
    within rounding of sweeping on (about 1e-13 relative at 100x105,
    80 dB, where the recursion contracts slowest).

    ``flops`` is the analytic cost of a standalone run, which sweeps the
    variances itself and scales the system by sqrt(w): a replayed schedule
    is charged in full.
    """
    H = inst.channel
    M, K = H.shape
    _require_finite(y, length=inst.dims.n_antennas)
    if truth is not None:
        _require_finite(truth, "truth", length=K)
    # The first sweep only installs the prior (means stay zero), so the
    # step-change test is armed from the second sweep onward.
    stop = _stop_rule(y, eps, first=2)
    if callable(relax):  # it sweeps the schedule: only for inputs that passed
        relax = relax(inst)
    w = 1.0 if relax is None else float(relax.w)
    schedule = _schedule(inst)
    flops = K * M if w == 1.0 else 2 * K * M + M + 1
    # A sweep: H o H (KM), c = (H o H) vv + s (2KM + M), V = c - (H o H) o vv
    # (2KM), A = H / V (KM), u = the column sums of H o A (2KM) and the
    # division of vv = 1 / (u + 1/prior) (K).
    sweep_flops = 8 * K * M + M + K

    ev = np.zeros(K)
    ev_prev = None
    vv = np.full(K, np.inf)  # the uninformative state, returned if no iteration runs
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
            u = schedule.u[t - 1]
            vv = 1.0 / (u + schedule.px)
            vw = vv if w == 1.0 else w * vv
            mean_var = float(np.mean(vv))
            flops += (sweep_flops if t > 1 else 0) + (2 * K if w == 1.0 else 3 * K)
        g = Ar + u * ev
        ev_new = vw * g if w == 1.0 else vw * g - (w - 1.0) * ev
        change, verdict = stop(t, ev_new - ev, ev_new)
        flops += 4 * K * M + M + (5 * K if w == 1.0 else 7 * K)
        ev_prev, ev = ev, ev_new

        trace.append(change, flops, ev, truth=truth, mean_variance=mean_var)
        if verdict is not None:
            terminated = verdict
            break

    return DetectionResult(
        estimate=ev,
        posterior_var=vv,
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
) -> DetectionResult:
    """Iterative Gaussian message-passing detection (plain, unrelaxed).

    Stops when the max-norm mean change falls below ``eps`` (default
    ``1e-8 * (1 + ||y||_inf)``; ``eps=0`` turns the stop off, a negative or
    NaN ``eps`` raises ValueError), the iteration budget runs out, or the
    estimate grows past the divergence threshold. A ``y`` that is not a
    finite vector of length M, or a ``truth`` not one of length K, raises
    ValueError. ``truth`` enables the per-iteration ``mse_to_truth`` trace
    column. The result's ``relax`` is None.
    """
    return _run_message_passing(inst, y, None, eps=eps, max_iter=max_iter, truth=truth)

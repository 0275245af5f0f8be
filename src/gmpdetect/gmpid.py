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

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import _native
from .model import SystemInstance, _read_only, _require_finite
from .results import DEFAULT_MAX_ITER, DetectionResult, RelaxationChoice, _Run

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

    :meth:`blocks` gives a step's ``A`` in cache-sized row blocks of
    ``_BLOCK_ENTRIES`` entries; the block shares of ``u``, like the
    engine's of ``A^T r``, are summed in block order, the unblocked sums
    where one block covers the channel. A replayed step runs its sweep's
    statements, so it is the swept step bit for bit. The schedule keeps a
    reference to the channel and one (M, K) buffer ``A``, written once by
    the settle pass and read in place by the engine's frozen phase and the
    measured spectrum. Zero noise raises ValueError for every reader.
    """

    def __init__(self, inst: SystemInstance):
        if not inst.noise_var > 0:
            raise ValueError("message passing requires positive noise variance")
        self.H = inst.channel
        M, K = inst.channel.shape
        self.A = np.zeros((M, K))  # the settled step's A, once settled
        self.s, self.px = inst.noise_var, inst.prior.precisions
        self.u, self.c = [], [None]
        self.settle: int | None = None  # index of the settled step, once reached
        self.starts = range(0, M, max(1, _BLOCK_ENTRIES // K))  # each row block's first row
        self._rtol = M * 2.0**-53  # rounding bound of u's sum
        self._seen: dict[int, list[int]] = {}  # the steps, by the hash of their user weights
        self._base = _address(self.H)  # for the compiled loops: C-contiguous float64
        self._record(np.zeros(K))

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

    def block(self) -> np.ndarray:
        """A new buffer of one row block, for the computed steps of one run."""
        return np.empty_like(self.H[: self.starts.step])

    def reach(self, t: int) -> int:
        """Sweep until step ``t`` is recorded or the schedule settles; return
        ``t``, or the settled step if that comes first."""
        block = self.block()
        while self.settle is None and len(self.u) <= t:
            for _ in self.blocks(len(self.u), block):
                pass
        return min(t, len(self.u) - 1)

    def blocks(self, t: int, out: np.ndarray) -> Iterator[tuple[slice, np.ndarray]]:
        """Yield ``(rows, A)``, those rows of step ``t``'s ``A = H / V``, for
        each row block in order. Step 0 (``A`` is 0) yields nothing, the
        settled step views of ``self.A``. Another recorded step is replayed,
        and step ``len(self.u)`` swept, into the leading rows of ``out``, a
        buffer from :meth:`block`; a sweep records its step after its last
        block and, if that step settles, runs the settle pass: the same
        statements into ``self.A``'s rows, which it then makes read-only."""
        if t == 0:
            return
        if t == self.settle:
            for lo in self.starts:
                yield slice(lo, lo + self.starts.step), self.A[lo : lo + self.starts.step]
            return
        if t < len(self.u):
            yield from self._formed(t, out, self.c[t])
            return
        M, K = self.H.shape
        c, u = np.empty(M), np.zeros((len(self.starts), K))
        yield from self._formed(t, out, c, u)
        self.c.append(c)
        self._record(u.sum(axis=0))
        if t == self.settle:  # the settle pass
            for _ in self._formed(t, self.A, c, own_rows=True):
                pass
            self.A.flags.writeable = False

    def _formed(self, t: int, out: np.ndarray, c: np.ndarray, u=None, own_rows=False):
        """Form step ``t``'s ``A`` from the totals ``c`` into the leading rows
        of ``out`` (with ``own_rows``, its own rows), yielding each block as
        :meth:`blocks` does; a sweep, given ``u``, also writes ``c[rows]``
        from each block's square and row ``i`` of ``u``. The compiled loops,
        where they load, form ``A`` in one pass for numpy's four, a sweep's
        square in another, and from K = 2 sum ``u`` in einsum's row order:
        the same bits. The path and the loops' addresses are read once a step.
        """
        H, n = self.H, self.starts.step
        M, K = H.shape
        vv = 1.0 / (self.u[t - 1] + self.px)  # formed once for every block
        native = _native.load()
        fused = u is not None and native is not None and K > 1
        if native is not None:  # row 0's addresses: row lo lies 8 lo K bytes on (of c, 8 lo)
            c0, vv0, out0 = _address(c), _address(vv), _address(out)
            u0 = _address(u) if fused else None
        for i, lo in enumerate(self.starts):
            rows = slice(lo, lo + n)
            at = lo if own_rows else 0
            A = out[at : at + min(n, M - lo)]
            if native is not None:
                h, ci, a = self._base + 8 * lo * K, c0 + 8 * lo, out0 + 8 * at * K
            if native is None:  # the square H[rows]^2, read by c[t] and V
                np.multiply(H[rows], H[rows], out=A)
            elif u is not None:
                native.square(h, a, A.size)
            if u is not None:  # c[t][rows] from the block's square
                total = np.matmul(A, vv, out=c[rows])
                total += self.s
            if fused:
                native.sum_node_sweep(h, ci, vv0, a, u0 + 8 * i * K, len(A), K)
            elif native is not None:
                native.sum_node_block(h, ci, vv0, a, len(A), K)
            else:  # V = c[t] - H^2 o vv[t-1], then A = H / V
                A *= vv
                np.subtract(c[rows, None], A, out=A)
                np.divide(H[rows], A, out=A)
            if u is not None and not fused:
                np.einsum("mk,mk->k", H[rows], A, out=u[i])
            yield rows, A


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


def _message_run(inst: SystemInstance, y: np.ndarray, eps: float | None, max_iter: int,
                 truth: np.ndarray | None) -> _Run:
    """Check ``y`` and build the record of one message-passing run on ``inst``,
    which checks ``truth``, ``eps`` and ``max_iter`` and keeps the budget."""
    _require_finite(y, length=inst.dims.n_antennas)
    # The first sweep only installs the prior (means stay zero), so the
    # step-change test is armed from the second sweep onward.
    return _Run(y, eps, max_iter, 2, inst.dims.n_users, truth)


def _run_message_passing(
    inst: SystemInstance, y: np.ndarray, relax: RelaxationChoice | None, run: _Run
) -> DetectionResult:
    """Shared engine for plain (w=1) and relaxed (w != 1) message passing.

    ``run`` is the checked record of :func:`_message_run` for ``y``, and
    ``relax`` a resolved relaxation choice, or None for the plain w = 1.
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
    instance's variance schedule through a row block of the run's own,
    summing the blocks' shares of ``A^T r`` in block order; once the
    sweeps settle, an iteration is two full gemv calls plus O(K) work.
    There a multi-block channel sums ``A^T r`` unblocked, another order,
    which stays within rounding of sweeping on (about 1e-13 relative at
    100x105, 80 dB, where the recursion contracts slowest).

    ``flops`` is the analytic cost of a standalone run, which sweeps the
    variances itself and scales the system by sqrt(w): a replayed schedule
    is charged in full.
    """
    H = inst.channel
    M, K = H.shape
    w = 1.0 if relax is None else float(relax.w)
    schedule = _schedule(inst)
    run.flops = K * M if w == 1.0 else 2 * K * M + M + 1
    # A sweep: H o H (KM), c = (H o H) vv + s (2KM + M), V = c - (H o H) o vv
    # (2KM), A = H / V (KM), u = the column sums of H o A (2KM) and the
    # division of vv = 1 / (u + 1/prior) (K).
    sweep_flops = 8 * K * M + M + K
    mean_flops = 4 * K * M + M + (5 * K if w == 1.0 else 7 * K)

    ev = np.zeros(K)
    ev_prev = None
    vv = np.full(K, np.inf)  # the uninformative state, returned if no iteration runs
    block = schedule.block()
    parts = np.zeros((len(schedule.starts), K))  # each block's A^T r; 0 at step 0
    A = None  # the schedule's settled A, once the run reaches it

    for t in range(1, run.max_iter + 1):
        r = y - H @ ev
        flops = mean_flops
        if A is not None:
            Ar = A.T @ r
        else:
            for i, (rows, block_A) in enumerate(schedule.blocks(t - 1, block)):
                np.matmul(block_A.T, r[rows], out=parts[i])
            Ar = parts.sum(axis=0)
            if t - 1 == schedule.settle:
                A = schedule.A
            u = schedule.u[t - 1]
            vv = 1.0 / (u + schedule.px)
            vw = vv if w == 1.0 else w * vv
            mean_var = float(np.mean(vv))
            flops += (sweep_flops if t > 1 else 0) + (2 * K if w == 1.0 else 3 * K)
        g = Ar + u * ev
        ev_prev, ev = ev, (vw * g if w == 1.0 else vw * g - (w - 1.0) * ev)
        if run.step(t, ev_prev, ev, flops, mean_var):
            break

    return run.result(ev, posterior_var=vv, relax=relax, previous_estimate=ev_prev)


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
    ``1e-8 * (1 + ||y||_inf)``; ``eps=0`` turns the stop off, a negative,
    NaN or infinite ``eps`` raises ValueError), the iteration budget runs
    out, or the estimate grows past the divergence threshold. A ``y`` that
    is not a finite vector of length M, a ``truth`` not one of length K,
    or a ``max_iter`` that is not a non-negative integer raises
    ValueError. ``truth`` enables the per-iteration ``mse_to_truth`` trace
    column. The result's ``relax`` is None.
    """
    return _run_message_passing(inst, y, None, _message_run(inst, y, eps, max_iter, truth))

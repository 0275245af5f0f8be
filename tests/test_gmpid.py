"""Tests for the iterative Gaussian message-passing detector: the two edge
updates of the node-level reference (``node_reference``), the closed-form
variance limit, and the detection loop against that reference."""

import contextlib
import gc
import tracemalloc
import warnings
import weakref
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmpdetect import (
    DetectionResult,
    RelaxationChoice,
    SourcePrior,
    SystemDims,
    SystemInstance,
    Termination,
    auto_relaxation,
    build_instance,
    gmpid_detect,
    gmpid_mean_convergence_report,
    matched_filter_detect,
    mmse_detect,
    realize,
    run_detector,
    sagmpid_convergence_report,
    sagmpid_detect,
    variance_fixed_point,
    variance_recursion,
)
from gmpdetect import _native, gmpid
from gmpdetect.gmpid import VARIANCE_SWEEP_CAP
from gmpdetect.harness import DETECTORS
from node_reference import MessageState, message_state, sum_node_update, variable_node_update


def _instance(H, noise_var, prior_var=1.0):
    H = np.asarray(H, dtype=float)
    M, K = H.shape
    variances = np.broadcast_to(np.asarray(prior_var, dtype=float), (K,)).copy()
    return SystemInstance(
        dims=SystemDims(n_users=K, n_antennas=M),
        channel=H,
        prior=SourcePrior(variances=variances),
        noise_var=noise_var,
    )


def _naive_sum_update(state, inst, y):
    """O(K^2 M) double-loop oracle for the antenna-side update."""
    H = inst.channel
    M, K = H.shape
    E_su = np.zeros((M, K))
    V_su = np.zeros((M, K))
    for m in range(M):
        for k in range(K):
            E_su[m, k] = y[m] - sum(
                H[m, i] * state.user_to_sum_mean[i, m] for i in range(K) if i != k
            )
            V_su[m, k] = inst.noise_var + sum(
                H[m, i] ** 2 * state.user_to_sum_var[i, m] for i in range(K) if i != k
            )
    return E_su, V_su


def _naive_variable_update(state, inst):
    """O(KM) double-loop oracle for the user-side update."""
    H = inst.channel
    M, K = H.shape
    ev = np.zeros(K)
    vv = np.zeros(K)
    for k in range(K):
        u = sum(H[i, k] ** 2 / state.sum_to_user_var[i, k] for i in range(M))
        vv[k] = 1.0 / (u + inst.prior.precisions[k])
        ev[k] = vv[k] * sum(
            H[i, k] * state.sum_to_user_mean[i, k] / state.sum_to_user_var[i, k]
            for i in range(M)
        )
    return ev, vv


# ---------------------------------------------------------------------------
# Antenna-side (sum node) update
# ---------------------------------------------------------------------------


def test_sum_update_hand_arithmetic():
    inst = _instance([[1.0, 1.0]], noise_var=0.1)
    state = MessageState(
        user_to_sum_mean=np.array([[1.0], [1.0]]),
        user_to_sum_var=np.array([[0.5], [0.5]]),
        sum_to_user_mean=np.zeros((1, 2)),
        sum_to_user_var=np.full((1, 2), np.inf),
    )
    out = sum_node_update(state, inst, np.array([3.0]))
    assert out.sum_to_user_mean[0, 0] == pytest.approx(2.0)
    assert out.sum_to_user_var[0, 0] == pytest.approx(0.6)


def test_sum_update_from_initial_state_passes_observation_with_no_information():
    inst = build_instance(3, 5, snr_db=10.0, channel_seed=0)
    y = np.arange(1.0, 6.0)
    out = sum_node_update(MessageState.initial(inst.dims), inst, y)
    np.testing.assert_allclose(out.sum_to_user_mean, y[:, None] * np.ones((1, 3)))
    assert np.all(np.isinf(out.sum_to_user_var))


def test_sum_update_matches_double_loop_oracle():
    rng = np.random.default_rng(77)
    inst = build_instance(5, 7, snr_db=6.0, channel_seed=78)
    state = MessageState(
        user_to_sum_mean=rng.standard_normal((5, 7)),
        user_to_sum_var=rng.uniform(0.1, 2.0, size=(5, 7)),
        sum_to_user_mean=np.zeros((7, 5)),
        sum_to_user_var=np.ones((7, 5)),
    )
    y = rng.standard_normal(7)
    out = sum_node_update(state, inst, y)
    E_ref, V_ref = _naive_sum_update(state, inst, y)
    np.testing.assert_allclose(out.sum_to_user_mean, E_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.sum_to_user_var, V_ref, rtol=1e-12)


def test_sum_update_single_infinite_peer_poisons_only_other_edges():
    # User 0 carries an uninformative message: every other user's incoming
    # variance on that antenna is infinite, user 0's own stays finite.
    inst = build_instance(3, 2, snr_db=10.0, channel_seed=1)
    V_us = np.full((3, 2), 0.5)
    V_us[0, :] = np.inf
    state = MessageState(
        user_to_sum_mean=np.zeros((3, 2)),
        user_to_sum_var=V_us,
        sum_to_user_mean=np.zeros((2, 3)),
        sum_to_user_var=np.ones((2, 3)),
    )
    out = sum_node_update(state, inst, np.zeros(2))
    assert np.all(np.isfinite(out.sum_to_user_var[:, 0]))
    assert np.all(np.isinf(out.sum_to_user_var[:, 1:]))


def test_sum_update_variance_never_below_noise_floor():
    inst = build_instance(4, 6, snr_db=3.0, channel_seed=9)
    real = realize(inst, 10)
    state = MessageState.initial(inst.dims)
    for _ in range(5):
        state = sum_node_update(state, inst, real.received)
        assert np.all(state.sum_to_user_var >= inst.noise_var)
        state = variable_node_update(state, inst)


# ---------------------------------------------------------------------------
# User-side (variable node) update
# ---------------------------------------------------------------------------


def test_variable_update_with_no_information_returns_prior():
    inst = build_instance(3, 4, snr_db=10.0, channel_seed=2)
    state = sum_node_update(MessageState.initial(inst.dims), inst, np.ones(4))
    out = variable_node_update(state, inst)
    np.testing.assert_array_equal(out.user_to_sum_mean, np.zeros((3, 4)))
    np.testing.assert_allclose(out.user_to_sum_var, 1.0)


def test_variable_update_hand_arithmetic():
    inst = _instance([[2.0]], noise_var=0.1)
    state = MessageState(
        user_to_sum_mean=np.zeros((1, 1)),
        user_to_sum_var=np.ones((1, 1)),
        sum_to_user_mean=np.array([[1.0]]),
        sum_to_user_var=np.array([[1.0]]),
    )
    out = variable_node_update(state, inst)
    assert out.user_to_sum_var[0, 0] == pytest.approx(0.2)
    assert out.user_to_sum_mean[0, 0] == pytest.approx(0.4)


def test_variable_update_matches_double_loop_oracle():
    rng = np.random.default_rng(101)
    inst = build_instance(5, 7, snr_db=6.0, channel_seed=102)
    state = MessageState(
        user_to_sum_mean=np.zeros((5, 7)),
        user_to_sum_var=np.ones((5, 7)),
        sum_to_user_mean=rng.standard_normal((7, 5)),
        sum_to_user_var=rng.uniform(0.2, 3.0, size=(7, 5)),
    )
    out = variable_node_update(state, inst)
    ev_ref, vv_ref = _naive_variable_update(state, inst)
    np.testing.assert_allclose(out.user_to_sum_mean[:, 0], ev_ref, rtol=1e-12)
    np.testing.assert_allclose(out.user_to_sum_var[:, 0], vv_ref, rtol=1e-12)


def test_variable_update_outputs_are_constant_across_antennas():
    inst = build_instance(4, 9, snr_db=8.0, channel_seed=3)
    real = realize(inst, 4)
    state = MessageState.initial(inst.dims)
    for _ in range(3):
        state = sum_node_update(state, inst, real.received)
        state = variable_node_update(state, inst)
    assert np.ptp(state.user_to_sum_mean, axis=1).max() == 0.0
    assert np.ptp(state.user_to_sum_var, axis=1).max() == 0.0


def test_variable_update_variance_bounded_by_prior_and_positive():
    inst = build_instance(6, 12, snr_db=5.0, channel_seed=5)
    real = realize(inst, 6)
    state = MessageState.initial(inst.dims)
    for _ in range(4):
        state = sum_node_update(state, inst, real.received)
        state = variable_node_update(state, inst)
        assert np.all(state.user_to_sum_var > 0.0)
        assert np.all(state.user_to_sum_var <= inst.prior.variances[:, None] + 1e-15)


def test_variance_monotone_nonincreasing_across_sweeps():
    for sidx in range(5):
        inst = build_instance(8, 24, snr_db=10.0, channel_seed=60 + sidx)
        real = realize(inst, 70 + sidx)
        state = MessageState.initial(inst.dims)
        prev = state.user_to_sum_var.copy()
        for _ in range(15):
            state = sum_node_update(state, inst, real.received)
            state = variable_node_update(state, inst)
            assert np.all(state.user_to_sum_var <= prev + 1e-12)
            prev = state.user_to_sum_var.copy()


def test_reference_variances_are_monotone_and_the_engines_on_criterion_3_draws():
    # Criterion 3 reads the engine's schedule; on its 20 draws the node-level
    # pair's user-to-sum variances are non-increasing too, within the same
    # 1e-12 slack, and the schedule's vv[t] is the reference's after t + 1
    # sweeps (measured within 3.5e-15 relative), held once it settles.
    for s in range(20):
        inst = build_instance(40, 160, snr_db=10.0, channel_seed=7000 + s)
        y = realize(inst, 8000 + s).received
        schedule = gmpid._schedule(inst)
        settle = schedule.reach(29)
        state = MessageState.initial(inst.dims)
        previous = None
        for t in range(30):
            state = sum_node_update(state, inst, y)
            state = variable_node_update(state, inst)
            current = np.asarray(state.user_to_sum_var, dtype=float)
            if previous is not None:
                assert not np.any(current > previous + 1e-12)
            previous = current
            engine = 1.0 / (schedule.u[min(t, settle)] + schedule.px)
            np.testing.assert_allclose(current[:, 0], engine, rtol=1e-14, atol=0)


def test_two_sweeps_from_initial_state_resemble_matched_filter():
    inst = build_instance(4, 32, snr_db=20.0, channel_seed=5)
    real = realize(inst, 6)
    state = MessageState.initial(inst.dims)
    for _ in range(2):
        state = sum_node_update(state, inst, real.received)
        state = variable_node_update(state, inst)
    ev = state.user_to_sum_mean[:, 0]
    mf = matched_filter_detect(inst, real.received).estimate
    cos = float(ev @ mf / (np.linalg.norm(ev) * np.linalg.norm(mf)))
    assert cos > 0.95


# ---------------------------------------------------------------------------
# Closed-form variance limit
# ---------------------------------------------------------------------------


def _scalar_variance_recursion(inst, tol=1e-14, max_iter=100_000):
    """Independent fixed-point oracle: iterate the homogeneous scalar map."""
    K, M = inst.dims.n_users, inst.dims.n_antennas
    sx = float(inst.prior.variances[0])
    s = inst.noise_var
    v = sx
    for _ in range(max_iter):
        v_new = 1.0 / (M / (K * v + s) + 1.0 / sx)
        if abs(v_new - v) < tol:
            return v_new
        v = v_new
    return v


def test_variance_limit_matches_scalar_recursion_oracle():
    inst = build_instance(100, 600, noise_var=0.01, channel_seed=0)
    fp = variance_fixed_point(inst)
    v_ref = _scalar_variance_recursion(inst)
    assert fp.sigma_hat_sq == pytest.approx(v_ref, rel=1e-10)
    assert fp.sigma_tilde_sq == pytest.approx(100 * fp.sigma_hat_sq + 0.01, rel=1e-12)
    assert fp.gamma == pytest.approx(fp.sigma_hat_sq / fp.sigma_tilde_sq, rel=1e-12)


def test_variance_limit_underloaded_asymptote_reached_for_many_antennas():
    inst = build_instance(10, 10**6, noise_var=0.01, channel_seed=0)
    fp = variance_fixed_point(inst)
    assert fp.asymptote_regime == "underloaded"
    assert fp.asymptote == pytest.approx(0.01 / (10**6 - 10 + 0.01), rel=1e-12)
    assert fp.sigma_hat_sq == pytest.approx(fp.asymptote, rel=1e-3)


def test_variance_limit_critical_load_asymptote():
    inst = build_instance(100, 100, noise_var=1.0, channel_seed=0)
    fp = variance_fixed_point(inst)
    assert fp.asymptote_regime == "critical"
    assert fp.asymptote == pytest.approx(0.1, rel=1e-12)


def test_variance_limit_overloaded_asymptote():
    inst = build_instance(200, 100, noise_var=0.01, channel_seed=0)
    fp = variance_fixed_point(inst)
    assert fp.asymptote_regime == "overloaded"
    assert fp.asymptote == pytest.approx((200 - 100) * 1.0 / 200, rel=1e-12)


@pytest.mark.parametrize(
    "shape,snr_db", [((100, 600), 20.0), ((100, 100), 0.0), ((200, 100), 10.0)]
)
def test_variance_limit_ratio_bounded_by_inverse_users(shape, snr_db):
    K, M = shape
    fp = variance_fixed_point(build_instance(K, M, snr_db=snr_db, channel_seed=0))
    assert 0.0 < fp.gamma <= 1.0 / K


def test_variance_limit_rejects_heterogeneous_prior_or_zero_noise():
    base = build_instance(2, 4, snr_db=10.0, channel_seed=0)
    hetero = SystemInstance(
        dims=base.dims,
        channel=base.channel,
        prior=SourcePrior(variances=np.array([1.0, 2.0])),
        noise_var=base.noise_var,
    )
    with pytest.raises(ValueError, match="homogeneous"):
        variance_fixed_point(hetero)
    # At zero noise the ratio gamma would be 0 / 0: it raises, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="positive noise variance"):
            variance_fixed_point(build_instance(4, 8, snr_db=np.inf))


def test_every_schedule_reader_rejects_zero_noise():
    # The schedule checks its instance for every reader, before any
    # arithmetic: no 0/0 warning, no NaN variances, no LinAlgError.
    noiseless = build_instance(4, 12, noise_var=0.0)
    readers = (
        variance_recursion,
        auto_relaxation,
        gmpid_mean_convergence_report,
        sagmpid_convergence_report,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reader in readers:
            with pytest.raises(ValueError, match="^message passing"):
                reader(noiseless)


# ---------------------------------------------------------------------------
# Detection loop
# ---------------------------------------------------------------------------


def test_detect_engine_equals_operation_composition():
    inst = build_instance(6, 15, snr_db=12.0, channel_seed=44)
    real = realize(inst, 45)
    rounds = 9
    state = MessageState.initial(inst.dims)
    for _ in range(rounds):
        state = sum_node_update(state, inst, real.received)
        state = variable_node_update(state, inst)
    out = gmpid_detect(inst, real.received, eps=0.0, max_iter=rounds)
    exit_state = message_state(inst, real.received, out)
    np.testing.assert_allclose(
        exit_state.user_to_sum_mean, state.user_to_sum_mean, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        exit_state.user_to_sum_var, state.user_to_sum_var, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        out.estimate, state.user_to_sum_mean[:, 0], rtol=0, atol=1e-12
    )


def test_detect_engine_matches_composition_past_weight_freeze():
    # 60 rounds run well past the sweep at which the variance weights stop
    # changing, so the iterations that reuse them are checked too.
    inst = build_instance(10, 200, snr_db=12.0, channel_seed=7)
    real = realize(inst, 8)
    state = MessageState.initial(inst.dims)
    for _ in range(60):
        state = sum_node_update(state, inst, real.received)
        state = variable_node_update(state, inst)
    out = gmpid_detect(inst, real.received, eps=0.0, max_iter=60)
    steps = np.diff(out.trace.cum_flops)
    assert steps[-1] < steps[1]  # the last iteration ran no variance sweep
    exit_state = message_state(inst, real.received, out)
    for field in (
        "user_to_sum_mean",
        "user_to_sum_var",
        "sum_to_user_mean",
        "sum_to_user_var",
    ):
        np.testing.assert_allclose(
            getattr(exit_state, field), getattr(state, field), rtol=0, atol=1e-12
        )
    # The freeze comes once every weight moved by at most the rounding
    # bound of its sum, M 2^-53 = 2.2e-14 here; a freeze at a looser
    # tolerance (1e-10, say) leaves the variances off by more than 1e-13.
    np.testing.assert_allclose(
        out.posterior_var, state.user_to_sum_var[:, 0], rtol=1e-13, atol=0
    )


def test_detect_iteration_after_weight_freeze_costs_two_gemv():
    # Swept on, the second channel's weights end in a last-bit 2-cycle, not
    # a bitwise fixed point; the freeze comes on both, at the rounding bound.
    for K, M, snr_db, channel_seed, realization in (
        (50, 300, 12.0, 1, 2),
        (100, 600, 10.0, 2, 102),
    ):
        inst = build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)
        real = realize(inst, realization)
        out = gmpid_detect(inst, real.received, eps=0.0, max_iter=80)
        steps = np.diff(out.trace.cum_flops)
        assert steps[1] > 8 * K * M  # iteration 3 still sweeps the variances
        assert steps[-1] <= 4 * K * M + 10 * (K + M)


def test_replayed_run_allocates_one_buffer():
    # A replayed step writes each row block of A = H / V into the leading
    # rows of the engine's one (M, K) buffer (here one block covers the
    # channel); a temporary of that size would double the peak. The slack
    # covers numpy's 64 KiB iterator buffer for the broadcast passes.
    inst = build_instance(100, 600, snr_db=10.0, channel_seed=2)
    y = realize(inst, 3).received
    gmpid_detect(inst, y, eps=0.0, max_iter=60)  # records the schedule
    tracemalloc.start()
    try:
        out = gmpid_detect(inst, y, eps=0.0, max_iter=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.iterations == 60
    assert peak < inst.channel.nbytes + 128 * 1024


def _kept_arrays(obj, seen):
    """Every array reachable from ``obj`` through containers and attributes."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        if obj.base is not None:
            yield from _kept_arrays(obj.base, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _kept_arrays(value, seen)
    elif isinstance(obj, (list, tuple, set)):
        for value in obj:
            yield from _kept_arrays(value, seen)
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        yield from _kept_arrays(vars(obj), seen)


def test_runs_on_a_multi_block_channel_allocate_one_row_block():
    # 1500 rows in blocks of 327. Once the schedule has settled, a run
    # replays its steps through one row block and reads the settled A from
    # the schedule: no (M, K) array per run. The slack is the one above.
    K, M = 200, 1500
    inst = build_instance(K, M, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    auto_relaxation(inst)
    for detect in (gmpid_detect, sagmpid_detect):
        tracemalloc.start()
        try:
            out = detect(inst, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.terminated is Termination.CONVERGED
        assert peak < gmpid._BLOCK_ENTRIES * 8 + 128 * 1024
    # variance_recursion returns the schedule's settled A itself.
    tracemalloc.start()
    try:
        vv, A, sweeps = variance_recursion(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(A, gmpid._schedule(inst).A)
    assert peak < M * K * 8
    # Besides the channel, the instance keeps one (M, K) array: the
    # schedule's settled A, which the measured spectrum also read.
    large = {
        id(a) for a in _kept_arrays(inst._setup, set())
        if a.base is None and a.nbytes >= M * K * 8
        and not np.shares_memory(a, inst.channel)
    }
    assert len(large) == 1
    settled = gmpid._schedule(inst).A
    assert id(settled) in large and settled.shape == (M, K) and settled.dtype == np.float64
    assert not settled.flags.writeable


def test_schedule_settles_at_the_sweep_cap():
    # Neither the rounding bound nor a bitwise repeat settles this channel
    # (K > M: its variances still fall roughly as 1/t), so its schedule
    # settles at the cap. A longer run freezes its weights there too:
    # it ends on the variances that variance_recursion and auto_relaxation
    # read, whether it ran before them or not.
    def build():
        return build_instance(2, 1, snr_db=200.0, channel_seed=0)

    fresh = build()
    want = auto_relaxation(fresh), variance_recursion(fresh)
    assert want[1][2] == VARIANCE_SWEEP_CAP
    inst = build()
    out = gmpid_detect(inst, np.zeros(1), eps=0.0, max_iter=VARIANCE_SWEEP_CAP + 1000)
    schedule = gmpid._schedule(inst)
    assert out.iterations == VARIANCE_SWEEP_CAP + 1000
    assert len(schedule.u) == VARIANCE_SWEEP_CAP
    assert schedule.settle == VARIANCE_SWEEP_CAP - 1
    got = auto_relaxation(inst), variance_recursion(inst)
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1]):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(out.posterior_var, got[1][0])
    assert np.shares_memory(got[1][1], schedule.A)
    # Iteration VARIANCE_SWEEP_CAP sweeps the settled step; every later
    # one costs the frozen phase's two gemv plus O(K) work.
    K, M = 2, 1
    steps = np.diff(out.trace.cum_flops)
    assert steps[VARIANCE_SWEEP_CAP - 2] > steps[-1]
    assert (steps[VARIANCE_SWEEP_CAP - 1:] == 4 * K * M + M + 5 * K).all()


@pytest.mark.parametrize(
    "K, M, snr_db, channel_seed, settle",
    [(100, 600, 10.0, s, 24) for s in range(4)] + [(100, 105, 80.0, 1016, 610)],
)
def test_schedule_settles_where_it_did(K, M, snr_db, channel_seed, settle):
    # The sweep counts that CI's job summary tracks.
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)
    assert variance_recursion(inst)[2] == settle


def test_the_repeat_test_keeps_no_copy_of_the_user_weights():
    # Per sweep the schedule keeps u and c, K + M floats, and for the repeat
    # test only the hash of the user weights with the steps that gave it:
    # about 440 bytes besides the two arrays' data, with their headers. The
    # bytes of every sweep's weights would add 1,600 bytes a sweep here. In
    # a fresh process the interpreter can also allocate one 0.92 MiB block
    # of its own inside the trace (about 440 bytes a sweep here), which
    # outlives the instance; the 1,024 bytes a sweep leave room for it.
    inst = build_instance(200, 201, snr_db=80.0, channel_seed=0)
    _native.load()  # built once per process, and not the schedule's
    tracemalloc.start()
    try:
        vv, A, sweeps = variance_recursion(inst)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    schedule = gmpid._schedule(inst)
    records = sum(a.nbytes for a in schedule.u + schedule.c[1:])
    assert sweeps == 2167
    assert held < A.nbytes + records + 1024 * sweeps


@pytest.mark.parametrize(
    "K, M, snr_db",
    [(500, 3500, 10.0), (100, 600, 10.0), (50, 200, 0.0), (200, 300, 50.0), (400, 500, 20.0)],
)
def test_the_variance_phase_settles_at_the_linearized_rate(K, M, snr_db):
    # Linearized at its fixed point, the scalar recursion behind
    # variance_fixed_point contracts by M K gamma^2 a sweep, so the user
    # weights pw = u + 1/prior settle to the rounding bound M 2^-53 in
    # about `law` sweeps, plus the transient from the all-infinite start.
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=0)
    sweeps = variance_recursion(inst)[2]
    schedule = gmpid._schedule(inst)
    pw = [u + schedule.px for u in schedule.u]
    moves = [np.max(np.abs(b - a) / b) for a, b in zip(pw, pw[1:])]
    ratios = [b / a for a, b in zip(moves, moves[1:])]
    rate = np.median(ratios[len(ratios) // 2 :])
    slope = variance_fixed_point(inst).slope
    assert abs(rate - slope) <= 0.04 * slope
    law = np.log(M * 2.0**-53) / np.log(slope)
    assert law <= sweeps <= 1.5 * law + 10


def test_variance_recursion_is_the_engine_recursion():
    # Swept on, channels 0 and 1 reach a bitwise fixed point after 30-31
    # sweeps and 2 and 3 a last-bit 2-cycle after 30-33; the rounding
    # bound settles all four earlier, where the engine freezes its weights.
    for channel_seed in range(4):
        inst = build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
        y = realize(inst, 100 + channel_seed).received
        vv, A, sweeps = variance_recursion(inst)
        assert sweeps <= 24
        assert A.shape == (600, 100)
        out = gmpid_detect(inst, y, eps=0.0, max_iter=sweeps + 5)
        np.testing.assert_array_equal(vv, out.posterior_var)


def _blocked(rows, K):
    """Patch the schedule's block budget to ``rows`` rows of K entries."""
    return mock.patch.object(gmpid, "_BLOCK_ENTRIES", rows * K)


def _runs(inst, y):
    return (
        gmpid_detect(inst, y),
        sagmpid_detect(inst, y, RelaxationChoice(w=0.8)),
    )


@pytest.mark.parametrize("rows", [1, 7, 200])
def test_blocked_variance_recursion_is_the_engine_recursion(rows):
    # 600 rows in 600, 86 or 3 blocks: the recursion and the engine step
    # the schedule by the same blocked statements.
    with _blocked(rows, 100):
        for channel_seed in (0, 2):
            inst = build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
            vv, _, sweeps = variance_recursion(inst)
            fresh = build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
            y = realize(fresh, 100 + channel_seed).received
            out = gmpid_detect(fresh, y, eps=0.0, max_iter=sweeps + 5)
            np.testing.assert_array_equal(vv, out.posterior_var)


@pytest.mark.parametrize("rows", [1, 7, 200])
def test_blocked_runs_stay_within_rounding_of_one_block(rows):
    # Blocks change only the order of the sums behind u and A^T r. On these
    # converging channels the estimates and variances stay within 1e-13
    # relative of a one-block run (measured: at most 2.2e-15), with the same
    # iteration counts and verdicts; they are not bitwise equal, which shows
    # the blocks ran.
    for channel_seed in range(4):
        inst = build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
        y = realize(inst, 3).received
        one = _runs(inst, y)
        with _blocked(rows, 100):
            blocked = _runs(
                build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed), y
            )
        moved = 0.0
        for got, want in zip(blocked, one):
            assert (got.iterations, got.terminated) == (want.iterations, want.terminated)
            assert got.terminated is Termination.CONVERGED
            moved = max(
                moved,
                np.max(np.abs(got.estimate - want.estimate)) / np.max(np.abs(want.estimate)),
                np.max(np.abs(got.posterior_var - want.posterior_var) / want.posterior_var),
            )
        assert 0.0 < moved < 1e-13


@pytest.mark.parametrize("K, M", [(128, 512), (100, 600), (7, 3)])
def test_one_block_covering_the_channel_is_the_unblocked_run(K, M):
    # 128 x 512 = 2**16 entries is the largest channel one default block
    # covers. Any budget of at least M*K entries steps it in one block, and
    # then every sum is the unblocked one, bit for bit.
    inst = build_instance(K, M, snr_db=10.0, channel_seed=1)
    y = realize(inst, 2).received
    with _blocked(10**6, 1):
        want = _runs(inst, y) + (variance_recursion(inst)[0],)
    assert M * K <= 2**16
    for budget in (M * K, M * K + K - 1, 2**16):
        with _blocked(budget, 1):
            fresh = build_instance(K, M, snr_db=10.0, channel_seed=1)
            got = _runs(fresh, y) + (variance_recursion(fresh)[0],)
        for a, b in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(a.estimate, b.estimate)
            np.testing.assert_array_equal(a.posterior_var, b.posterior_var)
            assert (a.iterations, a.flops, a.terminated) == (b.iterations, b.flops, b.terminated)
            assert a.trace.step_change == b.trace.step_change
        np.testing.assert_array_equal(got[2], want[2])


def test_outputs_do_not_keep_their_instance_alive():
    # A result is plain data: holding it holds no channel or kept set-up,
    # whichever detector made it, called directly or through run_detector.
    assert [f.name for f in fields(DetectionResult)] == [
        "estimate", "iterations", "flops", "terminated", "posterior_var", "trace",
        "relax", "previous_estimate",
    ]
    inst = build_instance(10, 80, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    outs = [gmpid_detect(inst, y), sagmpid_detect(inst, y)]
    names = sorted(DETECTORS)
    registered = [run_detector(name, inst, y) for name in names]
    alive = weakref.ref(inst)
    del inst
    gc.collect()
    assert alive() is None
    assert [out.terminated for out in outs] == [Termination.CONVERGED] * 2
    assert all(type(out) is DetectionResult for out in outs + registered)
    # Only message passing fills previous_estimate, and only sagmpid relax.
    for name, out in zip(names, registered):
        assert (out.relax is not None) == (name == "sagmpid"), name
        assert (out.previous_estimate is not None) == (name in ("gmpid", "sagmpid")), name


def test_previous_estimate_gives_the_last_step_change():
    inst = build_instance(10, 80, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    relax = RelaxationChoice(w=0.8)
    for out in (
        gmpid_detect(inst, y),
        gmpid_detect(inst, y, max_iter=7),
        sagmpid_detect(inst, y),
        sagmpid_detect(inst, y, relax, max_iter=1),
    ):
        change = np.max(np.abs(out.estimate - out.previous_estimate))
        assert change == out.trace.step_change[-1]


@pytest.mark.parametrize("rows", [None, 3], ids=["one-block", "blocks"])
@pytest.mark.parametrize("w", [None, 0.8], ids=["gmpid", "sagmpid"])
def test_message_state_on_a_rebuilt_instance_is_bitwise(w, rows):
    # On an equal instance rebuilt from the seed, message_state sweeps the
    # run's schedule step itself, by the statements the run ran: the four
    # arrays are those it returns on the run's own instance, bit for bit.
    # 40 rows run in one block, or in 14 blocks of 3.
    K, M = 12, 40

    def build():
        return build_instance(K, M, snr_db=10.0, channel_seed=5)

    with _blocked(rows, K) if rows else contextlib.nullcontext():
        sweeps = variance_recursion(build())[2]
        for max_iter in (0, 1, sweeps // 2, sweeps, sweeps + 5):
            inst = build()
            y = realize(inst, 6).received
            if w is None:
                out = gmpid_detect(inst, y, eps=0.0, max_iter=max_iter)
            else:
                relax = RelaxationChoice(w=w)
                out = sagmpid_detect(inst, y, relax, eps=0.0, max_iter=max_iter)
            assert out.iterations == max_iter
            rebuilt = build()
            got = message_state(rebuilt, y, out)
            want = message_state(inst, y, out)
            # The rebuilt schedule was stepped to the run's last step.
            assert len(gmpid._schedule(rebuilt).u) == max(1, min(max_iter, sweeps))
            for field in fields(MessageState):
                np.testing.assert_array_equal(
                    getattr(got, field.name), getattr(want, field.name), err_msg=field.name
                )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    shape=st.sampled_from([(1, 1), (1, 2), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6)]),
    snr_db=st.sampled_from([0.0, 20.0, 40.0, 60.0, 80.0, 100.0, 120.0]),
    channel_seed=st.integers(0, 2**16),
)
# User weights that end in a last-bit cycle wider than the rounding bound:
# only the bitwise-repeat test settles them. Period 2, except the last
# (period 6).
@example(shape=(1, 1), snr_db=20.0, channel_seed=3)
@example(shape=(1, 2), snr_db=20.0, channel_seed=7)
@example(shape=(2, 2), snr_db=80.0, channel_seed=1)
@example(shape=(3, 3), snr_db=20.0, channel_seed=6)
@example(shape=(2, 2), snr_db=20.0, channel_seed=34)
def test_variance_schedule_settles_on_tiny_shapes(shape, snr_db, channel_seed):
    K, M = shape
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)
    budget = VARIANCE_SWEEP_CAP // 10
    # y = 0 keeps the means at zero, so eps = 0 runs the whole budget.
    out = gmpid_detect(inst, np.zeros(M), eps=0.0, max_iter=budget + 1)
    vv, _, sweeps = variance_recursion(inst)
    assert sweeps <= budget
    assert np.all(vv > 0) and np.all(vv <= 1.0 / inst.prior.precisions)
    np.testing.assert_array_equal(out.posterior_var, vv)
    assert not out.estimate.any()
    # Iteration t takes schedule step t - 1: the last sweep is iteration
    # ``sweeps``, and every later iteration costs the same.
    steps = np.diff(out.trace.cum_flops)
    assert steps[sweeps - 2] > steps[-1]
    assert (steps[sweeps - 1:] == steps[-1]).all()


def _swept_to_a_repeat(inst, y, w, iterations):
    """The node-level pair, relaxed by ``w``, with the bitwise-repeat freeze.

    The variances are swept until the user variances repeat those of an
    earlier sweep bit for bit; that sweep's sum-node variances are held
    from then on. Returns the means, the user variances and the sweeps run.
    """
    state = MessageState.initial(inst.dims)
    seen, held, sweeps = set(), None, 0
    for _ in range(iterations):
        nxt = sum_node_update(state, inst, y)
        if held is not None:
            nxt.sum_to_user_var = held
        nxt = variable_node_update(nxt, inst)
        vv = nxt.user_to_sum_var[:, 0]
        if held is None:
            sweeps += 1
            if vv.tobytes() in seen:
                held = nxt.sum_to_user_var
            seen.add(vv.tobytes())
        nxt.user_to_sum_mean = w * nxt.user_to_sum_mean + (1.0 - w) * state.user_to_sum_mean
        state = nxt
    return state.user_to_sum_mean[:, 0], vv, sweeps


# The engine settles once every user weight moved by at most M 2^-53 of
# itself in one sweep (1.2e-14 at M = 105). The recursion contracts slowly
# near load 1 (about 700 sweeps to a repeat at 100x105, 80 dB), so the
# distance left to the repeat is that step over one minus the contraction,
# about 2e-13 there. Measured drift from the bitwise-repeat freeze: 1.3e-13
# (variances) and 1.1e-14 (estimate) at 100x105; 4.6e-15 and 1.6e-15 at
# 100x600.
FREEZE_DRIFT = 1e-12


@pytest.mark.parametrize(
    "K, M, snr_db, channel_seed, iterations",
    [
        (100, 105, 80.0, 1016, 1000),  # the slowest pinned variance recursion
        (100, 600, 10.0, 2, 100),  # swept on, a last-bit 2-cycle
    ],
)
def test_rounding_bound_freeze_stays_close_to_the_bitwise_repeat(
    K, M, snr_db, channel_seed, iterations
):
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)
    y = realize(inst, 1).received
    relax = auto_relaxation(inst)
    ev_ref, vv_ref, ref_sweeps = _swept_to_a_repeat(inst, y, relax.w, iterations)
    out = sagmpid_detect(inst, y, relax, eps=0.0, max_iter=iterations)
    assert out.iterations == iterations
    assert variance_recursion(inst)[2] < ref_sweeps  # the freeze comes earlier
    np.testing.assert_allclose(
        out.posterior_var, vv_ref, rtol=FREEZE_DRIFT, atol=0
    )
    drift = np.max(np.abs(out.estimate - ev_ref)) / np.max(np.abs(ev_ref))
    assert drift <= FREEZE_DRIFT


def test_detect_converges_to_mmse_on_small_underloaded_system():
    for cs in range(5):
        inst = build_instance(3, 12, noise_var=1e-14, channel_seed=14 + cs)
        real = realize(inst, 15 + cs)
        out = gmpid_detect(inst, real.received, eps=1e-13, max_iter=2000)
        ref = mmse_detect(inst, real.received).estimate
        assert out.terminated is Termination.CONVERGED
        assert np.max(np.abs(out.estimate - ref)) < 1e-8


def test_detect_relative_mmse_gap_below_threshold_load():
    inst = build_instance(20, 400, noise_var=1e-8, channel_seed=4000)
    real = realize(inst, 4000 + 10**6)
    out = gmpid_detect(inst, real.received, max_iter=200)
    ref = mmse_detect(inst, real.received).estimate
    rel = np.linalg.norm(out.estimate - ref) / np.linalg.norm(ref)
    assert out.terminated is Termination.CONVERGED
    assert rel < 1e-6


def test_detect_diverges_at_two_thirds_load():
    inst = build_instance(200, 300, snr_db=20.0, channel_seed=107_000)
    real = realize(inst, 107_000 + 10**6)
    out = gmpid_detect(inst, real.received, eps=0.0, max_iter=200)
    assert out.terminated is Termination.DIVERGED


def test_detect_stopping_not_armed_on_first_iteration():
    # A zero observation keeps the means at zero from the start; the loop
    # must still take a second iteration to certify the change is small.
    inst = build_instance(4, 8, snr_db=10.0, channel_seed=0)
    out = gmpid_detect(inst, np.zeros(8))
    assert out.iterations == 2
    assert out.terminated is Termination.CONVERGED
    assert out.trace.step_change[-1] == 0.0


def test_detect_zero_iterations_returns_prior_state():
    inst = build_instance(3, 6, snr_db=10.0, channel_seed=1)
    out = gmpid_detect(inst, np.ones(6), max_iter=0)
    assert out.iterations == 0
    assert out.terminated is Termination.MAX_ITERATIONS
    np.testing.assert_array_equal(out.estimate, np.zeros(3))
    assert out.previous_estimate is None
    assert np.all(np.isinf(message_state(inst, np.ones(6), out).user_to_sum_var))


def test_detect_per_iteration_cost_within_twice_nominal():
    for K, M in ((50, 300), (100, 600)):
        inst = build_instance(K, M, snr_db=20.0, channel_seed=1)
        real = realize(inst, 2)
        out = gmpid_detect(inst, real.received, eps=0.0, max_iter=5)
        cum = out.trace.cum_flops
        per_iter = cum[-1] - cum[-2]
        assert per_iter <= 2 * 8 * K * M


def test_detect_trace_records_requested_diagnostics():
    inst = build_instance(5, 20, snr_db=10.0, channel_seed=8)
    real = realize(inst, 9)
    out = gmpid_detect(inst, real.received, eps=0.0, max_iter=7, truth=real.symbols)
    tr = out.trace
    assert len(tr) == 7
    assert len(tr.mse_to_truth) == 7
    assert all(np.isfinite(tr.mean_variance))
    assert tr.mean_variance == sorted(tr.mean_variance, reverse=True)


def test_detect_rejects_invalid_configuration():
    inst = build_instance(2, 4, snr_db=10.0, channel_seed=0)
    noiseless = SystemInstance(
        dims=inst.dims, channel=inst.channel, prior=inst.prior, noise_var=0.0
    )
    with pytest.raises(ValueError):
        gmpid_detect(noiseless, np.zeros(4))


@pytest.mark.parametrize("eps", [-1.0, np.nan])
def test_detect_rejects_bad_eps_like_iterate(eps):
    inst = build_instance(4, 16, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    with pytest.raises(ValueError, match="eps"):
        gmpid_detect(inst, y, eps=eps)
    with pytest.raises(ValueError, match="eps"):
        sagmpid_detect(inst, y, eps=eps)
    # eps = 0 turns the stop off: the run takes its whole budget.
    assert gmpid_detect(inst, y, eps=0.0, max_iter=9).iterations == 9

"""Tests for the relaxed (scaled-and-accelerated) message-passing detector:
the K x K system/iteration matrices, relaxation-parameter selection, the
w=1 reduction identity, and convergence behavior at high load. The
small-shape property tests also cover the message updates of the
node-level reference (``node_reference``), whose variances both detectors
share."""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmpdetect import (
    IterationTrace,
    RelaxationChoice,
    Termination,
    auto_relaxation,
    build_instance,
    gmpid_detect,
    gmpid_mean_convergence_report,
    mmse_detect,
    realize,
    relaxation_iteration_matrix,
    relaxation_system_matrix,
    sagmpid_convergence_report,
    sagmpid_detect,
    spectral_radius,
    variance_fixed_point,
    variance_recursion,
)
from gmpdetect import gmpid
from gmpdetect.harness import resolve_relaxation, run_detector
from gmpdetect.sagmpid import _measured_matrix, _measured_spectrum
from instances import drawn, from_channel
from node_reference import MessageState, message_state, sum_node_update, variable_node_update


def _orthogonal_instance(n_users=3, n_antennas=6, noise_var=0.1, seed=1):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n_antennas, n_users)))
    return from_channel(Q, noise_var)


# ---------------------------------------------------------------------------
# System matrix A
# ---------------------------------------------------------------------------


def test_system_matrix_is_identity_for_orthogonal_columns():
    A = relaxation_system_matrix(_orthogonal_instance())
    np.testing.assert_allclose(A, np.eye(3), atol=1e-15)


def test_system_matrix_hand_arithmetic():
    inst = from_channel([[1.0, 1.0], [0.0, 0.0]], noise_var=0.1)
    # K = M = 2, noise 0.1, unit prior: b = 0.1, sigma_hat^2 =
    # (sqrt(0.01 + 0.8) - 0.1) / 4 = 0.2, sigma_tilde^2 = 2 * 0.2 + 0.1 = 0.5,
    # so gamma = 0.4 scales the off-diagonal of H^T H = [[1, 1], [1, 1]].
    A = relaxation_system_matrix(inst)
    np.testing.assert_allclose(A, np.array([[1.0, 0.4], [0.4, 1.0]]))
    assert A[0, 1] == A[1, 0] == variance_fixed_point(inst).gamma


def test_system_matrix_rejects_nonpositive_gamma():
    # At the least subnormal noise variance sigma_hat_sq = 2 s / (b + root)
    # underflows to 0, and so does gamma.
    inst = drawn(4, 8, noise_var=5e-324, channel_seed=0)
    assert variance_fixed_point(inst).gamma == 0.0
    with pytest.raises(ValueError, match="gamma must be positive"):
        relaxation_system_matrix(inst)


def test_system_matrix_eigenvalues_inside_asymptotic_band():
    inst = build_instance(50, 400, snr_db=20.0, channel_seed=9)
    fp = variance_fixed_point(inst)
    ev = np.linalg.eigvalsh(relaxation_system_matrix(inst))
    beta = 50 / 400
    lo = 1 + fp.gamma * 400 * ((1 - np.sqrt(beta)) ** 2 - 1)
    hi = 1 + fp.gamma * 400 * ((1 + np.sqrt(beta)) ** 2 - 1)
    tol = 0.1 * (hi - lo)
    assert ev[0] >= lo - tol
    assert ev[-1] <= hi + tol


# ---------------------------------------------------------------------------
# Relaxation-parameter selection
# ---------------------------------------------------------------------------


def test_resolve_relaxation_beta_value():
    inst = build_instance(100, 300, snr_db=10.0, channel_seed=0)
    choice = resolve_relaxation(inst, "beta")
    assert choice.source == "beta"
    assert choice.w == pytest.approx(0.75)


def test_resolve_relaxation_error_paths():
    inst = build_instance(4, 8, snr_db=10.0, channel_seed=0)
    for no_value in ("manual", "manual:"):
        with pytest.raises(ValueError):
            resolve_relaxation(inst, no_value)
    with pytest.raises(ValueError):
        resolve_relaxation(inst, "manual:-1.0")
    square = build_instance(4, 4, snr_db=10.0, channel_seed=0)
    with pytest.raises(ValueError):
        resolve_relaxation(square, "beta")  # load not below one
    with pytest.raises(ValueError):
        RelaxationChoice(w=0.0)


@pytest.mark.parametrize("w", [float("inf"), float("nan")])
def test_relaxation_factor_must_be_finite(w):
    inst = build_instance(4, 8, snr_db=10.0, channel_seed=0)
    with pytest.raises(ValueError):
        RelaxationChoice(w)
    with pytest.raises(ValueError):
        resolve_relaxation(inst, f"manual:{w}")


def test_every_relaxation_names_its_source():
    inst = build_instance(20, 80, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    auto = sagmpid_detect(inst, y).relax
    assert auto == auto_relaxation(inst) and auto.source == "auto"
    assert resolve_relaxation(inst, "beta") == RelaxationChoice(0.8, "beta")
    assert resolve_relaxation(inst, "manual:0.7") == RelaxationChoice(0.7, "manual")
    assert RelaxationChoice(0.7).source == "manual"
    with pytest.raises(ValueError, match="source"):
        RelaxationChoice(0.7, "eigen")


@pytest.mark.parametrize("via", ["sagmpid_detect", "run_detector"])
@pytest.mark.parametrize(
    "bad", ["y", "truth", "eps", "max_iter", "infinite eps", "fractional max_iter"]
)
def test_auto_relaxation_waits_for_checked_inputs(via, bad):
    # Auto w sweeps the whole variance schedule and solves for the measured
    # spectrum, so a bad y, truth, eps or budget must raise before either:
    # the instance keeps neither the schedule nor the spectrum.
    inst = build_instance(8, 32, snr_db=10.0, channel_seed=0)
    real = realize(inst, 1)
    run = {"y": real.received, "truth": real.symbols, "eps": None, "max_iter": 500}
    run[bad.split()[-1]] = {
        "y": np.ones(3), "truth": np.ones(3), "eps": -1.0, "max_iter": -1,
        "infinite eps": np.inf, "fractional max_iter": 2.5,
    }[bad]
    with pytest.raises(ValueError):
        if via == "sagmpid_detect":
            sagmpid_detect(inst, run["y"], eps=run["eps"], max_iter=run["max_iter"],
                           truth=run["truth"])
        else:
            run_detector("sagmpid", inst, run["y"], w_mode="auto", eps=run["eps"],
                         max_iter=run["max_iter"], truth=run["truth"])
    assert "variance_schedule" not in inst._setup
    assert "measured_spectrum" not in inst._setup


@pytest.mark.parametrize("relax", [0.8, 0])
def test_relax_is_none_or_a_relaxation_choice(relax):
    # A bare w is no RelaxationChoice, and 0 is not None: the detector and
    # the report refuse both before auto w's sweeps.
    inst = build_instance(8, 32, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    with pytest.raises(ValueError, match="^relax must be None or a RelaxationChoice"):
        sagmpid_detect(inst, y, relax)
    with pytest.raises(ValueError, match="^relax must be None or a RelaxationChoice"):
        sagmpid_convergence_report(inst, relax)
    assert "variance_schedule" not in inst._setup


def test_auto_relaxation_returns_positive_auto_choice():
    inst = build_instance(50, 300, snr_db=20.0, channel_seed=2)
    choice = auto_relaxation(inst)
    assert choice.source == "auto"
    assert 0.0 < choice.w < 2.0


# ---------------------------------------------------------------------------
# Iteration matrix I - wA
# ---------------------------------------------------------------------------


def _closed_form_optimal_w(inst):
    """``2/(lmin + lmax)`` of the closed-form system matrix, and its extremes."""
    evals = np.linalg.eigvalsh(relaxation_system_matrix(inst))
    lmin, lmax = float(evals[0]), float(evals[-1])
    return 2.0 / (lmin + lmax), lmin, lmax


def test_iteration_matrix_optimal_w_radius_identity():
    inst = build_instance(60, 240, snr_db=15.0, channel_seed=8)
    w, lmin, lmax = _closed_form_optimal_w(inst)
    rho = spectral_radius(relaxation_iteration_matrix(inst, w))
    expected = (lmax - lmin) / (lmax + lmin)
    assert rho == pytest.approx(expected, abs=1e-8)


def test_iteration_matrix_identity_system_w1_is_zero():
    inst = _orthogonal_instance()
    B = relaxation_iteration_matrix(inst, 1.0)
    np.testing.assert_allclose(B, 0.0, atol=1e-14)


def test_iteration_matrix_asymptotic_w_radius_near_limit():
    inst = build_instance(200, 1200, snr_db=20.0, channel_seed=66)
    beta = 200 / 1200
    rho = spectral_radius(relaxation_iteration_matrix(inst, 1.0 / (1.0 + beta)))
    limit = 2.0 * np.sqrt(beta) / (1.0 + beta)
    assert abs(rho - limit) / limit < 0.10


def test_radius_ordering_relaxed_always_below_plain():
    for beta in (0.25, 0.5, 0.8):
        M = int(round(200 / beta))
        inst = build_instance(200, M, snr_db=20.0, channel_seed=77)
        fp = variance_fixed_point(inst)
        B_plain = fp.gamma * (inst.channel.T @ inst.channel)
        np.fill_diagonal(B_plain, 0.0)
        rho_plain = spectral_radius(B_plain)
        rho_relaxed = spectral_radius(
            relaxation_iteration_matrix(inst, 1.0 / (1.0 + beta))
        )
        assert rho_relaxed < rho_plain


# ---------------------------------------------------------------------------
# Detection behavior
# ---------------------------------------------------------------------------


def test_w1_reduces_bitwise_to_plain_detector():
    for seed in (0, 1):
        inst = build_instance(30, 90, snr_db=15.0, channel_seed=100 + seed)
        real = realize(inst, 200 + seed)
        plain = gmpid_detect(inst, real.received, max_iter=60)
        relaxed = sagmpid_detect(
            inst,
            real.received,
            RelaxationChoice(w=1.0),
            max_iter=60,
        )
        np.testing.assert_array_equal(relaxed.estimate, plain.estimate)
        np.testing.assert_array_equal(
            relaxed.posterior_var, plain.posterior_var
        )
        assert relaxed.iterations == plain.iterations
        assert relaxed.trace.step_change == plain.trace.step_change
        relaxed_state = message_state(inst, real.received, relaxed)
        plain_state = message_state(inst, real.received, plain)
        np.testing.assert_array_equal(
            relaxed_state.sum_to_user_mean, plain_state.sum_to_user_mean
        )
        np.testing.assert_array_equal(
            relaxed_state.sum_to_user_var, plain_state.sum_to_user_var
        )


def _small_instance(K, extra, snr_db, seed, hetero):
    M = K + extra
    rng = np.random.default_rng(seed)
    variances = rng.uniform(0.5, 2.0, K) if hetero else np.ones(K)
    inst = from_channel(
        rng.standard_normal((M, K)),
        noise_var=float(np.mean(variances)) * 10.0 ** (-snr_db / 10.0),
        prior_var=variances,
    )
    x = rng.standard_normal(K) * np.sqrt(variances)
    y = inst.channel @ x + rng.standard_normal(M) * np.sqrt(inst.noise_var)
    return inst, x, y


_SMALL_SHAPES = dict(
    K=st.integers(1, 6),
    extra=st.integers(0, 12),
    snr_db=st.sampled_from([0.0, 10.0, 30.0, 80.0]),
    seed=st.integers(0, 2**16),
    hetero=st.booleans(),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_SMALL_SHAPES)
@example(K=1, extra=0, snr_db=10.0, seed=0, hetero=False)  # M = 1
@example(K=6, extra=0, snr_db=30.0, seed=1, hetero=True)  # K = M
def test_auto_relaxation_is_admissible_on_small_shapes(K, extra, snr_db, seed, hetero):
    choice = auto_relaxation(_small_instance(K, extra, snr_db, seed, hetero)[0])
    assert choice.lambda_min <= choice.lambda_max
    assert np.isfinite(choice.w) and 0.0 < choice.w < 2.0 / choice.lambda_max


@settings(max_examples=60, deadline=None, derandomize=True)
@given(**_SMALL_SHAPES)
@example(K=1, extra=0, snr_db=10.0, seed=0, hetero=False)  # M = 1
@example(K=1, extra=11, snr_db=80.0, seed=0, hetero=False)  # K = 1, 80 dB
@example(K=6, extra=0, snr_db=30.0, seed=1, hetero=True)  # K = M
def test_reference_updates_keep_user_variances_monotone_on_small_shapes(
    K, extra, snr_db, seed, hetero
):
    # Criterion 3 on the reference updates shared by gmpid and sagmpid: each
    # user's user-to-sum variance is non-increasing, within its 1e-12 slack.
    inst, _, y = _small_instance(K, extra, snr_db, seed, hetero)
    state = MessageState.initial(inst.dims)
    for _ in range(30):
        previous = state.user_to_sum_var
        state = variable_node_update(sum_node_update(state, inst, y), inst)
        assert np.all(state.user_to_sum_var <= previous + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(max_iter=st.integers(1, 80), **_SMALL_SHAPES)
@example(K=1, extra=0, snr_db=10.0, seed=0, hetero=False, max_iter=40)  # M = 1
@example(K=6, extra=0, snr_db=30.0, seed=1, hetero=True, max_iter=80)  # K = M
def test_w1_is_bitwise_plain_detector_on_small_shapes(
    K, extra, snr_db, seed, hetero, max_iter
):
    _assert_w1_is_plain(K, extra, snr_db, seed, hetero, max_iter)


def _assert_w1_is_plain(K, extra, snr_db, seed, hetero, max_iter):
    inst, x, y = _small_instance(K, extra, snr_db, seed, hetero)
    oracle = mmse_detect(inst, y).estimate
    relax = RelaxationChoice(w=1.0)
    # Once against the symbols sent, once against MMSE: every trace column,
    # the per-iteration distance to each reference included, is bitwise equal.
    for truth in (x, oracle):
        runs = dict(max_iter=max_iter, truth=truth)
        plain = gmpid_detect(inst, y, **runs)
        relaxed = sagmpid_detect(inst, y, relax, **runs)
        np.testing.assert_array_equal(relaxed.estimate, plain.estimate)
        np.testing.assert_array_equal(relaxed.posterior_var, plain.posterior_var)
        assert (relaxed.iterations, relaxed.flops) == (plain.iterations, plain.flops)
        assert relaxed.terminated is plain.terminated
        for column in fields(IterationTrace):
            np.testing.assert_array_equal(
                getattr(relaxed.trace, column.name),
                getattr(plain.trace, column.name),
                err_msg=column.name,
            )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(max_iter=st.integers(1, 80), blocks=st.integers(3, 6), **_SMALL_SHAPES)
@example(K=6, extra=12, snr_db=30.0, seed=1, hetero=True, max_iter=80, blocks=3)
def test_w1_is_bitwise_plain_detector_in_row_blocks(
    K, extra, snr_db, seed, hetero, max_iter, blocks
):
    # The same identity with the schedule stepping `blocks` or more row
    # blocks (every row its own block when M < blocks).
    rows = max(1, (K + extra) // blocks)
    with mock.patch.object(gmpid, "_BLOCK_ENTRIES", rows * K):
        _assert_w1_is_plain(K, extra, snr_db, seed, hetero, max_iter)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scale=st.integers(-20, 20), **_SMALL_SHAPES)
@example(K=1, extra=0, snr_db=10.0, seed=0, hetero=False, scale=3)  # M = 1
@example(K=6, extra=0, snr_db=30.0, seed=1, hetero=True, scale=-5)  # K = M
def test_symmetric_spectrum_bounds_the_exact_one_on_small_shapes(
    K, extra, snr_db, seed, hetero, scale
):
    # The reference: every eigenvalue of the measured Mt, by the general solve.
    inst, _, _ = _small_instance(K, extra, snr_db, seed, hetero)
    Mt = _measured_matrix(inst)
    mu = np.linalg.eigvals(Mt)
    mu_r = np.sort(mu.real)
    exact_w = 2.0 / (max(mu_r[0], 1e-12 * mu_r[-1]) + mu_r[-1])
    relax = auto_relaxation(inst)
    # The symmetric-part w contracts wherever the exact-spectrum w does.
    if np.max(np.abs(1.0 - exact_w * mu)) < 1.0:
        assert np.max(np.abs(1.0 - relax.w * mu)) < 1.0
    # On a real spectrum the reported radius bounds the exact one from above.
    if not np.iscomplex(mu).any():
        lam = _measured_spectrum(inst)[1]
        radii = {w: float(np.max(np.abs(1.0 - w * lam))) for w in (1.0, relax.w)}
        if extra > 0 and not hetero:  # where the reports apply, they read these
            assert gmpid_mean_convergence_report(inst).spectral_radius == radii[1.0]
            assert sagmpid_convergence_report(inst, relax).spectral_radius == radii[relax.w]
        for w, radius in radii.items():
            assert radius >= np.max(np.abs(1.0 - w * mu.real))
    # Like the exact spectrum, the symmetric part does not depend on a user's
    # units: its column of H scaled by 2**-scale and its prior variance by
    # 4**scale change Mt by a diagonal similarity and leave D^-1/2 Mt D^1/2
    # bit for bit; the symmetric part of Mt itself would change.
    H = inst.channel.copy()
    H[:, 0] *= 2.0**-scale
    variances = inst.prior.variances.copy()
    variances[0] *= 4.0**scale
    rescaled = from_channel(H, inst.noise_var, prior_var=variances)
    assert auto_relaxation(rescaled) == relax


def test_variance_sequence_identical_to_plain_detector():
    for seed in (11, 12):
        inst = build_instance(50, 300, snr_db=20.0, channel_seed=seed)
        real = realize(inst, seed + 50)
        plain = gmpid_detect(inst, real.received, eps=0.0, max_iter=40)
        relaxed = sagmpid_detect(inst, real.received, eps=0.0, max_iter=40)
        dev = np.max(
            np.abs(
                np.array(plain.trace.mean_variance)
                - np.array(relaxed.trace.mean_variance)
            )
        )
        assert dev <= 1e-12


def test_relaxed_converges_where_plain_diverges_at_two_thirds_load():
    inst = build_instance(1000, 1500, snr_db=20.0, channel_seed=88)
    real = realize(inst, 89)
    ref = mmse_detect(inst, real.received).estimate
    plain = gmpid_detect(inst, real.received, eps=0.0, max_iter=100)
    assert plain.terminated is Termination.DIVERGED
    relaxed = sagmpid_detect(inst, real.received, eps=0.0, max_iter=200)
    assert relaxed.terminated is not Termination.DIVERGED
    rel = np.linalg.norm(relaxed.estimate - ref) / np.linalg.norm(ref)
    assert rel < 5e-3
    assert relaxed.relax is not None and relaxed.relax.w > 0


def test_relaxed_reaches_target_in_fewer_iterations():
    inst = build_instance(10, 60, snr_db=20.0, channel_seed=3)
    real = realize(inst, 103)
    ref = mmse_detect(inst, real.received).estimate
    nrm = float(np.linalg.norm(ref))

    def first_hit(out):
        for i, mse in enumerate(out.trace.mse_to_truth):
            if np.sqrt(inst.dims.n_users * mse) / nrm < 1e-3:
                return i + 1
        return None

    plain_hit = first_hit(
        gmpid_detect(inst, real.received, eps=0.0, max_iter=20, truth=ref)
    )
    relaxed_hit = first_hit(
        sagmpid_detect(inst, real.received, eps=0.0, max_iter=20, truth=ref)
    )
    assert relaxed_hit is not None and plain_hit is not None
    assert relaxed_hit < plain_hit


@pytest.mark.parametrize(
    "K, M, snr_db, channel_seed, max_sweeps",
    [
        # Swept on, the user weights cycle bitwise with period 5 from sweep
        # 63 on; the rounding bound settles them at sweep 52.
        (50, 100, 10.0, 14, 80),
        # Load 0.95 at 80 dB: the weights first repeat after about 700
        # sweeps, above the old cap of 500; the rounding bound settles
        # them at sweep 610.
        (100, 105, 80.0, 1016, 800),
    ],
    ids=["period-5", "load-0.95"],
)
def test_weights_freeze_on_a_rounding_cycle_longer_than_two(
    K, M, snr_db, channel_seed, max_sweeps
):
    # The recursion must settle, not run to its cap, and the engine must
    # freeze on the same weights: its last iteration is two gemv calls.
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)
    vv, _, sweeps = variance_recursion(inst)
    assert sweeps <= max_sweeps
    out = sagmpid_detect(inst, realize(inst, 3).received, eps=0.0, max_iter=sweeps + 5)
    np.testing.assert_array_equal(vv, out.posterior_var)
    assert np.diff(out.trace.cum_flops)[-1] <= 4 * K * M + 10 * (K + M)


@pytest.mark.parametrize(
    "K, M, snr_db, channel_seed",
    [(100, 600, 10.0, 0), (100, 600, 10.0, 2), (1, 12, 80.0, 0)],
    ids=["fixed-point", "2-cycle", "K=1"],
)
@pytest.mark.parametrize("spectrum_first", [False, True], ids=["replayed", "swept"])
def test_measured_matrix_is_the_run_matrix_bitwise(
    K, M, snr_db, channel_seed, spectrum_first
):
    # Mt is vv A^T H with A = H / V, V the sum-node variances that
    # message_state returns: both when the spectrum replays a step the run
    # recorded and when it sweeps the schedule itself. The instance keeps
    # only Mt's absolute row sums, and they are those of this matrix.
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)
    if spectrum_first:
        _measured_spectrum(inst)
    y = realize(inst, 5).received
    run = gmpid_detect(inst, y, eps=0.0, max_iter=120)
    assert run.iterations > variance_recursion(inst)[2]  # past the settle step
    H = inst.channel
    expected = run.posterior_var[:, None] * (
        (H / message_state(inst, y, run).sum_to_user_var).T @ H
    )
    np.fill_diagonal(expected, 1.0)
    np.testing.assert_array_equal(_measured_matrix(inst), expected)
    np.testing.assert_array_equal(_measured_spectrum(inst)[0], np.abs(expected).sum(axis=1))


def test_measured_relaxation_and_gamma_do_not_depend_on_units():
    # Scaling the prior and the noise by 2**-40 scales every variance and
    # weight exactly, so a settle rule whose one tolerance is relative
    # returns the same bits.
    for channel_seed in range(4):
        unit = build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
        tiny = build_instance(
            100, 600, snr_db=10.0, channel_seed=channel_seed, prior_var=2.0**-40
        )
        assert auto_relaxation(tiny).w == auto_relaxation(unit).w
        assert (
            gmpid_mean_convergence_report(tiny).gamma_measured
            == gmpid_mean_convergence_report(unit).gamma_measured
        )


def test_error_decay_rate_tracks_iteration_matrix_radius():
    for sidx in range(3):
        inst = drawn(100, 200, noise_var=1e-8, channel_seed=50 + sidx)
        real = realize(inst, 60 + sidx)
        ref = mmse_detect(inst, real.received).estimate
        w = _closed_form_optimal_w(inst)[0]
        rho = spectral_radius(relaxation_iteration_matrix(inst, w))
        out = sagmpid_detect(
            inst,
            real.received,
            RelaxationChoice(w=w),
            eps=0.0,
            max_iter=60,
            truth=ref,
        )
        gap = np.sqrt(inst.dims.n_users * np.asarray(out.trace.mse_to_truth[9:60]))
        log_gap = np.log(gap)
        slope = np.polyfit(np.arange(len(log_gap)), log_gap, 1)[0]
        fitted_rate = float(np.exp(slope))
        assert abs(fitted_rate - rho) / rho < 0.15


def test_converged_run_reports_small_decision_residual():
    inst = build_instance(20, 100, snr_db=15.0, channel_seed=41)
    real = realize(inst, 42)
    out = sagmpid_detect(inst, real.received, max_iter=300)
    assert out.terminated is Termination.CONVERGED
    eps_used = 1e-8 * (1.0 + float(np.max(np.abs(real.received))))
    assert out.trace.step_change[-1] < eps_used


# Iteration counts of the engine that re-swept the variances on every
# iteration; reusing the frozen weights must not change the trajectory.
@pytest.mark.parametrize(
    "seed, plain_iterations, relaxed_iterations",
    [(0, 95, 38), (1, 171, 38), (2, 174, 38)],
)
def test_iteration_counts_match_full_sweep_engine(
    seed, plain_iterations, relaxed_iterations
):
    inst = build_instance(100, 600, snr_db=10.0, channel_seed=seed)
    y = realize(inst, 100 + seed).received
    plain = gmpid_detect(inst, y)
    relaxed = sagmpid_detect(inst, y)
    assert plain.iterations == plain_iterations
    assert relaxed.iterations == relaxed_iterations
    assert plain.terminated is Termination.CONVERGED
    assert relaxed.terminated is Termination.CONVERGED

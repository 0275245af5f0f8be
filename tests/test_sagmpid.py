"""Tests for the relaxed (scaled-and-accelerated) message-passing detector:
the K x K system/iteration matrices, relaxation-parameter selection, the
w=1 reduction identity, and convergence behavior at high load. The
small-shape property tests also cover the reference message updates that
both detectors share."""

from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmpdetect import (
    IterationTrace,
    MessageState,
    RelaxationChoice,
    Termination,
    auto_relaxation,
    build_instance,
    gmpid_detect,
    gmpid_mean_convergence_report,
    message_state,
    mmse_detect,
    realize,
    relaxation_iteration_matrix,
    relaxation_system_matrix,
    sagmpid_convergence_report,
    sagmpid_detect,
    spectral_radius,
    sum_node_update,
    variable_node_update,
    variance_fixed_point,
    variance_recursion,
)
from gmpdetect import SourcePrior, SystemDims, SystemInstance
from gmpdetect import gmpid
from gmpdetect.harness import resolve_relaxation
from gmpdetect.sagmpid import _measured_matrix, _measured_spectrum


def _orthogonal_instance(n_users=3, n_antennas=6, noise_var=0.1, seed=1):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n_antennas, n_users)))
    return SystemInstance(
        dims=SystemDims(n_users, n_antennas),
        channel=Q,
        prior=SourcePrior.homogeneous(n_users, 1.0),
        noise_var=noise_var,
    )


# ---------------------------------------------------------------------------
# System matrix A
# ---------------------------------------------------------------------------


def test_system_matrix_is_identity_for_orthogonal_columns():
    A = relaxation_system_matrix(_orthogonal_instance())
    np.testing.assert_allclose(A, np.eye(3), atol=1e-15)


def test_system_matrix_hand_arithmetic():
    inst = SystemInstance(
        dims=SystemDims(2, 2),
        channel=np.array([[1.0, 1.0], [0.0, 0.0]]),
        prior=SourcePrior.homogeneous(2, 1.0),
        noise_var=0.1,
    )
    A = relaxation_system_matrix(inst, gamma=0.5)
    np.testing.assert_allclose(A, np.array([[1.0, 0.5], [0.5, 1.0]]))


def test_system_matrix_default_gamma_is_variance_limit_ratio():
    inst = build_instance(10, 40, snr_db=10.0, channel_seed=6)
    np.testing.assert_allclose(
        relaxation_system_matrix(inst),
        relaxation_system_matrix(inst, gamma=variance_fixed_point(inst).gamma),
    )


def test_system_matrix_rejects_nonpositive_gamma():
    inst = build_instance(4, 8, snr_db=10.0, channel_seed=0)
    with pytest.raises(ValueError):
        relaxation_system_matrix(inst, gamma=0.0)


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
        np.testing.assert_array_equal(relaxed.result.estimate, plain.result.estimate)
        np.testing.assert_array_equal(
            relaxed.result.posterior_var, plain.result.posterior_var
        )
        assert relaxed.result.iterations == plain.result.iterations
        assert relaxed.result.trace.step_change == plain.result.trace.step_change
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
    inst = SystemInstance(
        dims=SystemDims(K, M),
        channel=rng.standard_normal((M, K)),
        prior=SourcePrior(variances=variances),
        noise_var=float(np.mean(variances)) * 10.0 ** (-snr_db / 10.0),
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
    runs = dict(max_iter=max_iter, truth=x, oracle=oracle)
    plain = gmpid_detect(inst, y, **runs).result
    relax = RelaxationChoice(w=1.0)
    relaxed = sagmpid_detect(inst, y, relax, **runs).result
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
    rescaled = SystemInstance(
        dims=inst.dims,
        channel=H,
        prior=SourcePrior(variances=variances),
        noise_var=inst.noise_var,
    )
    assert auto_relaxation(rescaled) == relax


def test_variance_sequence_identical_to_plain_detector():
    for seed in (11, 12):
        inst = build_instance(50, 300, snr_db=20.0, channel_seed=seed)
        real = realize(inst, seed + 50)
        plain = gmpid_detect(inst, real.received, eps=0.0, max_iter=40)
        relaxed = sagmpid_detect(inst, real.received, eps=0.0, max_iter=40)
        dev = np.max(
            np.abs(
                np.array(plain.result.trace.mean_variance)
                - np.array(relaxed.result.trace.mean_variance)
            )
        )
        assert dev <= 1e-12


def test_relaxed_converges_where_plain_diverges_at_two_thirds_load():
    inst = build_instance(1000, 1500, snr_db=20.0, channel_seed=88)
    real = realize(inst, 89)
    ref = mmse_detect(inst, real.received).estimate
    plain = gmpid_detect(inst, real.received, eps=0.0, max_iter=100)
    assert plain.result.terminated is Termination.DIVERGED
    relaxed = sagmpid_detect(inst, real.received, eps=0.0, max_iter=200)
    assert relaxed.result.terminated is not Termination.DIVERGED
    rel = np.linalg.norm(relaxed.result.estimate - ref) / np.linalg.norm(ref)
    assert rel < 5e-3
    assert relaxed.relax is not None and relaxed.relax.w > 0


def test_relaxed_reaches_target_in_fewer_iterations():
    inst = build_instance(10, 60, snr_db=20.0, channel_seed=3)
    real = realize(inst, 103)
    ref = mmse_detect(inst, real.received).estimate
    nrm = float(np.linalg.norm(ref))

    def first_hit(out):
        for i, gap in enumerate(out.result.trace.oracle_gap):
            if gap / nrm < 1e-3:
                return i + 1
        return None

    plain_hit = first_hit(
        gmpid_detect(inst, real.received, eps=0.0, max_iter=20, oracle=ref)
    )
    relaxed_hit = first_hit(
        sagmpid_detect(inst, real.received, eps=0.0, max_iter=20, oracle=ref)
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
    np.testing.assert_array_equal(vv, out.result.posterior_var)
    assert np.diff(out.result.trace.cum_flops)[-1] <= 4 * K * M + 10 * (K + M)


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
    assert run.result.iterations > variance_recursion(inst)[2]  # past the settle step
    H = inst.channel
    expected = run.result.posterior_var[:, None] * (
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
        inst = build_instance(100, 200, noise_var=1e-8, channel_seed=50 + sidx)
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
            oracle=ref,
        )
        log_gap = np.log(np.asarray(out.result.trace.oracle_gap[9:60]))
        slope = np.polyfit(np.arange(len(log_gap)), log_gap, 1)[0]
        fitted_rate = float(np.exp(slope))
        assert abs(fitted_rate - rho) / rho < 0.15


def test_converged_run_reports_small_decision_residual():
    inst = build_instance(20, 100, snr_db=15.0, channel_seed=41)
    real = realize(inst, 42)
    out = sagmpid_detect(inst, real.received, max_iter=300)
    assert out.result.terminated is Termination.CONVERGED
    eps_used = 1e-8 * (1.0 + float(np.max(np.abs(real.received))))
    assert out.result.trace.step_change[-1] < eps_used


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
    plain = gmpid_detect(inst, y).result
    relaxed = sagmpid_detect(inst, y).result
    assert plain.iterations == plain_iterations
    assert relaxed.iterations == relaxed_iterations
    assert plain.terminated is Termination.CONVERGED
    assert relaxed.terminated is Termination.CONVERGED

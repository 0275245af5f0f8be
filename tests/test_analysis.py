"""Tests for the convergence-analysis layer: load threshold, asymptotic
spectral radii, closed-form MSE prediction, and convergence reports."""

from dataclasses import asdict
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gmpdetect import (
    THRESHOLD_BETA,
    RelaxationChoice,
    Termination,
    auto_relaxation,
    build_instance,
    convergence_check,
    gmpid_detect,
    gmpid_mean_convergence_report,
    realize,
    relaxation_system_matrix,
    rmt_mmse_mse,
    sagmpid_convergence_report,
    sagmpid_detect,
    spectral_radius,
    variance_fixed_point,
    variance_recursion,
)
from instances import drawn
from node_reference import message_state


# ---------------------------------------------------------------------------
# Load threshold and asymptotic radii
# ---------------------------------------------------------------------------


def test_threshold_constant_value():
    assert THRESHOLD_BETA == pytest.approx((np.sqrt(2.0) - 1.0) ** 2, abs=1e-15)
    assert THRESHOLD_BETA == pytest.approx(0.171573, abs=1e-6)


def test_plain_radius_crosses_one_exactly_at_threshold():
    beta = THRESHOLD_BETA
    assert beta + 2.0 * np.sqrt(beta) == pytest.approx(1.0, abs=1e-12)
    for beta in np.linspace(0.001, 0.999, 99):
        below_one = beta + 2.0 * np.sqrt(beta) < 1.0
        assert below_one == (beta < THRESHOLD_BETA)


def test_relaxed_radius_beats_plain_radius_everywhere():
    for beta in np.linspace(0.001, 0.999, 99):
        relaxed = 2.0 * np.sqrt(beta) / (1.0 + beta)
        plain = beta + 2.0 * np.sqrt(beta)
        assert relaxed < plain
        assert relaxed < 1.0  # relaxed regime is always contractive below unit load


# ---------------------------------------------------------------------------
# Closed-form MSE prediction
# ---------------------------------------------------------------------------


def _textbook_closed_forms(K, M, sx, s):
    """The fixed-point root and the F-expression MSE as written, in 80-digit
    decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 80
        K, M, sx, s = map(Decimal, (K, M, sx, s))
        b = s / sx + M - K
        root = ((b * b + 4 * (K / sx) * s).sqrt() - b) / (2 * K / sx)
        snr, rb = sx / s, (K / M).sqrt()
        x = snr * M
        F = ((x * (1 + rb) ** 2 + 1).sqrt() - (x * (1 - rb) ** 2 + 1).sqrt()) ** 2
        return root, sx * (1 - F / (4 * snr * K))


@pytest.mark.parametrize("prior_var", [1.0, 0.3])
def test_closed_forms_match_a_decimal_reference_and_each_other(prior_var):
    # Below, at and above load 1, up to 300 dB, where the textbook forms
    # cancel every digit in double precision. The two closed forms are one
    # quantity: the message-passing variance limit is the MMSE error.
    shapes = [(1, 1), (1, 2), (2, 1), (3, 5), (4, 12), (8, 32), (20, 20), (50, 10),
              (100, 101), (100, 105), (101, 100), (100, 600), (200, 201), (600, 100)]
    for K, M in shapes:
        for snr_db in (-10, 0, 10, 20, 40, 60, 80, 100, 120, 140, 160, 200, 250, 300):
            inst = build_instance(K, M, snr_db=snr_db, prior_var=prior_var)
            fixed = variance_fixed_point(inst).sigma_hat_sq
            exact = rmt_mmse_mse(K, M, prior_var, inst.noise_var).exact
            ref_fixed, ref_exact = _textbook_closed_forms(K, M, prior_var, inst.noise_var)
            at = (K, M, snr_db)
            assert abs(Decimal(fixed) - ref_fixed) <= Decimal(2e-15) * ref_fixed, at
            assert abs(Decimal(exact) - ref_exact) <= Decimal(2e-15) * ref_exact, at
            assert abs(fixed - exact) <= 2e-15 * fixed, at


def test_mse_prediction_underloaded_branch_value():
    pred = rmt_mmse_mse(100, 600, 1.0, 0.01)
    assert pred.regime == "underloaded"
    assert pred.asymptote == pytest.approx(2.0e-5, rel=1e-12)
    # finite-size expression and branch value agree closely at this size
    assert abs(pred.exact - pred.asymptote) / pred.asymptote < 0.02


def test_mse_prediction_critical_branch_value():
    pred = rmt_mmse_mse(100, 100, 1.0, 1.0)
    assert pred.regime == "critical"
    assert pred.asymptote == pytest.approx(0.1, rel=1e-12)


def test_mse_prediction_overloaded_branch_value():
    pred = rmt_mmse_mse(200, 100, 1.0, 0.01)
    assert pred.regime == "overloaded"
    assert pred.asymptote == pytest.approx(0.5, rel=1e-12)


def test_mse_prediction_no_information_limit_is_prior_variance():
    pred = rmt_mmse_mse(100, 600, 1.0, 1e9)
    assert pred.exact == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize(
    "args",
    [
        (0, 600, 1.0, 0.01),
        (100, 0, 1.0, 0.01),
        (100, 600, 0.0, 0.01),
        (100, 600, 1.0, -0.01),
        (100, 600, np.nan, 0.01),
        (100, 600, np.inf, 0.01),
        (100, 600, 1.0, np.nan),
        (100, 600, 1.0, np.inf),
    ],
)
def test_mse_prediction_rejects_bad_sizes_and_variances(args):
    with pytest.raises(ValueError, match="finite, positive variances"):
        rmt_mmse_mse(*args)


def test_mse_prediction_matches_monte_carlo_trace_average():
    K, M, s = 100, 600, 0.01
    samples = []
    for seed in range(20):
        inst = drawn(K, M, noise_var=s, channel_seed=1400 + seed)
        H = inst.channel
        cov = np.linalg.inv(H.T @ H / s + np.eye(K))
        samples.append(np.trace(cov) / K)
    mc = float(np.mean(samples))
    pred = rmt_mmse_mse(K, M, 1.0, s)
    assert abs(pred.exact - mc) / mc < 0.03


# ---------------------------------------------------------------------------
# Spectral radius estimation
# ---------------------------------------------------------------------------


def test_spectral_radius_of_system_matrix_is_its_top_eigenvalue():
    # At this load the closed-form A is exactly symmetric and positive
    # definite, so its radius is the top eigenvalue of the symmetric
    # solver, bit for bit.
    for channel_seed in range(3):
        A = relaxation_system_matrix(
            build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
        )
        assert spectral_radius(A) == np.linalg.eigvalsh(A)[-1]


def test_spectral_radius_takes_general_path_for_nonsymmetric_matrix():
    # Eigenvalues +-2; a symmetric solver reading one triangle would see +-1.
    B = np.array([[0.0, 4.0], [1.0, 0.0]])
    assert spectral_radius(B) == pytest.approx(2.0, rel=1e-14)
    rng = np.random.default_rng(8)
    S = rng.standard_normal((60, 60))
    S = S + S.T
    assert spectral_radius(S) == pytest.approx(
        float(np.max(np.abs(np.linalg.eigvals(S)))), rel=1e-12
    )


# ---------------------------------------------------------------------------
# Plain-detector convergence report
# ---------------------------------------------------------------------------


def test_plain_report_moderate_load():
    inst = build_instance(100, 600, snr_db=20.0, channel_seed=3)
    report = gmpid_mean_convergence_report(inst)
    assert report.beta == pytest.approx(1 / 6)
    assert report.asymptotic_radius == pytest.approx(1 / 6 + 2 / np.sqrt(6), rel=1e-12)
    assert report.threshold_beta == THRESHOLD_BETA
    assert report.predicted_converges == (
        report.diag_dominant or report.spectral_radius < 1.0
    )
    assert report.predicted_converges  # measured radius is below one here
    assert report.spectral_radius < 1.0


def test_plain_report_low_load_predicts_convergence():
    inst = build_instance(20, 400, snr_db=20.0, channel_seed=1)
    report = gmpid_mean_convergence_report(inst)
    assert report.asymptotic_radius == pytest.approx(0.05 + 2 * np.sqrt(0.05), rel=1e-12)
    assert report.predicted_converges


def test_plain_report_requires_underloaded_system():
    inst = build_instance(10, 10, snr_db=10.0, channel_seed=0)
    with pytest.raises(ValueError):
        gmpid_mean_convergence_report(inst)


def test_plain_report_measured_gamma_diagnostic_close_to_closed_form():
    inst = build_instance(100, 600, snr_db=20.0, channel_seed=3)
    report = gmpid_mean_convergence_report(inst)
    assert report.gamma_measured is not None
    assert abs(report.gamma_measured - report.gamma) / report.gamma < 0.05


def test_both_reports_carry_the_same_measured_gamma():
    # Both read the settled user variances of the one measured spectrum.
    inst = build_instance(100, 600, snr_db=20.0, channel_seed=3)
    plain = gmpid_mean_convergence_report(inst)
    relaxed = sagmpid_convergence_report(inst)
    assert plain.w != relaxed.w
    assert relaxed.gamma_measured == plain.gamma_measured
    v = float(np.mean(variance_recursion(inst)[0]))
    assert plain.gamma_measured == v / (100 * v + inst.noise_var)


def test_plain_radius_matches_contraction_after_weights_freeze():
    # Once the weights freeze, the mean error of gmpid shrinks by the radius
    # of I - Mt per step. Over a 40-step window the observed factor was
    # within 1.2e-3 (relative) of it on these channels; the closed-form
    # radius is 0.9-1.2% off on three of them.
    for channel_seed in range(4):
        inst = build_instance(100, 600, snr_db=10.0, channel_seed=channel_seed)
        rho = gmpid_mean_convergence_report(inst).spectral_radius
        start = variance_recursion(inst)[2] + 10
        y = realize(inst, 1).received
        trace = gmpid_detect(inst, y, eps=0.0, max_iter=start + 41).trace
        rate = (trace.step_change[start + 40] / trace.step_change[start]) ** (1 / 40)
        assert abs(rate - rho) / rho < 5e-3


def test_plain_radius_crosses_one_above_threshold_load_at_finite_size():
    # (sqrt(2)-1)^2 is where the large-system radius reaches 1; at finite K
    # the radius of the iterated matrix sits below 1 there and rises toward
    # it with K, and just above the threshold channels cross 1 as K grows.
    def radii(K, beta):
        return [
            gmpid_mean_convergence_report(
                build_instance(K, round(K / beta), snr_db=80.0, channel_seed=s)
            ).spectral_radius
            for s in range(6)
        ]

    at_threshold = [np.mean(radii(K, THRESHOLD_BETA)) for K in (100, 200)]
    assert at_threshold[0] < at_threshold[1] < 1.0
    below_one = [sum(r < 1.0 for r in radii(K, 0.19)) for K in (100, 200)]
    assert below_one[0] > below_one[1]


def test_measured_radius_approaches_asymptote_with_size():
    asym = 0.25 + 2.0 * np.sqrt(0.25)
    mean_gaps = []
    for K in (100, 200, 400):
        gaps = []
        for seed in range(20):
            inst = build_instance(K, 4 * K, snr_db=20.0, channel_seed=1300 + seed)
            report = gmpid_mean_convergence_report(inst)
            gaps.append(abs(report.spectral_radius - asym))
        mean_gaps.append(float(np.mean(gaps)))
    assert mean_gaps[0] > mean_gaps[1] > mean_gaps[2]


# ---------------------------------------------------------------------------
# Relaxed-detector convergence report
# ---------------------------------------------------------------------------


def test_relaxed_report_two_thirds_load():
    inst = build_instance(200, 300, snr_db=20.0, channel_seed=5)
    report = sagmpid_convergence_report(inst)
    assert report.asymptotic_radius == pytest.approx(
        2 * np.sqrt(2 / 3) / (5 / 3), rel=1e-12
    )
    assert report.asymptotic_radius < 1.0
    assert report.predicted_converges
    assert report.spectral_radius < 1.0


def test_relaxed_report_converges_near_unit_load_where_closed_form_says_not():
    # At 100x111, 80 dB, the closed-form radius is 1.07-1.10 but the matrix
    # the engine iterates contracts, and the auto-w run converges.
    for channel_seed in range(3):
        inst = build_instance(100, 111, snr_db=80.0, channel_seed=channel_seed)
        report = sagmpid_convergence_report(inst)
        assert report.predicted_converges
        assert report.spectral_radius < 1.0 < report.closed_form_radius
        y = realize(inst, 1).received
        out = sagmpid_detect(inst, y, max_iter=5000)
        assert out.terminated is Termination.CONVERGED
        assert out.relax.w == report.w


def test_reports_and_auto_relaxation_share_one_eigenvalue_solve(monkeypatch):
    inst = build_instance(60, 240, snr_db=15.0, channel_seed=8)
    # The relaxation rule on a separately built measured matrix, before the
    # count starts: sharing the spectrum must not change a bit of it.
    # Its A = H / V is the run's: V from message_state of a run that reaches
    # the settled step. The solve is of the symmetric part of D^-1/2 Mt D^1/2,
    # D = diag(vv), whose entries are sqrt(vv_k vv_j) (A^T H)_kj.
    twin = build_instance(60, 240, snr_db=15.0, channel_seed=8)
    _, _, sweeps = variance_recursion(twin)
    y = realize(twin, 1).received
    run = gmpid_detect(twin, y, eps=0.0, max_iter=sweeps)
    A = twin.channel / message_state(twin, y, run).sum_to_user_var
    root = np.sqrt(run.posterior_var)
    S = root[:, None] * (A.T @ twin.channel) * root
    S = 0.5 * (S + S.T)
    np.fill_diagonal(S, 1.0)
    lam = np.linalg.eigvalsh(S)
    expected_w = 2.0 / (max(lam[0], 1e-12 * lam[-1]) + lam[-1])

    calls, general = [], []
    eigvalsh, eigvals = np.linalg.eigvalsh, np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: general.append(a) or eigvals(a))
    relax = auto_relaxation(inst)
    gmpid_mean_convergence_report(inst)
    report = sagmpid_convergence_report(inst, relax)
    sagmpid_convergence_report(inst)
    assert sum(np.array_equal(a, S) for a in calls) == 1
    assert general == []
    assert (relax.w, relax.lambda_min, relax.lambda_max) == (expected_w, lam[0], lam[-1])
    assert report.w == relax.w


def test_reports_share_one_closed_form_eigenvalue_solve(monkeypatch):
    inst = build_instance(60, 240, snr_db=15.0, channel_seed=8)
    relax = auto_relaxation(inst)
    # Each report's closed-form radius by its own solve, before the count.
    lam = np.linalg.eigvalsh(relaxation_system_matrix(inst))
    expected = {w: float(np.max(np.abs(1.0 - w * lam))) for w in (1.0, relax.w, 0.5)}

    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    reports = (
        gmpid_mean_convergence_report(inst),
        sagmpid_convergence_report(inst),
        sagmpid_convergence_report(inst, RelaxationChoice(w=0.5)),
    )
    assert len(calls) == 1
    assert [r.w for r in reports] == [1.0, relax.w, 0.5]
    for r in reports:
        assert r.closed_form_radius == expected[r.w]


def test_relaxed_report_vanishing_load_radius_goes_to_zero():
    inst = build_instance(2, 2000, snr_db=20.0, channel_seed=0)
    report = sagmpid_convergence_report(inst)
    assert report.asymptotic_radius < 0.07
    assert report.predicted_converges


def test_relaxed_report_respects_supplied_choice():
    inst = build_instance(50, 200, snr_db=20.0, channel_seed=4)
    manual = RelaxationChoice(w=0.5)
    report = sagmpid_convergence_report(inst, manual)
    auto = sagmpid_convergence_report(inst)
    assert report.spectral_radius != pytest.approx(auto.spectral_radius)


def test_report_serializes_to_plain_dict():
    inst = build_instance(20, 100, snr_db=20.0, channel_seed=2)
    d = asdict(gmpid_mean_convergence_report(inst))
    for key in (
        "diag_dominant",
        "spectral_radius",
        "asymptotic_radius",
        "predicted_converges",
        "beta",
        "threshold_beta",
        "closed_form_radius",
        "w",
    ):
        assert key in d
    assert isinstance(d["spectral_radius"], float)
    assert isinstance(d["predicted_converges"], bool)

"""Tests for the classical affine iteration x(t) = Bx(t-1) + c and its
Jacobi/Richardson instantiations on the MMSE normal equations."""

import math

import numpy as np
import pytest

from gmpdetect import (
    AffineIteration,
    RelaxationChoice,
    Termination,
    build_instance,
    convergence_check,
    gmpid_detect,
    iterate,
    jacobi_for_mmse,
    mmse_detect,
    realize,
    richardson_for_mmse,
    sagmpid_detect,
)
from gmpdetect import SourcePrior, SystemDims, SystemInstance


# ---------------------------------------------------------------------------
# Affine iteration loop
# ---------------------------------------------------------------------------


def test_zero_matrix_jumps_to_offset():
    c = np.array([3.0, -1.0, 0.5])
    out = iterate(AffineIteration(matrix=np.zeros((3, 3)), offset=c))
    np.testing.assert_array_equal(out.estimate, c)
    assert out.terminated is Termination.CONVERGED
    assert out.iterations <= 2


def test_geometric_contraction_halves_error_each_step():
    it = AffineIteration(matrix=0.5 * np.eye(2), offset=np.array([1.0, 1.0]))
    out = iterate(it, eps=1e-10, max_iter=100)
    np.testing.assert_allclose(out.estimate, [2.0, 2.0], rtol=1e-9)
    steps = out.trace.step_change
    np.testing.assert_allclose(steps[:4], [1.0, 0.5, 0.25, 0.125], rtol=1e-12)


def test_contractive_iteration_matches_dense_solve():
    rng = np.random.default_rng(5)
    R = rng.standard_normal((20, 20))
    B = 0.9 * R / np.max(np.abs(np.linalg.eigvals(R)))
    c = rng.standard_normal(20)
    out = iterate(
        AffineIteration(matrix=B, offset=c), eps=1e-13, max_iter=5000
    )
    x_ref = np.linalg.solve(np.eye(20) - B, c)
    assert out.terminated is Termination.CONVERGED
    assert np.max(np.abs(out.estimate - x_ref)) < 1e-8


def test_fixed_point_independent_of_start():
    rng = np.random.default_rng(6)
    R = rng.standard_normal((15, 15))
    B = 0.85 * R / np.max(np.abs(np.linalg.eigvals(R)))
    it = AffineIteration(matrix=B, offset=rng.standard_normal(15))
    eps = 1e-12
    finals = [
        iterate(it, x0=rng.standard_normal(15), eps=eps, max_iter=5000).estimate
        for _ in range(3)
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.max(np.abs(finals[i] - finals[j])) < 10 * eps


def test_expanding_iteration_reports_divergence():
    rng = np.random.default_rng(0)
    R = rng.standard_normal((12, 12))
    B = 1.3 * R / np.max(np.abs(np.linalg.eigvals(R)))
    out = iterate(
        AffineIteration(matrix=B, offset=np.ones(12)),
        x0=rng.standard_normal(12),
        max_iter=500,
    )
    assert out.terminated is Termination.DIVERGED
    assert out.iterations <= 500


def test_nonfinite_values_report_divergence():
    B = np.array([[np.nan]])
    out = iterate(AffineIteration(matrix=B, offset=np.array([1.0])))
    assert out.terminated is Termination.DIVERGED


@pytest.mark.parametrize("K", [13, 37])
def test_per_step_cost_is_quadratic_in_users(K):
    it = AffineIteration(matrix=np.zeros((K, K)), offset=np.ones(K))
    out = iterate(it, eps=1e-30, max_iter=3)
    cum = out.trace.cum_flops
    assert cum[-1] - cum[-2] == 2 * K * K + 3 * K


def test_iterate_validates_inputs():
    it = AffineIteration(matrix=np.zeros((2, 2)), offset=np.zeros(2))
    with pytest.raises(ValueError):
        iterate(it, x0=np.zeros(3))
    with pytest.raises(ValueError):
        iterate(it, eps=0.0)
    with pytest.raises(ValueError):
        AffineIteration(matrix=np.zeros((2, 2)), offset=np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_iterate_rejects_a_non_finite_offset(bad):
    it = AffineIteration(matrix=np.zeros((2, 2)), offset=np.array([1.0, bad]))
    with pytest.raises(ValueError, match=r"^offset must be finite"):
        iterate(it)


def test_empty_iteration_is_rejected():
    with pytest.raises(ValueError, match=r"^AffineIteration is empty"):
        AffineIteration(matrix=np.zeros((0, 0)), offset=np.zeros(0))


def test_trace_iterations_strictly_increasing_from_one():
    it = AffineIteration(matrix=0.5 * np.eye(2), offset=np.ones(2))
    out = iterate(it, eps=1e-10, max_iter=50)
    assert out.trace.iteration[0] == 1
    assert all(np.diff(out.trace.iteration) == 1)


# ---------------------------------------------------------------------------
# Jacobi splitting of the MMSE normal equations
# ---------------------------------------------------------------------------


def test_jacobi_single_user_solves_in_one_step():
    inst = build_instance(1, 4, snr_db=10.0, channel_seed=3)
    real = realize(inst, 4)
    it = jacobi_for_mmse(inst, real.received)
    np.testing.assert_allclose(it.matrix, 0.0, atol=1e-15)
    out = iterate(it)
    ref = mmse_detect(inst, real.received).estimate
    np.testing.assert_allclose(out.estimate, ref, rtol=1e-12)
    assert out.iterations <= 2


def test_jacobi_predicted_nonconvergent_at_one_third_load():
    inst = build_instance(100, 300, snr_db=10.0, channel_seed=55)
    it = jacobi_for_mmse(inst, realize(inst, 56).received)
    report = convergence_check(it.matrix)
    assert not report.predicted_converges
    assert report.spectral_radius > 1.0


def test_jacobi_converges_to_mmse_at_low_load():
    inst = build_instance(20, 400, snr_db=10.0, channel_seed=12)
    real = realize(inst, 13)
    out = iterate(jacobi_for_mmse(inst, real.received), eps=1e-12, max_iter=2000)
    ref = mmse_detect(inst, real.received).estimate
    assert out.terminated is Termination.CONVERGED
    assert np.max(np.abs(out.estimate - ref)) < 1e-8


def test_jacobi_rejects_zero_diagonal():
    H = np.array([[0.0, 1.0], [0.0, 1.0]])
    inst = SystemInstance(
        dims=SystemDims(2, 2),
        channel=H,
        prior=SourcePrior(variances=np.full(2, np.inf)),  # no prior precision
        noise_var=1.0,
    )
    with pytest.raises(ValueError):
        jacobi_for_mmse(inst, np.ones(2))


# ---------------------------------------------------------------------------
# Richardson iteration on the MMSE normal equations
# ---------------------------------------------------------------------------


def test_richardson_single_user_with_reciprocal_step_converges_immediately():
    inst = build_instance(1, 1, snr_db=0.0, channel_seed=7)
    real = realize(inst, 8)
    H, s = inst.channel, inst.noise_var
    A_scalar = float(H[0, 0] ** 2 / s + 1.0)
    it, omega = richardson_for_mmse(inst, real.received, omega=1.0 / A_scalar)
    assert omega == pytest.approx(1.0 / A_scalar)
    np.testing.assert_allclose(it.matrix, 0.0, atol=1e-15)
    out = iterate(it)
    ref = mmse_detect(inst, real.received).estimate
    np.testing.assert_allclose(out.estimate, ref, rtol=1e-12)
    assert out.iterations <= 2


def test_richardson_auto_step_minimizes_radius():
    inst = build_instance(40, 160, snr_db=10.0, channel_seed=9)
    real = realize(inst, 10)
    it, omega = richardson_for_mmse(inst, real.received)
    A = inst.channel.T @ inst.channel / inst.noise_var + np.eye(40)
    lam = np.linalg.eigvalsh(A)
    assert omega == pytest.approx(2.0 / (lam[0] + lam[-1]), rel=1e-10)
    rho = convergence_check(it.matrix).spectral_radius
    assert rho == pytest.approx((lam[-1] - lam[0]) / (lam[-1] + lam[0]), abs=1e-8)


def test_richardson_converges_to_mmse_at_two_thirds_load():
    inst = build_instance(200, 300, snr_db=10.0, channel_seed=57)
    real = realize(inst, 58)
    it, _ = richardson_for_mmse(inst, real.received)
    out = iterate(it, eps=1e-12, max_iter=5000)
    ref = mmse_detect(inst, real.received).estimate
    assert out.terminated is Termination.CONVERGED
    assert np.max(np.abs(out.estimate - ref)) < 1e-8


def test_richardson_rejects_nonpositive_step():
    inst = build_instance(2, 4, snr_db=10.0, channel_seed=0)
    with pytest.raises(ValueError):
        richardson_for_mmse(inst, np.zeros(4), omega=-0.5)


def test_splitting_setup_is_charged_before_the_first_step():
    K, M = 6, 24
    inst = build_instance(K, M, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    jacobi = jacobi_for_mmse(inst, y)
    auto, omega = richardson_for_mmse(inst, y)
    given, _ = richardson_for_mmse(inst, y, omega=omega)
    # Normal equations, then the K x K matrix and offset; the eigenvalue
    # solve only when Richardson picks omega itself.
    assert jacobi.setup_flops == 2 * M * K * K + 2 * K * K + 2 * M * K + 3 * K
    assert given.setup_flops == jacobi.setup_flops
    assert auto.setup_flops == given.setup_flops + (8 * K**3) // 3
    step = 2 * K * K + 3 * K
    for it in (jacobi, auto, given):
        out = iterate(it, eps=1e-30, max_iter=3)
        assert out.trace.cum_flops == [it.setup_flops + t * step for t in (1, 2, 3)]
        assert out.flops == out.trace.cum_flops[-1]


# ---------------------------------------------------------------------------
# Convergence pre-check
# ---------------------------------------------------------------------------


def test_convergence_check_zero_matrix():
    report = convergence_check(np.zeros((3, 3)))
    assert report.diag_dominant
    assert report.spectral_radius == 0.0
    assert report.predicted_converges


def test_convergence_check_scalar_expansion():
    report = convergence_check(np.array([[2.0]]))
    assert report.spectral_radius == pytest.approx(2.0)
    assert not report.diag_dominant
    assert not report.predicted_converges


def test_convergence_check_gram_radius_near_asymptote():
    from gmpdetect import variance_fixed_point

    inst = build_instance(200, 1200, snr_db=20.0, channel_seed=66)
    fp = variance_fixed_point(inst)
    B = fp.gamma * (inst.channel.T @ inst.channel)
    np.fill_diagonal(B, 0.0)
    report = convergence_check(B)
    beta = 200 / 1200
    asym = beta + 2 * np.sqrt(beta)
    assert abs(report.spectral_radius - asym) / asym < 0.10


# ---------------------------------------------------------------------------
# The stop rule shared with message passing
# ---------------------------------------------------------------------------


_EDGE_INST = build_instance(4, 12, snr_db=10.0, channel_seed=0)
_NAN_ENTRY = np.diag([0.5, 0.5, 0.5])
_NAN_ENTRY[1, 2] = np.nan
# case -> (run, termination, iterations)
STOP_EDGES = {
    # Message passing arms the convergence test at t = 2: its first sweep
    # only installs the prior.
    "gmpid, y = 0": (
        lambda: gmpid_detect(_EDGE_INST, np.zeros(12)).result, Termination.CONVERGED, 2
    ),
    "sagmpid, y = 0": (
        lambda: sagmpid_detect(_EDGE_INST, np.zeros(12), RelaxationChoice(w=0.8)).result,
        Termination.CONVERGED,
        2,
    ),
    # An affine iteration tests from t = 1.
    "zero offset": (
        lambda: iterate(AffineIteration(0.5 * np.eye(3), np.zeros(3))), Termination.CONVERGED, 1
    ),
    "jacobi, y = 0": (
        lambda: iterate(jacobi_for_mmse(_EDGE_INST, np.zeros(12))), Termination.CONVERGED, 1
    ),
    "NaN matrix entry": (
        lambda: iterate(AffineIteration(_NAN_ENTRY, np.ones(3))), Termination.DIVERGED, 1
    ),
}


@pytest.mark.parametrize("case", sorted(STOP_EDGES))
def test_shared_stop_rule_edges(case):
    run, terminated, iterations = STOP_EDGES[case]
    out = run()
    assert out.terminated is terminated
    assert out.iterations == iterations
    if terminated is Termination.CONVERGED:
        # Every step is exactly zero, and a zero step reads +0.0.
        assert [math.copysign(1.0, c) for c in out.trace.step_change] == [1.0] * iterations
        assert out.trace.step_change == [0.0] * iterations
    else:
        assert math.isnan(out.trace.step_change[-1])

"""Tests for the one-shot reference detectors: exact MMSE (both solve
branches), matched filter, decorrelator, and the block-message detector."""

import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from gmpdetect import (
    Termination,
    build_instance,
    classic,
    gmp_block_detect,
    inverse_filter_detect,
    jacobi_for_mmse,
    matched_filter_detect,
    mmse_detect,
    mse,
    realize,
    reference,
    richardson_for_mmse,
)
from gmpdetect.reference import _inverse_factor, _mmse_setup
from instances import drawn, from_channel


def _naive_mmse(inst, y):
    """Independent normal-equation oracle for estimate and posterior var."""
    H = inst.channel
    W = H.T @ H / inst.noise_var + np.diag(inst.prior.precisions)
    cov = np.linalg.inv(W)
    return cov @ (H.T @ y / inst.noise_var), np.diag(cov)


# ---------------------------------------------------------------------------
# Exact MMSE
# ---------------------------------------------------------------------------


def test_mmse_scalar_wiener_filter():
    inst = from_channel([[1.0]], noise_var=1.0)
    r = mmse_detect(inst, np.array([2.0]))
    assert r.estimate[0] == pytest.approx(1.0)
    assert r.posterior_var[0] == pytest.approx(0.5)
    assert r.iterations == 0
    assert r.terminated is Termination.EXACT


def test_mmse_identity_channel_shrinks_towards_zero():
    inst = from_channel(np.eye(2), noise_var=0.5)
    r = mmse_detect(inst, np.array([1.0, -1.0]))
    np.testing.assert_allclose(r.estimate, [2 / 3, -2 / 3], rtol=1e-12)
    np.testing.assert_allclose(r.posterior_var, [1 / 3, 1 / 3], rtol=1e-12)


@pytest.mark.parametrize("shape", [(30, 50), (50, 30)])
def test_mmse_both_solve_branches_match_naive_oracle(shape):
    K, M = shape
    inst = build_instance(K, M, snr_db=8.0, channel_seed=21)
    real = realize(inst, 22)
    r = mmse_detect(inst, real.received)
    x_ref, pv_ref = _naive_mmse(inst, real.received)
    np.testing.assert_allclose(r.estimate, x_ref, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(r.posterior_var, pv_ref, rtol=1e-9)


def test_mmse_posterior_variance_matches_precision_matrix_diagonal():
    inst = build_instance(8, 12, snr_db=5.0, channel_seed=2)
    real = realize(inst, 3)
    r = mmse_detect(inst, real.received)
    _, pv_ref = _naive_mmse(inst, real.received)
    np.testing.assert_allclose(r.posterior_var, pv_ref, rtol=1e-10)


def test_mmse_flops_scale_with_user_cubed_plus_setup():
    K, M = 50, 200
    inst = build_instance(K, M, snr_db=10.0, channel_seed=0)
    r = mmse_detect(inst, realize(inst, 1).received)
    assert 2 * M * K * K < r.flops < 2 * M * K * K + 3 * K**3


def test_mmse_rejects_zero_noise():
    inst = from_channel(np.eye(2), noise_var=0.0)
    with pytest.raises(ValueError):
        mmse_detect(inst, np.zeros(2))


def test_mmse_setup_frees_the_matrix_before_the_triangular_inverse():
    # Freed once factored, the user-side matrix does not live beside L and
    # L^-1: over the kept Gram matrix, two K x K arrays and one quarter-size
    # product are live at once (three arrays while the matrix stayed). The
    # factor is the one of the plain statements, bit for bit.
    K, M = 200, 300
    inst = build_instance(K, M, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    G = inst._gram()
    tracemalloc.start()
    try:
        r = mmse_detect(inst, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * K * K * 8
    W = G / inst.noise_var + np.diag(inst.prior.precisions)
    Linv = _inverse_factor(np.linalg.cholesky(W))[0]
    np.testing.assert_array_equal(_mmse_setup(inst)[0], Linv)
    np.testing.assert_array_equal(r.posterior_var, (Linv * Linv).sum(axis=0))


@pytest.mark.parametrize("K", [1, 2, 31, 32, 33, 64, 65, 100, 257])
def test_inverse_factor_is_a_lower_triangle_inverse(K):
    # Sizes on both sides of the dense base block and of its doublings.
    B = np.random.default_rng(K).standard_normal((K, 2 * K + 3))
    L = np.linalg.cholesky(B @ B.T / K + np.eye(K))
    X = _inverse_factor(L)[0]
    assert not np.triu(X, 1).any()
    assert np.max(np.abs(L @ X - np.eye(K))) <= 1e-13
    ref = np.linalg.inv(L)
    assert np.max(np.abs(X - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(200, 300), (300, 200)], ids=["users", "antennas"])
def test_mmse_matches_the_dense_inverse_of_its_factor(shape):
    # Both solve branches, against the factor inverted by np.linalg.inv.
    K, M = shape
    inst = build_instance(K, M, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    r = mmse_detect(inst, y)
    H, s, vx = inst.channel, inst.noise_var, inst.prior.variances
    if K <= M:
        W = H.T @ H / s + np.diag(inst.prior.precisions)
    else:
        W = (H * vx) @ H.T + s * np.eye(M)
    Linv = np.linalg.inv(np.linalg.cholesky(W))
    if K <= M:
        x_ref = Linv.T @ (Linv @ (H.T @ y / s))
        var_ref = (Linv * Linv).sum(axis=0)
    else:
        x_ref = vx * (H.T @ (Linv.T @ (Linv @ y)))
        var_ref = vx - vx * vx * ((Linv @ H) ** 2).sum(axis=0)
    for got, ref in ((_mmse_setup(inst)[0], Linv), (r.estimate, x_ref), (r.posterior_var, var_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


_INVERSE_RSS = """
import resource
import numpy as np
from gmpdetect.reference import _inverse_factor

K = {K}
# The factor is built row by row, so the process peaks at the factor alone
# and the high-water mark rises with whatever the inverse adds to it.
rng = np.random.default_rng(0)
L = np.zeros((K, K))
for i in range(K):
    L[i, :i] = rng.standard_normal(i) * (0.3 / np.sqrt(K))
    L[i, i] = 1.0
_inverse_factor(L[: K // 2, : K // 2])  # BLAS and LAPACK warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
X = _inverse_factor(L)[0]
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert np.max(np.abs(L @ X - np.eye(K))) <= 1e-13
print((after - before) * 1024)
"""


def test_inverse_factor_peak_rss_stays_under_one_and_a_half_factors():
    # numpy.linalg mallocs its scratch where tracemalloc does not see it, so
    # the resident high-water mark of a fresh process is read instead. The
    # inverse needs its output plus one product of half-size blocks; an LU
    # solve against an identity needs two more K x K arrays.
    K = 1000
    src = os.path.dirname(os.path.dirname(os.path.abspath(reference.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _INVERSE_RSS.format(K=K)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1.5 * K * K * 8


# ---------------------------------------------------------------------------
# Matched filter
# ---------------------------------------------------------------------------


def test_matched_filter_single_user_average():
    inst = from_channel([[1.0], [1.0]], noise_var=1.0)
    r = matched_filter_detect(inst, np.array([1.0, 1.0]))
    assert r.estimate[0] == pytest.approx(1.0)


def test_matched_filter_exact_for_orthogonal_columns_without_noise():
    H = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
    inst = from_channel(H, noise_var=0.0)
    x = np.array([0.7, -0.3])
    r = matched_filter_detect(inst, H @ x)
    np.testing.assert_allclose(r.estimate, x, rtol=1e-14)
    # No interference between orthogonal users: variance is noise-only (zero).
    np.testing.assert_allclose(r.posterior_var, 0.0, atol=1e-15)


def test_matched_filter_variance_is_interference_plus_noise():
    inst = build_instance(3, 6, snr_db=3.0, channel_seed=7)
    H, s = inst.channel, inst.noise_var
    r = matched_filter_detect(inst, realize(inst, 8).received)
    for k in range(3):
        hk = H[:, k]
        cross = sum(
            float(hk @ H[:, i]) ** 2 for i in range(3) if i != k
        ) / float(hk @ hk) ** 2
        expected = cross + s / float(hk @ hk)
        assert r.posterior_var[k] == pytest.approx(expected, rel=1e-12)


def test_matched_filter_never_beats_mmse_at_nonnegative_snr():
    for sidx in range(10):
        inst = build_instance(20, 120, snr_db=0.0, channel_seed=800 + sidx)
        real = realize(inst, 900 + sidx)
        mmse_err = mse(mmse_detect(inst, real.received).estimate, real.symbols)
        mf_err = mse(matched_filter_detect(inst, real.received).estimate, real.symbols)
        assert mmse_err <= mf_err


# ---------------------------------------------------------------------------
# Decorrelator with prior combining
# ---------------------------------------------------------------------------


def test_inverse_filter_matches_mmse_for_positive_noise():
    inst = build_instance(12, 40, snr_db=6.0, channel_seed=31)
    real = realize(inst, 32)
    r_if = inverse_filter_detect(inst, real.received)
    r_mmse = mmse_detect(inst, real.received)
    np.testing.assert_allclose(r_if.estimate, r_mmse.estimate, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(r_if.posterior_var, r_mmse.posterior_var, rtol=1e-10)


def test_inverse_filter_noiseless_inverts_scalar_channel():
    inst = from_channel([[2.0]], noise_var=0.0)
    r = inverse_filter_detect(inst, np.array([3.0]))
    assert r.estimate[0] == pytest.approx(1.5)
    assert r.posterior_var[0] == 0.0


def test_inverse_filter_at_zero_noise_equals_pseudoinverse():
    # At zero noise no prior moves the decorrelator's estimate: it is the
    # least-squares solution, with zero posterior variances.
    inst = build_instance(2, 4, snr_db=10.0, channel_seed=11)
    noiseless = drawn(2, 4, noise_var=0.0, channel_seed=11)
    y = realize(inst, 12).received  # a y off the channel's column space
    r = inverse_filter_detect(noiseless, y)
    np.testing.assert_allclose(r.estimate, np.linalg.pinv(noiseless.channel) @ y, rtol=1e-10)
    assert r.posterior_var.tobytes() == np.zeros(2).tobytes()


def test_inverse_filter_requires_at_least_as_many_antennas_as_users():
    inst = build_instance(5, 3, snr_db=10.0, channel_seed=0)
    with pytest.raises(ValueError):
        inverse_filter_detect(inst, np.zeros(3))


# ---------------------------------------------------------------------------
# Block message detector
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(2, 3), (10, 60), (25, 100)])
def test_gmp_block_matches_mmse(shape):
    K, M = shape
    inst = build_instance(K, M, snr_db=12.0, channel_seed=40 + K)
    real = realize(inst, 50 + K)
    r_blk = gmp_block_detect(inst, real.received)
    r_mmse = mmse_detect(inst, real.received)
    np.testing.assert_allclose(r_blk.estimate, r_mmse.estimate, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(r_blk.posterior_var, r_mmse.posterior_var, rtol=1e-10)


def test_gmp_block_scalar_wiener_filter():
    inst = from_channel([[1.0]], noise_var=1.0)
    r = gmp_block_detect(inst, np.array([2.0]))
    assert r.estimate[0] == pytest.approx(1.0)
    assert r.posterior_var[0] == pytest.approx(0.5)


def _dense_weight_block_detect(inst, y):
    """The block formulation with its M x M weight (1/s) I materialized."""
    H = inst.channel
    M = H.shape[0]
    W_in = np.eye(M) / inst.noise_var
    W_post = H.T @ (W_in @ H) + np.diag(inst.prior.precisions)
    V = np.linalg.inv(W_post)
    return V @ (H.T @ (W_in @ y)), np.diag(V)


@pytest.mark.parametrize(
    "K, M, snr_db",
    [(1, 1, 10.0), (1, 7, 0.0), (5, 5, 10.0), (6, 4, 20.0), (20, 60, 80.0), (30, 90, 10.0)],
)
def test_gmp_block_scalar_weight_matches_dense_weight_bitwise(K, M, snr_db):
    # The weight on y is the scalar 1/s: the off-diagonal terms of
    # (I/s) @ y add exact zeros, so the estimate is bit for bit the Gram
    # route's statements with the dense weight on y. The whole dense
    # formulation, (I/s) @ H included, sums the matrix in another order:
    # over these shapes and seeds its estimate differed by at most 1.4e-13
    # of its largest entry and its variances by at most 1.2e-13 relative
    # (6x4, 20 dB), so the bound is 1e-12. K = 1 matched it exactly.
    for seed in range(3):
        inst = build_instance(K, M, snr_db=snr_db, channel_seed=seed)
        y = realize(inst, 10 + seed).received
        H, s = inst.channel, inst.noise_var
        V = np.linalg.inv(H.T @ H / s + np.diag(inst.prior.precisions))
        r = gmp_block_detect(inst, y)
        np.testing.assert_array_equal(r.estimate, V @ (H.T @ ((np.eye(M) / s) @ y)))
        np.testing.assert_array_equal(r.posterior_var, np.diag(V))
        x_ref, var_ref = _dense_weight_block_detect(inst, y)
        np.testing.assert_allclose(r.estimate, x_ref, rtol=0, atol=1e-12 * np.abs(x_ref).max())
        np.testing.assert_allclose(r.posterior_var, var_ref, rtol=1e-12)


def test_gmp_block_allocates_no_channel_sized_array():
    # Over the kept Gram the largest array is one K x K matrix or the
    # M-vector y / s: no M x K array such as H / s.
    K, M = 20, 2000
    inst = build_instance(K, M, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    inst._gram()
    tracemalloc.start()
    try:
        gmp_block_detect(inst, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < M * K * 8 / 2


def test_gmp_and_the_splittings_read_mmses_matrix_bitwise():
    # The matrix gmp inverts and the ones the splittings are built from are
    # the one MMSE factors, bit for bit.
    inst = build_instance(30, 90, snr_db=10.0, channel_seed=5)
    y = realize(inst, 6).received
    seen = {}

    def spy(name, f):
        def record(a, *args, **kwargs):
            seen[name] = a.copy()
            return f(a, *args, **kwargs)
        return record

    with mock.patch.object(np.linalg, "cholesky", spy("mmse", np.linalg.cholesky)):
        mmse_detect(inst, y)
    with mock.patch.object(np.linalg, "inv", spy("gmp", np.linalg.inv)):
        gmp_block_detect(inst, y)
    W = seen["mmse"]
    np.testing.assert_array_equal(seen["gmp"], W)
    np.testing.assert_array_equal(classic._normal_equations(inst, y)[0], W)

    B = -W / np.diag(W)[:, None]
    np.fill_diagonal(B, 0.0)
    np.testing.assert_array_equal(jacobi_for_mmse(inst, y).matrix, B)
    evals = np.linalg.eigvalsh(W)
    B = -(2.0 / (evals[0] + evals[-1])) * W
    B[np.diag_indices_from(B)] += 1.0
    np.testing.assert_array_equal(richardson_for_mmse(inst, y).matrix, B)


def test_gmp_block_bits_do_not_depend_on_who_kept_the_gram():
    fresh = build_instance(30, 90, snr_db=10.0, channel_seed=7)
    kept = build_instance(30, 90, snr_db=10.0, channel_seed=7)
    y = realize(fresh, 8).received
    mmse_detect(kept, y)
    a, b = gmp_block_detect(fresh, y), gmp_block_detect(kept, y)
    np.testing.assert_array_equal(a.estimate, b.estimate)
    np.testing.assert_array_equal(a.posterior_var, b.posterior_var)
    assert a.flops == b.flops


def test_gmp_block_allocates_no_antenna_square_array():
    K, M = 20, 2000
    inst = build_instance(K, M, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    tracemalloc.start()
    try:
        gmp_block_detect(inst, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < M * M * 8 / 4


def test_gmp_block_cost_dominated_by_dense_antenna_products():
    K, M = 10, 40
    inst = build_instance(K, M, snr_db=10.0, channel_seed=1)
    r = gmp_block_detect(inst, realize(inst, 2).received)
    assert 2 * K * M * M <= r.flops <= 6 * K * M * M

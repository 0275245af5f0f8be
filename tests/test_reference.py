"""Tests for the one-shot reference detectors: exact MMSE (one user-side
solve at every K and M), matched filter, decorrelator, and the
block-message detector."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
def test_mmse_matches_naive_oracle_at_either_load(shape):
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


@pytest.mark.parametrize(
    "detect", [mmse_detect, gmp_block_detect, jacobi_for_mmse, richardson_for_mmse],
    ids=["mmse", "gmp", "jacobi", "richardson"],
)
def test_every_normal_matrix_reader_refuses_zero_noise_at_its_door(detect):
    # The user-side matrix is the one zero-noise check of its four readers:
    # it raises before any division, so no 1/0 warning, no ZeroDivisionError
    # and no check of the reader's own runs first.
    noiseless = drawn(4, 12, noise_var=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the normal matrix requires positive noise") as exc:
            detect(noiseless, np.ones(12))
    assert exc.traceback[-1].name == "_normal_matrix"


@pytest.mark.parametrize("detect", [mmse_detect, gmp_block_detect], ids=["mmse", "gmp"])
@pytest.mark.parametrize("K, M", [(30, 20), (8, 4)])
@pytest.mark.parametrize("snr_db", [160.0, 200.0])
def test_more_users_than_antennas_at_high_snr_raise_one_value_error(detect, K, M, snr_db):
    # At K > M only the prior's precision makes the normal matrix definite;
    # beside ||h_k||^2 / s it rounds away, and both solves refuse the matrix
    # with the same ValueError, not numpy's LinAlgError or a wrong estimate.
    for seed in range(3):
        inst = build_instance(K, M, snr_db=snr_db, channel_seed=seed)
        with pytest.raises(ValueError, match="prior's precision rounds away beside"):
            detect(inst, realize(inst, 1).received)


_EXACT = {
    "mmse": mmse_detect,
    "mf": matched_filter_detect,
    "if": inverse_filter_detect,
    "gmp": gmp_block_detect,
}


def _box_channel(K, M, seed, kind="drawn"):
    """``build_instance``'s channel for ``seed``; ``kind`` "equal" copies its
    first column into its second, "zero" zeroes its last column."""
    H = drawn(K, M, 1.0, seed).channel.copy()
    if kind == "equal":
        H[:, 1] = H[:, 0]
    elif kind == "zero":
        H[:, -1] = 0.0
    return H


def _assert_exact_detectors_refuse_or_answer(H, snr_db, hetero):
    """Each exact detector, on its own instance, returns a finite estimate
    with finite, positive posterior variances or raises ValueError, with no
    warning; and ``gmp`` refuses wherever ``mmse`` does. Return the refusers."""
    K = H.shape[1]
    prior_var = np.linspace(0.5, 2.0, K) if hetero else 1.0
    refused = set()
    for name, detect in _EXACT.items():
        inst = from_channel(H, 10.0 ** (-snr_db / 10.0), prior_var)
        y = realize(inst, 1).received
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = detect(inst, y)
            except ValueError as exc:  # a documented one: numpy's LinAlgError subclasses it
                assert not isinstance(exc, np.linalg.LinAlgError), (name, exc)
                refused.add(name)
                continue
        assert np.all(np.isfinite(out.estimate)), name
        assert np.all(np.isfinite(out.posterior_var) & (out.posterior_var > 0)), name
    assert "mmse" not in refused or "gmp" in refused
    return refused


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    K=st.integers(1, 20),
    M=st.integers(1, 21),
    snr_db=st.floats(-40.0, 200.0),
    seed=st.integers(0, 2**16),
    hetero=st.booleans(),
)
@example(K=60, M=40, snr_db=140.0, seed=0, hetero=False)
@example(K=60, M=40, snr_db=140.0, seed=1, hetero=False)
@example(K=60, M=40, snr_db=140.0, seed=2, hetero=False)
@example(K=60, M=40, snr_db=140.0, seed=3, hetero=False)
@example(K=60, M=40, snr_db=140.0, seed=4, hetero=False)
@example(K=13, M=2, snr_db=150.0, seed=1, hetero=True)
@example(K=20, M=2, snr_db=150.0, seed=2, hetero=False)
def test_exact_detectors_answer_or_refuse_over_the_input_box(K, M, snr_db, seed, hetero):
    _assert_exact_detectors_refuse_or_answer(_box_channel(K, M, seed), snr_db, hetero)


@pytest.mark.parametrize("kind", ["equal", "zero"])
def test_exact_detectors_answer_or_refuse_on_rank_deficient_channels(kind):
    # M = 8 antennas, K = 4 users; seed 1's equal columns fail the Gram's
    # Cholesky, where other seeds' can leave a tiny positive pivot. if names
    # the cause, and mf refuses the zero column.
    H = _box_channel(4, 8, 1, kind)
    refused = _assert_exact_detectors_refuse_or_answer(H, 10.0, False)
    assert refused == ({"if"} if kind == "equal" else {"mf", "if"})
    inst = from_channel(H, 0.1)
    with pytest.raises(ValueError, match="^the channel's columns are linearly dependent"):
        inverse_filter_detect(inst, np.ones(8))
    if kind == "zero":
        with pytest.raises(ValueError, match="positive norm"):
            matched_filter_detect(inst, np.ones(8))


@pytest.mark.parametrize("K, M, snr_db, seeds", [(60, 40, 140.0, range(5)), (20, 2, 150.0, [2])])
def test_gmp_refuses_below_the_rounded_away_precision(K, M, snr_db, seeds):
    # At 60x40, 140 dB MMSE's Cholesky fails while gmp's inverse returns a
    # non-finite or non-positive answer; at 20x2, 150 dB, seed 2, the inverse
    # has a non-positive diagonal. gmp refuses both with MMSE's ValueError.
    for seed in seeds:
        inst = build_instance(K, M, snr_db=snr_db, channel_seed=seed)
        with pytest.raises(ValueError, match="prior's precision rounds away beside"):
            gmp_block_detect(inst, realize(inst, 1).received)


def _documented_flops(name, K, M, noiseless=False):
    """Each one-shot detector's flops, term by term as its code counts them."""
    factor = K**3 // 3 + K**3  # a Cholesky factor and its triangle inverse
    gram = 2 * M * K * K
    if name == "mmse":  # the factor, the matrix, H^T y / s, two K x K products, the variances
        return factor + (gram + K * K + K) + (2 * M * K + K) + 6 * K * K
    if name == "mf":  # the Gram, H^T y / d, the interference and the variances
        return gram + 2 * M * K + K + 2 * K * K + 6 * K
    if name == "if":  # the Gram, its factor, the decorrelator's solve ...
        flops = gram + factor + 2 * M * K + 4 * K * K
        # ... then, with noise, MMSE's matrix and factor and the combine
        return flops if noiseless else flops + (K * K + K + factor) + 2 * K * K + K + 6 * K * K
    # gmp: H^T (y / s), the block's dense products, the inverse and its product
    return M + 2 * M * M * K + 2 * M * K * K + 2 * M * M + 2 * M * K + K + 2 * K**3 + 2 * K * K


@pytest.mark.parametrize(
    "name, shape",
    [("mmse", (6, 10)), ("mf", (6, 10)), ("if", (6, 10)), ("gmp", (6, 10)),
     ("mmse", (10, 6)), ("mf", (10, 6)), ("gmp", (10, 6))],
)
def test_one_shot_flops_are_the_documented_counts(name, shape):
    detect = {"mmse": mmse_detect, "mf": matched_filter_detect,
              "if": inverse_filter_detect, "gmp": gmp_block_detect}[name]
    inst = build_instance(*shape, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    assert detect(inst, y).flops == _documented_flops(name, *shape)
    if name == "if":
        noiseless = drawn(*shape, noise_var=0.0)
        assert detect(noiseless, y).flops == _documented_flops(name, *shape, noiseless=True)


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
    # The user-side factor at either load, inverted by np.linalg.inv. Two
    # inverses of one factor round apart, and a solve with W moves that
    # apart by up to about cond(W) units of rounding: the estimate's bound
    # is 1e-13 or 4 eps cond(W), whichever is larger (1e-13 at 200x300,
    # where cond(W) is 90, and 8.4e-12 at 300x200, where it is 9.5e3).
    K, M = shape
    inst = build_instance(K, M, snr_db=10.0, channel_seed=3)
    y = realize(inst, 4).received
    r = mmse_detect(inst, y)
    H, s = inst.channel, inst.noise_var
    W = H.T @ H / s + np.diag(inst.prior.precisions)
    Linv = np.linalg.inv(np.linalg.cholesky(W))
    x_ref = Linv.T @ (Linv @ (H.T @ y / s))
    var_ref = (Linv * Linv).sum(axis=0)
    solve = max(1e-13, 4 * np.finfo(float).eps * np.linalg.cond(W))
    for got, ref, tol in (
        (_mmse_setup(inst)[0], Linv, 1e-13),
        (r.estimate, x_ref, solve),
        (r.posterior_var, var_ref, 1e-13),
    ):
        assert np.max(np.abs(got - ref)) <= tol * np.max(np.abs(ref))


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


@pytest.mark.parametrize("shape", [(30, 90), (30, 20)], ids=["30x90", "30x20"])
def test_gmp_and_the_splittings_read_mmses_matrix_bitwise(shape):
    # The matrix gmp inverts and the ones the splittings are built from are
    # the one MMSE factors, bit for bit, at either load.
    inst = build_instance(*shape, snr_db=10.0, channel_seed=5)
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

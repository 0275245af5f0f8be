"""Set-up kept on a SystemInstance (variance schedule, Gram matrix, MMSE
factor) must not change any result: a detector run on an instance that has
already served other consumers returns, bit for bit, what the same run on a
fresh instance built from the same arrays returns."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gmpdetect import (
    RelaxationChoice,
    SourcePrior,
    SystemDims,
    SystemInstance,
    Termination,
    auto_relaxation,
    generate_channel,
    gmpid,
    gmpid_detect,
    gmpid_mean_convergence_report,
    inverse_filter_detect,
    jacobi_for_mmse,
    matched_filter_detect,
    message_state,
    mmse_detect,
    richardson_for_mmse,
    sagmpid_convergence_report,
    sagmpid_detect,
    variance_recursion,
)

CONSUMERS = (
    "gmpid",
    "sagmpid-w1",
    "sagmpid-w",
    "sagmpid-auto",
    "variance_recursion",
    "auto_relaxation",
    "gmpid-report",
    "sagmpid-report",
    "gmpid-state",
    "sagmpid-w-state",
    "mmse",
    "mf",
    "if",
    "jacobi",
    "richardson",
)


def _arrays(K, M, snr_db, seed, hetero):
    rng = np.random.default_rng(seed)
    H = generate_channel(SystemDims(K, M), seed)
    variances = rng.uniform(0.5, 2.0, K) if hetero else np.ones(K)
    noise_var = float(np.mean(variances)) * 10.0 ** (-snr_db / 10.0)
    x = rng.standard_normal(K) * np.sqrt(variances)
    y = H @ x + rng.standard_normal(M) * np.sqrt(noise_var)
    return H, variances, noise_var, x, y


def _instance(H, variances, noise_var):
    M, K = H.shape
    return SystemInstance(
        dims=SystemDims(K, M),
        channel=H,
        prior=SourcePrior(variances=variances),
        noise_var=noise_var,
    )


def _message_passing(inst, y, w, max_iter, truth):
    if w is None:
        return gmpid_detect(inst, y, max_iter=max_iter, truth=truth)
    relax = None if w == "auto" else RelaxationChoice(w=w)
    return sagmpid_detect(inst, y, relax, max_iter=max_iter, truth=truth)


def _result_fields(r):
    fields = [r.estimate, r.posterior_var, r.iterations, r.flops, r.terminated]
    if r.trace is not None:
        tr = r.trace
        fields += [tr.iteration, tr.step_change, tr.cum_flops, tr.mean_variance, tr.mse_to_truth]
    return fields


def _consume(name, inst, y, w, max_iter, truth):
    """What one consumer returns, as a list of comparable fields."""
    if name == "variance_recursion":
        vv, A, sweeps = variance_recursion(inst)
        schedule = gmpid._schedule(inst)
        W = 1.0 / schedule.variances(sweeps - 1, np.empty(A.shape))
        return [vv, W, A, sweeps]
    if name == "auto_relaxation":
        relax = auto_relaxation(inst)
        return [relax.w, relax.lambda_min, relax.lambda_max]
    if name.endswith("-report"):
        # Both reports need load beta < 1: at K = M the error must match too.
        try:
            if name == "gmpid-report":
                report = gmpid_mean_convergence_report(inst)
            else:
                report = sagmpid_convergence_report(inst)
        except ValueError as exc:
            return ["raised", str(exc)]
        return [repr(report)]
    if name == "jacobi":
        it = jacobi_for_mmse(inst, y)
        return [it.matrix, it.offset]
    if name == "richardson":
        it, omega = richardson_for_mmse(inst, y)
        return [it.matrix, it.offset, omega]
    if name in ("mmse", "mf", "if"):
        detect = {"mmse": mmse_detect, "mf": matched_filter_detect, "if": inverse_filter_detect}
        return _result_fields(detect[name](inst, y))
    run_w = {"gmpid": None, "sagmpid-w1": 1.0, "sagmpid-w": w, "sagmpid-auto": "auto"}
    out = _message_passing(inst, y, run_w[name.removesuffix("-state")], max_iter, truth)
    if name == "sagmpid-auto":
        return [out.relax.w, *_result_fields(out.result)]
    if name.endswith("-state"):
        st_ = message_state(inst, y, out)
        return [st_.user_to_sum_mean, st_.user_to_sum_var, st_.sum_to_user_mean, st_.sum_to_user_var]
    return _result_fields(out.result)


def _assert_same(got, want, what):
    assert len(got) == len(want), what
    for i, (a, b) in enumerate(zip(got, want)):
        if isinstance(a, (np.ndarray, list)) or isinstance(b, (np.ndarray, list)):
            assert (a is None) == (b is None), (what, i)
            if a is not None:
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b), err_msg=f"{what} [{i}]")
        else:
            assert a == b, (what, i, a, b)


def _check_reuse(K, extra, snr_db, seed, hetero, order, max_iter, w):
    M = K + extra
    H, variances, noise_var, x, y = _arrays(K, M, snr_db, seed, hetero)
    shared = _instance(H, variances, noise_var)
    for name in order:
        got = _consume(name, shared, y, w, max_iter, x)
        want = _consume(name, _instance(H, variances, noise_var), y, w, max_iter, x)
        _assert_same(got, want, name)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    K=st.integers(1, 6),
    extra=st.integers(0, 12),
    snr_db=st.sampled_from([0.0, 10.0, 30.0]),
    seed=st.integers(0, 2**16),
    hetero=st.booleans(),
    order=st.permutations(CONSUMERS),
    max_iter=st.integers(1, 80),
    w=st.floats(0.2, 1.5),
)
# K = 1.
@example(K=1, extra=4, snr_db=10.0, seed=2, hetero=False, order=CONSUMERS, max_iter=60, w=0.7)
# K = M, where the plain run diverges (see test_reuse_examples_reach_their_edge_runs).
@example(K=5, extra=0, snr_db=30.0, seed=6, hetero=False, order=CONSUMERS[::-1], max_iter=80, w=0.4)
# A run that stops at max_iter before the weights settle.
@example(K=4, extra=8, snr_db=30.0, seed=5, hetero=True, order=CONSUMERS, max_iter=3, w=0.8)
def test_reused_instance_matches_fresh_instance(K, extra, snr_db, seed, hetero, order, max_iter, w):
    _check_reuse(K, extra, snr_db, seed, hetero, order, max_iter, w)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    K=st.integers(1, 6),
    extra=st.integers(0, 12),
    snr_db=st.sampled_from([0.0, 10.0, 30.0]),
    seed=st.integers(0, 2**16),
    hetero=st.booleans(),
    order=st.permutations(CONSUMERS),
    max_iter=st.integers(1, 80),
    w=st.floats(0.2, 1.5),
    blocks=st.integers(3, 6),
)
# A run that replays steps before the settled one, and a kept instance whose
# schedule another consumer recorded.
@example(K=4, extra=8, snr_db=10.0, seed=5, hetero=True, order=CONSUMERS, max_iter=60, w=0.8, blocks=3)
def test_reused_instance_matches_fresh_instance_in_row_blocks(
    K, extra, snr_db, seed, hetero, order, max_iter, w, blocks
):
    # The schedule steps the channel in row blocks of _BLOCK_ENTRIES
    # entries; a small budget splits these small shapes into `blocks` or
    # more (every row its own block when M < blocks).
    M = K + extra
    rows = max(1, M // blocks)
    assert -(-M // rows) >= min(M, blocks)
    with mock.patch.object(gmpid, "_BLOCK_ENTRIES", rows * K):
        _check_reuse(K, extra, snr_db, seed, hetero, order, max_iter, w)


def test_reuse_examples_reach_their_edge_runs():
    # The explicit examples above must exercise what their comments claim.
    H, variances, noise_var, x, y = _arrays(5, 5, 30.0, 6, False)
    inst = _instance(H, variances, noise_var)
    assert gmpid_detect(inst, y, max_iter=80).result.terminated is Termination.DIVERGED
    with pytest.raises(ValueError, match="beta < 1"):
        sagmpid_convergence_report(inst)

    H, variances, noise_var, x, y = _arrays(4, 12, 30.0, 5, True)
    inst = _instance(H, variances, noise_var)
    _, _, sweeps = variance_recursion(inst)
    out = gmpid_detect(inst, y, max_iter=3).result
    assert out.terminated is Termination.MAX_ITERATIONS and out.iterations < sweeps


def test_runs_on_one_instance_report_standalone_flops():
    # Flops are the analytic cost of a standalone run: a run that replays
    # the variance schedule another run recorded is charged the same.
    H, variances, noise_var, x, y = _arrays(20, 80, 10.0, 7, False)
    inst = _instance(H, variances, noise_var)
    for run in (
        lambda: gmpid_detect(inst, y).result,
        lambda: sagmpid_detect(inst, y, RelaxationChoice(w=0.8)).result,
        lambda: mmse_detect(inst, y),
        lambda: inverse_filter_detect(inst, y),
    ):
        first, second = run(), run()
        assert second.flops == first.flops
        if first.trace is not None:
            assert second.trace.cum_flops == first.trace.cum_flops

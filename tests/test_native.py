"""Tests for the compiled sum-node loops: they give the numpy statements'
bits on every schedule step and every run, they load wherever ``cc`` runs,
every channel reaches them, whatever the layout of the array passed in,
and only the settle pass writes the schedule's (M, K) buffer."""

import contextlib
import copy
import glob
import importlib.util
import os
import pickle
import shutil
import tempfile
from unittest import mock

import numpy as np
import pytest

from gmpdetect import (
    RelaxationChoice,
    SystemInstance,
    build_instance,
    gmpid_detect,
    realize,
    sagmpid_detect,
    variance_recursion,
)
from gmpdetect import _native, gmpid
from gmpdetect.cli import main
from node_reference import variances


def _numpy_statements():
    """Run the schedule's numpy statements: the loader finds no kernel."""
    return mock.patch.object(_native, "load", lambda: None)


def _refused():
    """A loader that fails the test if anything calls it."""
    def load():
        raise AssertionError("the compiled kernel was requested")
    return mock.patch.object(_native, "load", load)


def _runs(inst, y, truth):
    return (
        gmpid_detect(inst, y, max_iter=3000, truth=truth),
        sagmpid_detect(inst, y, RelaxationChoice(w=0.8), max_iter=3000, truth=truth),
        sagmpid_detect(inst, y, max_iter=3000, truth=truth),  # auto w, 1 at K = 1
    )


def _assert_bitwise(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


def _assert_same_runs(got, want):
    for a, b in zip(got, want, strict=True):
        for field in ("estimate", "posterior_var", "previous_estimate"):
            _assert_bitwise(getattr(a, field), getattr(b, field))
        assert (a.iterations, a.flops, a.terminated, a.relax) == (
            b.iterations, b.flops, b.terminated, b.relax
        )
        assert a.trace == b.trace


def test_the_kernel_loads_wherever_cc_is_on_path():
    # A runner with a C compiler must run the compiled loop: a build or load
    # that failed there would fall back to the numpy statements unnoticed.
    assert (_native.load() is not None) == (shutil.which("cc") is not None)


@pytest.mark.parametrize(
    "K, M, snr_db, channel_seed",
    [
        (100, 600, 10.0, 0),  # one block covers the channel
        (300, 400, 10.0, 0),  # two blocks of 218 and 182 rows
        (1, 12, 80.0, 0),  # K = 1
        (1, 2, 20.0, 7),  # settles on a bitwise repeat of its user weights
        (100, 111, 80.0, 0),  # near load 1: hundreds of sweeps
    ],
)
def test_kernel_and_numpy_statements_agree_bitwise(K, M, snr_db, channel_seed):
    def build():
        return build_instance(K, M, snr_db=snr_db, channel_seed=channel_seed)

    fast, slow = build(), build()
    real = realize(fast, 1)
    got = _runs(fast, real.received, real.symbols)
    with _numpy_statements():
        want = _runs(slow, real.received, real.symbols)
    _assert_same_runs(got, want)

    # The schedules recorded the same steps and hold the same settled A.
    ours, theirs = gmpid._schedule(fast), gmpid._schedule(slow)
    assert ours.settle == theirs.settle == len(ours.u) - 1
    for name in ("u", "c"):
        for a, b in zip(getattr(ours, name)[1:], getattr(theirs, name)[1:], strict=True):
            _assert_bitwise(a, b)
    _assert_bitwise(ours.A, theirs.A)
    if (K, M) == (1, 2):
        pw = [(u + ours.px).tobytes() for u in ours.u]
        assert pw[-1] in pw[:-1]

    # Every replayed step's A in full (a block as large as the channel), and
    # its A^T r and last block through the run's own blocks.
    r = realize(fast, 2).received
    full = np.empty((M, K)), np.empty((M, K))
    blocks = ours.block(), theirs.block()
    for t in range(1, ours.settle):
        with mock.patch.object(gmpid, "_BLOCK_ENTRIES", M * K):
            ours.step(t, None, full[0])
            with _numpy_statements():
                theirs.step(t, None, full[1])
        _assert_bitwise(*full)
        Ar = ours.step(t, r, blocks[0])[1]
        with _numpy_statements():
            _assert_bitwise(Ar, theirs.step(t, r, blocks[1])[1])
        _assert_bitwise(*blocks)

    # The settled step is read from the schedule's buffer, not formed again:
    # its A^T r has the same bits on both paths, and the caller's block is
    # left untouched.
    nan = np.full_like(blocks[0], np.nan), np.full_like(blocks[1], np.nan)
    settled, Ar = ours.step(ours.settle, r, nan[0])
    with _numpy_statements():
        _assert_bitwise(Ar, theirs.step(theirs.settle, r, nan[1])[1])
    assert settled and np.isnan(nan).all()


@pytest.mark.parametrize("path", ["loop", "numpy"])
@pytest.mark.parametrize(
    "K, M, snr_db",
    [
        (300, 400, 10.0),  # two blocks, settled by the rounding bound
        (2, 1, 200.0),  # settled at VARIANCE_SWEEP_CAP
    ],
)
def test_only_the_settle_pass_writes_the_schedules_buffer(K, M, snr_db, path):
    # Sweeps form A in the caller's row block; the settled step's A is
    # written into the schedule's (M, K) buffer once, by the statements of
    # its sweep, so it is H / V of that step bit for bit.
    inst = build_instance(K, M, snr_db=snr_db, channel_seed=0)
    with _numpy_statements() if path == "numpy" else contextlib.nullcontext():
        schedule = gmpid._schedule(inst)
        assert schedule.reach(3) == 3 and schedule.settle is None
        assert not schedule.A.any()
        vv, A, sweeps = variance_recursion(inst)
    assert A is schedule.A and sweeps == schedule.settle + 1
    assert not A.flags.writeable and not vv.flags.writeable
    V = variances(schedule, schedule.settle, np.empty((M, K)))
    _assert_bitwise(A, inst.channel / V)


def _row_order_sum(H, A):
    """``sum_m H[m] * A[m]``, adding one row after another from zero."""
    u = np.zeros(H.shape[1])
    for h, a in zip(H, A):
        u = u + h * a
    return u


@pytest.mark.parametrize("K, M", [(300, 400), (100, 600), (2, 7)])
def test_einsum_sums_rows_in_order_from_two_users(K, M):
    # The compiled sweep adds u[k] + h*a row after row where the numpy
    # statements call einsum. A numpy whose einsum sums in another order
    # fails here, not by splitting the loop's bits from the fallback's.
    inst = build_instance(K, M, snr_db=10.0, channel_seed=0)
    H, A = inst.channel, variance_recursion(inst)[1]
    rows = max(1, gmpid._BLOCK_ENTRIES // K)
    for lo in range(0, M, rows):
        h, a = H[lo : lo + rows], A[lo : lo + rows]
        _assert_bitwise(np.einsum("mk,mk->k", h, a), _row_order_sum(h, a))


def test_einsum_at_one_user_is_not_a_row_order_sum():
    # At K = 1 einsum sums in another order, so there the compiled sweep
    # leaves u to einsum (test_kernel_and_numpy_statements_agree_bitwise
    # holds the bits at 1x12 and 1x2).
    rng = np.random.default_rng(0)
    differ = 0
    for _ in range(100):
        H, A = rng.standard_normal((2, int(rng.integers(8, 200)), 1))
        differ += np.einsum("mk,mk->k", H, A).tobytes() != _row_order_sum(H, A).tobytes()
    assert differ > 0


def test_a_sweep_of_one_shot_detectors_never_requests_the_kernel(capsys):
    # mmse-sweep's detectors never step a variance schedule, so its process
    # builds and loads nothing; a message-passing sweep asks for the kernel.
    args = ["sweep", "--users", "8", "--antennas", "32", "--trials", "2", "--no-wall-time"]
    with _refused():
        assert main([*args, "--detectors", "mmse,mf,if,gmp"]) == 0
    calls = []
    with mock.patch.object(_native, "load", lambda: calls.append(1)):
        assert main([*args, "--detectors", "gmpid"]) == 0
    assert calls
    capsys.readouterr()


@pytest.mark.parametrize("K, M", [(300, 400), (100, 600)])  # two blocks, then one
@pytest.mark.parametrize("layout", ["F-ordered", "column-strided"])
def test_every_channel_layout_requests_the_kernel_and_gives_the_c_bits(K, M, layout):
    # The instance stores a C-contiguous float64 copy of any other layout,
    # so the schedule never chooses its path by the caller's array.
    c_order = build_instance(K, M, snr_db=10.0, channel_seed=0)
    if layout == "F-ordered":
        channel = np.asfortranarray(c_order.channel)
    else:
        channel = np.zeros((M, 2 * K))[:, ::2]
        channel[...] = c_order.channel
    assert not channel.flags.c_contiguous
    inst = SystemInstance(channel=channel, prior=c_order.prior, noise_var=c_order.noise_var)
    assert inst.channel.flags.c_contiguous
    real = realize(c_order, 1)
    kernel, calls = _native.load(), []

    def load():
        calls.append(1)
        return kernel

    with mock.patch.object(_native, "load", load):
        got = _runs(inst, real.received, real.symbols)
    assert calls
    _assert_same_runs(got, _runs(c_order, real.received, real.symbols))


def test_a_copied_instance_builds_its_own_set_up():
    # The schedule holds the addresses of its own arrays: a deep copy or a
    # pickle that kept it would sweep into the original's buffers.
    def build():
        return build_instance(20, 60, snr_db=10.0, channel_seed=1)

    inst = build()
    y = realize(inst, 1).received
    gmpid_detect(inst, y, max_iter=3)  # records part of the schedule
    want = gmpid_detect(build(), y)
    for twin in (copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert twin._setup == {}
        _assert_same_runs([gmpid_detect(twin, y)], [want])


def test_the_library_is_cached_in_the_bytecode_directory():
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    _native.load()
    directory = os.path.dirname(importlib.util.cache_from_source(_native.__file__))
    assert glob.glob(os.path.join(directory, "_native-*.so"))


def test_an_unwritable_cache_builds_in_a_private_directory(tmp_path, monkeypatch):
    # A bytecode directory under a plain file cannot be made: the library is
    # built, loaded and removed in a temporary directory, and it works.
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(
        importlib.util, "cache_from_source", lambda path: str(blocker / "cache" / "x.pyc")
    )
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    library = _native._open(shutil.which("cc"))
    kernel = library.sum_node_block
    kernel.argtypes = [_native.ctypes.c_void_p] * 4 + [_native.ctypes.c_ssize_t] * 2
    H, c, vv, A = np.array([[2.0]]), np.array([5.0]), np.array([0.5]), np.empty((1, 1))
    kernel(H.ctypes.data, c.ctypes.data, vv.ctypes.data, A.ctypes.data, 1, 1)
    assert A[0, 0] == 2.0 / (5.0 - 4.0 * 0.5)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("fault", ["no cc", "build fails"])
def test_the_loader_returns_none_when_it_cannot_build(fault, tmp_path, monkeypatch):
    monkeypatch.setattr(
        importlib.util, "cache_from_source", lambda path: str(tmp_path / "x.pyc")
    )
    if fault == "no cc":
        monkeypatch.setattr(shutil, "which", lambda name: None)
    else:
        monkeypatch.setattr(_native, "_SOURCE", "this is not C")
    assert _native.load.__wrapped__() is None
    assert list(tmp_path.iterdir()) == []

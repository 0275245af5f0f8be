"""Tests for the system model: dimensions, priors, channel generation,
trial realization, seed derivation, and the MSE metric."""

import copy
import inspect
import pickle
import warnings

import numpy as np
import pytest

from gmpdetect import (
    SourcePrior,
    SystemDims,
    SystemInstance,
    build_instance,
    derive_trial_seeds,
    generate_channel,
    jacobi_for_mmse,
    mmse_detect,
    mse,
    realize,
)
from instances import drawn


# ---------------------------------------------------------------------------
# Dimensions and load factor
# ---------------------------------------------------------------------------


def test_dims_beta_is_users_over_antennas():
    dims = SystemDims(n_users=100, n_antennas=600)
    assert dims.beta == pytest.approx(100 / 600)


def test_dims_reject_nonpositive():
    with pytest.raises(ValueError):
        SystemDims(n_users=0, n_antennas=10)
    with pytest.raises(ValueError):
        SystemDims(n_users=10, n_antennas=-1)


def test_dims_reject_a_channel_numpy_cannot_index():
    # M K 8 bytes must fit in np.intp; one more antenna crosses the bound.
    limit = int(np.iinfo(np.intp).max) // 8
    assert SystemDims(n_users=1, n_antennas=limit).n_antennas == limit
    for K, M in [(1, limit + 1), (2, 10**30), (10**30, 2), (np.int64(2), np.int64(10**18))]:
        with pytest.raises(ValueError, match="numpy can index"):
            SystemDims(n_users=K, n_antennas=M)


def test_dims_reject_sizes_that_are_not_integers():
    # numpy's draw takes integer sizes only; numpy's integers stay accepted.
    assert SystemDims(np.int64(3), np.int32(7)) == SystemDims(3, 7)
    for K, M in [(2.5, 4.0), (2, 4.0), ("2", 4)]:
        with pytest.raises(ValueError, match="must be integers"):
            SystemDims(n_users=K, n_antennas=M)
    with pytest.raises(ValueError, match="must be integers"):
        build_instance(2.5, 4, snr_db=10.0)


# ---------------------------------------------------------------------------
# Source prior
# ---------------------------------------------------------------------------


def test_prior_scalar_broadcasts_to_all_users():
    prior = SourcePrior.homogeneous(n_users=4, variance=2.0)
    np.testing.assert_allclose(prior.variances, np.full(4, 2.0))
    assert prior.is_homogeneous


def test_prior_precisions_are_reciprocal_variances():
    v = np.array([1.0, 4.0, 0.3])
    assert SourcePrior(variances=v).precisions.tobytes() == (1.0 / v).tobytes()


def test_prior_rejects_nonpositive_variance():
    # A prior is proper: an infinite (flat) or NaN variance is rejected
    # where the prior is built, not by each detector that reads it.
    for bad in ([1.0, 0.0], [-1.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="finite and positive"):
            SourcePrior(variances=np.array(bad))


@pytest.mark.parametrize("kind", ["complex", "text"])
def test_instance_and_prior_refuse_arrays_that_are_not_real(kind):
    # A complex array used to lose its imaginary part with only a
    # ComplexWarning, and a text one was parsed: both now raise first.
    H = generate_channel(SystemDims(n_users=3, n_antennas=12), seed=0)
    variances = np.array([1.0, 2.0, 0.5])
    convert = (lambda a: a + 0.5j) if kind == "complex" else (lambda a: a.astype(str))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^prior variances must hold real numbers, not"):
            SourcePrior(variances=convert(variances))
        with pytest.raises(ValueError, match="^channel must hold real numbers, not"):
            SystemInstance(channel=convert(H), prior=SourcePrior(variances), noise_var=0.1)


def test_instance_rejects_negative_noise_var():
    H = np.zeros((3, 2))
    prior = SourcePrior.homogeneous(2, 1.0)
    with pytest.raises(ValueError):
        SystemInstance(channel=H, prior=prior, noise_var=-0.1)


def test_instance_rejects_channel_shape_mismatch():
    # The channel fixes K and M; a prior for another K, a channel that is not
    # a matrix and one with no entries are rejected.
    prior = SourcePrior.homogeneous(2, 1.0)
    with pytest.raises(ValueError, match="prior length"):
        SystemInstance(channel=np.zeros((2, 3)), prior=prior, noise_var=1.0)
    for H in (np.zeros(2), np.zeros((1, 3, 2))):
        with pytest.raises(ValueError, match="M x K matrix"):
            SystemInstance(channel=H, prior=prior, noise_var=1.0)
    with pytest.raises(ValueError, match="at least 1"):
        SystemInstance(channel=np.zeros((0, 2)), prior=prior, noise_var=1.0)


def test_instance_reads_dims_from_the_channel():
    assert list(inspect.signature(SystemInstance).parameters) == ["channel", "prior", "noise_var"]
    inst = SystemInstance(
        channel=np.ones((5, 2)), prior=SourcePrior.homogeneous(2, 1.0), noise_var=0.1
    )
    assert inst.dims == SystemDims(n_users=2, n_antennas=5)
    assert build_instance(3, 7, snr_db=10.0).dims == SystemDims(3, 7)


def test_array_holding_types_compare_and_hash_by_identity():
    # Value equality would compare arrays element-wise and raise; the
    # frozen ones would hash an array and raise.
    inst = build_instance(3, 5, snr_db=10.0, channel_seed=0)
    real = realize(inst, 1)
    objects = [inst, inst.prior, real, jacobi_for_mmse(inst, real.received),
               mmse_detect(inst, real.received)]
    for obj in objects:
        assert obj == obj and obj != copy.copy(obj)
    keys = {obj: i for i, obj in enumerate(objects[:4])}
    assert [keys[obj] for obj in objects[:4]] == [0, 1, 2, 3]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instance_rejects_a_non_finite_channel(bad):
    H = generate_channel(SystemDims(n_users=3, n_antennas=12), seed=0)
    H[2, 1] = bad
    with pytest.raises(ValueError, match="^channel must be finite"):
        SystemInstance(
            channel=H,
            prior=SourcePrior.homogeneous(3, 1.0),
            noise_var=0.1,
        )


def test_instance_channel_and_prior_are_read_only_views():
    # The detectors keep per-instance set-up (Gram matrix, MMSE factor,
    # variance schedule), so a write through the instance must fail. The
    # caller's own arrays are not frozen.
    H = np.arange(6.0).reshape(3, 2) + 1.0
    v = np.array([1.0, 2.0])
    inst = SystemInstance(
        channel=H,
        prior=SourcePrior(variances=v),
        noise_var=0.1,
    )
    with pytest.raises(ValueError):
        inst.channel[0, 0] = 5.0
    with pytest.raises(ValueError):
        inst.prior.variances[0] = 5.0
    with pytest.raises(ValueError):
        inst.channel *= 2.0
    H[0, 0] = 7.0
    v[1] = 3.0
    assert H.flags.writeable and v.flags.writeable
    assert inst.channel[0, 0] == 7.0 and inst.prior.variances[1] == 3.0  # views, not copies


@pytest.mark.parametrize("twin", ["deepcopy", "pickle"])
def test_a_copied_instance_is_read_only_too(twin):
    # A copy keeps no set-up of its own yet, but once a detector has kept
    # some, a write through the copy's channel would mix the new channel
    # with the factor of the old one.
    def duplicate(obj):
        return copy.deepcopy(obj) if twin == "deepcopy" else pickle.loads(pickle.dumps(obj))

    inst = build_instance(3, 5, snr_db=10.0, channel_seed=0)
    y = realize(inst, 1).received
    t = duplicate(inst)
    mmse_detect(t, y)
    with pytest.raises(ValueError):
        t.channel[0, 0] = 5.0
    with pytest.raises(ValueError):
        t.prior.variances[0] = 5.0
    prior = duplicate(inst.prior)
    with pytest.raises(ValueError):
        prior.variances[0] = 5.0
    np.testing.assert_array_equal(t.channel, inst.channel)
    assert t.channel.flags.c_contiguous
    assert t.__dict__["dims"] == inst.dims
    np.testing.assert_array_equal(mmse_detect(t, y).estimate, mmse_detect(inst, y).estimate)


# ---------------------------------------------------------------------------
# Channel generation
# ---------------------------------------------------------------------------


def test_channel_entries_standard_normal_statistics():
    H = generate_channel(SystemDims(n_users=100, n_antennas=600), seed=0)
    assert H.shape == (600, 100)
    assert abs(float(H.mean())) <= 0.02
    assert abs(float(H.var()) - 1.0) <= 0.02


def test_channel_seed_determinism():
    dims = SystemDims(n_users=7, n_antennas=11)
    H1 = generate_channel(dims, seed=123)
    H2 = generate_channel(dims, seed=123)
    H3 = generate_channel(dims, seed=124)
    np.testing.assert_array_equal(H1, H2)
    assert not np.array_equal(H1, H3)


# ---------------------------------------------------------------------------
# Trial realization
# ---------------------------------------------------------------------------


def test_realize_near_noiseless_observation_matches_channel_times_symbols():
    inst = drawn(5, 9, noise_var=1e-30, channel_seed=3)
    real = realize(inst, seed=4)
    assert np.max(np.abs(real.received - inst.channel @ real.symbols)) < 1e-12


def test_realize_determinism_and_seed_sensitivity():
    inst = build_instance(4, 8, snr_db=10.0, channel_seed=1)
    r1 = realize(inst, seed=5)
    r2 = realize(inst, seed=5)
    r3 = realize(inst, seed=6)
    np.testing.assert_array_equal(r1.symbols, r2.symbols)
    np.testing.assert_array_equal(r1.received, r2.received)
    assert not np.array_equal(r1.received, r3.received)


def test_received_sample_variance_matches_population_value():
    # Each received entry has variance K*sigma_x^2 + sigma_n^2 when the
    # channel entries are unit-variance: here 4*1 + 1 = 5.
    samples = []
    for t in range(10_000):
        inst = drawn(4, 8, noise_var=1.0, channel_seed=t)
        real = realize(inst, seed=t + 5 * 10**5)
        samples.append(real.received)
    var = float(np.var(np.concatenate(samples)))
    assert abs(var - 5.0) / 5.0 <= 0.05


# ---------------------------------------------------------------------------
# MSE metric
# ---------------------------------------------------------------------------


def test_mse_hand_value():
    assert mse(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == pytest.approx(0.5)


def test_mse_matches_elementwise_average_of_squares():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(50)
    b = rng.standard_normal(50)
    manual = sum((ai - bi) ** 2 for ai, bi in zip(a, b)) / 50
    assert mse(a, b) == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize(
    "a, b",
    [([1 + 5j, 2.0], [1.0, 2.0]), ([1.0, 2.0], [1.0, 2 - 1j]), (["1", "2"], [1.0, 2.0]),
     ([1.0, 2.0], np.array(["1", "2"]))],
)
def test_mse_refuses_complex_and_text_inputs(a, b):
    # A cast to float would drop the imaginary part or parse the text.
    with pytest.raises(ValueError, match="must hold real numbers"):
        mse(a, b)


def test_mse_refuses_empty_vectors():
    # Not NaN with numpy's "Mean of empty slice" warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must not be empty"):
            mse(np.array([]), np.array([]))


def test_mse_symmetric_and_zero_on_identical():
    rng = np.random.default_rng(1)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    assert mse(a, b) == pytest.approx(mse(b, a), rel=1e-15)
    assert mse(a, a) == 0.0


# ---------------------------------------------------------------------------
# Seed derivation and instance construction
# ---------------------------------------------------------------------------


def test_trial_seed_derivation_is_deterministic_and_collision_free():
    seen = set()
    for index in range(4):
        for trial in range(4):
            pair = derive_trial_seeds(99, index, trial)
            assert pair == derive_trial_seeds(99, index, trial)
            assert len(pair) == 2
            seen.add(pair)
    assert len(seen) == 16


def test_build_instance_sets_noise_from_snr():
    assert build_instance(2, 4, snr_db=10.0).noise_var == pytest.approx(0.1)
    assert build_instance(2, 4, snr_db=10.0, prior_var=2.0).noise_var == pytest.approx(0.2)


# An infinite, a NaN and an overflowing noise variance, whether the product
# or the power of ten overflows.
@pytest.mark.parametrize(
    "kwargs",
    [{"snr_db": -np.inf}, {"snr_db": np.nan}, {"snr_db": -3000.0, "prior_var": 1e10},
     {"snr_db": -4000.0}],
)
def test_build_instance_rejects_non_finite_noise(kwargs):
    with pytest.raises(ValueError, match="noise_var"):
        build_instance(2, 4, **kwargs)


def test_build_instance_keeps_noiseless_edge_case():
    assert build_instance(2, 4, snr_db=np.inf).noise_var == 0.0

"""Tests for the system model: dimensions, priors, channel generation,
trial realization, seed derivation, and the MSE metric."""

import numpy as np
import pytest

from gmpdetect import (
    SourcePrior,
    SystemDims,
    SystemInstance,
    assemble_realization,
    build_instance,
    derive_trial_seeds,
    generate_channel,
    mse,
    realize,
)


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


# ---------------------------------------------------------------------------
# Source prior
# ---------------------------------------------------------------------------


def test_prior_scalar_broadcasts_to_all_users():
    prior = SourcePrior.homogeneous(n_users=4, variance=2.0)
    np.testing.assert_allclose(prior.variances, np.full(4, 2.0))
    assert prior.is_homogeneous


def test_prior_infinite_variance_gives_zero_precision():
    prior = SourcePrior(variances=np.array([1.0, np.inf]))
    np.testing.assert_allclose(prior.precisions, np.array([1.0, 0.0]))


def test_prior_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        SourcePrior(variances=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        SourcePrior(variances=np.array([-1.0]))


def test_instance_rejects_negative_noise_var():
    dims = SystemDims(n_users=2, n_antennas=3)
    H = np.zeros((3, 2))
    prior = SourcePrior.homogeneous(2, 1.0)
    with pytest.raises(ValueError):
        SystemInstance(dims=dims, channel=H, prior=prior, noise_var=-0.1)


def test_instance_rejects_channel_shape_mismatch():
    dims = SystemDims(n_users=2, n_antennas=3)
    prior = SourcePrior.homogeneous(2, 1.0)
    with pytest.raises(ValueError):
        SystemInstance(dims=dims, channel=np.zeros((2, 3)), prior=prior, noise_var=1.0)


def test_instance_channel_and_prior_are_read_only_views():
    # The detectors keep per-instance set-up (Gram matrix, MMSE factor,
    # variance schedule), so a write through the instance must fail. The
    # caller's own arrays are not frozen.
    H = np.arange(6.0).reshape(3, 2) + 1.0
    v = np.array([1.0, 2.0])
    inst = SystemInstance(
        dims=SystemDims(n_users=2, n_antennas=3),
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
    inst = build_instance(5, 9, noise_var=1e-30, channel_seed=3)
    real = realize(inst, seed=4)
    assert np.max(np.abs(real.received - inst.channel @ real.symbols)) < 1e-12


def test_assemble_realization_with_injected_vectors():
    inst = build_instance(1, 1, noise_var=1.0, channel_seed=0)
    inst = SystemInstance(
        dims=inst.dims,
        channel=np.array([[2.0]]),
        prior=inst.prior,
        noise_var=inst.noise_var,
    )
    real = assemble_realization(inst, symbols=np.array([0.5]), noise=np.array([0.1]))
    np.testing.assert_allclose(real.received, np.array([1.1]))


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
        inst = build_instance(4, 8, noise_var=1.0, channel_seed=t)
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


def test_build_instance_requires_exactly_one_noise_setting():
    with pytest.raises(ValueError):
        build_instance(2, 4)
    with pytest.raises(ValueError):
        build_instance(2, 4, snr_db=10.0, noise_var=0.1)
    inst = build_instance(2, 4, snr_db=10.0)
    assert inst.noise_var == pytest.approx(0.1)
    assert inst.snr == pytest.approx(10.0)


@pytest.mark.parametrize(
    "kwargs", [{"snr_db": -np.inf}, {"noise_var": np.inf}, {"noise_var": np.nan}]
)
def test_build_instance_rejects_non_finite_noise(kwargs):
    with pytest.raises(ValueError, match="noise_var"):
        build_instance(2, 4, **kwargs)


def test_build_instance_keeps_noiseless_edge_case():
    assert build_instance(2, 4, snr_db=np.inf).noise_var == 0.0

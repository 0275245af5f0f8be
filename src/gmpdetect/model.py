"""System model: dimensions, priors, channel instances, and realizations.

The observation model throughout is ``y = H x + n`` with an M x K real
channel matrix H of i.i.d. unit-variance Gaussian entries, zero-mean
Gaussian sources x with per-user prior variances, and white Gaussian
noise n. The number of users K is smaller than the number of antennas M
in every supported operating regime (load factor beta = K/M < 1).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of ``a``; ``a`` itself stays writeable."""
    v = a.view()
    v.flags.writeable = False
    return v


def _require_finite(v: np.ndarray, name: str = "y", length: int | None = None):
    """Raise ValueError naming ``v`` when an entry is NaN or infinite or,
    given ``length``, when ``v`` is not a vector of that length."""
    if (length is not None and np.shape(v) != (length,)) or not np.all(np.isfinite(v)):
        shape = "" if length is None else f", in shape ({length},)"
        raise ValueError(f"{name} must be finite, with no NaN or infinite entry{shape}")


@dataclass(frozen=True)
class SystemDims:
    """Problem dimensions: K transmitting users, M receive antennas."""

    n_users: int
    n_antennas: int

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_antennas < 1:
            raise ValueError("both dimensions must be at least 1")

    @property
    def beta(self) -> float:
        """Load factor: users per antenna."""
        return self.n_users / self.n_antennas


@dataclass(frozen=True)
class SourcePrior:
    """Independent zero-mean Gaussian source prior, one variance per user.

    Entries must be positive; ``+inf`` marks an (improper) flat prior and is
    honoured only by detectors that can combine in precision form.
    ``variances`` is a read-only view of the array passed in.
    """

    variances: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.variances, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("variances must be a non-empty 1-D vector")
        if not np.all(v > 0):
            raise ValueError("all prior variances must be positive")
        object.__setattr__(self, "variances", _read_only(v))

    @classmethod
    def homogeneous(cls, n_users: int, variance: float) -> "SourcePrior":
        return cls(np.full(n_users, float(variance)))

    @property
    def precisions(self) -> np.ndarray:
        """1/variance per user; a flat (+inf variance) prior has precision 0."""
        with np.errstate(divide="ignore"):
            return np.where(np.isinf(self.variances), 0.0, 1.0 / self.variances)

    @property
    def is_homogeneous(self) -> bool:
        return bool(np.all(self.variances == self.variances[0]))


@dataclass(frozen=True)
class SystemInstance:
    """One realized detection problem: channel, prior, and noise level.

    ``noise_var`` is positive and finite in every supported operating mode;
    a value of exactly 0 is tolerated at construction only for the
    noiseless decorrelator edge case, and detectors that require positive
    noise raise.

    ``channel`` is a read-only view of the array passed in, so the set-up
    the detectors keep per instance (the Gram matrix, the MMSE factor, the
    message-variance schedule, the measured spectrum) cannot go stale
    through it.
    """

    dims: SystemDims
    channel: np.ndarray  # M x K
    prior: SourcePrior
    noise_var: float
    _setup: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        H = np.asarray(self.channel, dtype=float)
        if H.shape != (self.dims.n_antennas, self.dims.n_users):
            raise ValueError(
                f"channel shape {H.shape} does not match dims "
                f"({self.dims.n_antennas}, {self.dims.n_users})"
            )
        if self.prior.variances.size != self.dims.n_users:
            raise ValueError("prior length does not match number of users")
        if not 0 <= self.noise_var < np.inf:
            raise ValueError("noise_var must be finite and non-negative")
        object.__setattr__(self, "channel", _read_only(H))

    def _cached(self, key: str, build):
        """``build(self)``, computed on first request and kept with the instance."""
        try:
            return self._setup[key]
        except KeyError:
            value = self._setup[key] = build(self)
            return value

    def _gram(self) -> np.ndarray:
        """``H^T H``, formed once per instance (read-only)."""
        return self._cached("gram", lambda inst: _read_only(inst.channel.T @ inst.channel))

    @property
    def snr(self) -> float:
        """Mean prior variance over noise variance."""
        return float(np.mean(self.prior.variances)) / self.noise_var


@dataclass(frozen=True)
class Realization:
    """One transmitted vector, noise draw, and the resulting observation."""

    symbols: np.ndarray   # length K
    noise: np.ndarray     # length M
    received: np.ndarray  # length M; equals channel @ symbols + noise


def generate_channel(dims: SystemDims, seed: int) -> np.ndarray:
    """Draw an M x K channel of i.i.d. standard-normal entries.

    Deterministic for a fixed seed; distinct seeds give independent streams.
    """
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dims.n_antennas, dims.n_users))


def realize(inst: SystemInstance, seed: int) -> Realization:
    """Draw sources and noise for one trial and form the observation."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(inst.dims.n_users) * np.sqrt(inst.prior.variances)
    n = rng.standard_normal(inst.dims.n_antennas) * np.sqrt(inst.noise_var)
    return Realization(symbols=x, noise=n, received=inst.channel @ x + n)


def assemble_realization(
    inst: SystemInstance, symbols: np.ndarray, noise: np.ndarray
) -> Realization:
    """Build a realization from externally supplied source and noise vectors."""
    x = np.asarray(symbols, dtype=float)
    n = np.asarray(noise, dtype=float)
    if x.shape != (inst.dims.n_users,) or n.shape != (inst.dims.n_antennas,):
        raise ValueError("symbol/noise vector lengths do not match dims")
    return Realization(symbols=x, noise=n, received=inst.channel @ x + n)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared error between two equal-length vectors (symmetric)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("vectors must have identical shape")
    d = a - b
    return float(np.mean(d * d))


def derive_trial_seeds(
    master_seed: int, experiment_index: int, trial: int
) -> tuple[int, int]:
    """Derive (channel_seed, realization_seed) for one Monte-Carlo trial.

    Uses a splittable seed sequence keyed on (master_seed, experiment_index,
    trial) so every trial draws an independent, reproducible stream, and the
    derivation is stable across runs and platforms.
    """
    ss = np.random.SeedSequence([master_seed, experiment_index, trial])
    cs, rs = ss.generate_state(2)
    return int(cs), int(rs)


def build_instance(
    n_users: int,
    n_antennas: int,
    *,
    snr_db: float | None = None,
    noise_var: float | None = None,
    prior_var: float = 1.0,
    channel_seed: int = 0,
) -> SystemInstance:
    """Convenience constructor for the common homogeneous case.

    Exactly one of ``snr_db`` / ``noise_var`` must be given. The SNR
    convention is prior_var / noise_var, i.e. noise_var =
    prior_var * 10**(-snr_db/10).
    """
    if (snr_db is None) == (noise_var is None):
        raise ValueError("give exactly one of snr_db or noise_var")
    if noise_var is None:
        noise_var = prior_var * 10.0 ** (-snr_db / 10.0)
    dims = SystemDims(n_users, n_antennas)
    return SystemInstance(
        dims=dims,
        channel=generate_channel(dims, channel_seed),
        prior=SourcePrior.homogeneous(n_users, prior_var),
        noise_var=float(noise_var),
    )

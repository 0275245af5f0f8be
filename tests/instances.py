"""Detection problems the tests build around an exact noise variance.

``build_instance`` sets the noise from an SNR in dB. Tests that need an
exact noise variance (0, a subnormal, 1e-8) or a channel of their own make
the instance here: :func:`from_channel` wraps a given channel matrix, and
:func:`drawn` the channel that ``build_instance`` draws for a seed.

It is a helper that test modules import, not a test module: pytest does
not collect it, since its name does not start with ``test_``.
"""
import numpy as np

from gmpdetect import SourcePrior, SystemDims, SystemInstance, generate_channel


def from_channel(H, noise_var, prior_var=1.0) -> SystemInstance:
    """Wrap channel matrix ``H``; ``prior_var`` is one variance for every
    user or one per user."""
    H = np.asarray(H, dtype=float)
    variances = np.broadcast_to(np.asarray(prior_var, dtype=float), (H.shape[1],)).copy()
    return SystemInstance(channel=H, prior=SourcePrior(variances=variances), noise_var=noise_var)


def drawn(n_users, n_antennas, noise_var, channel_seed=0) -> SystemInstance:
    """``build_instance(n_users, n_antennas, channel_seed=channel_seed)``'s
    channel and unit prior, at noise variance ``noise_var``."""
    H = generate_channel(SystemDims(n_users, n_antennas), channel_seed)
    return from_channel(H, float(noise_var))

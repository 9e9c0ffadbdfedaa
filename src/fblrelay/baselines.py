"""Infinite-blocklength reference schemes for the two-hop relay.

Two references bracket the finite-blocklength results: the outage
capacity, where the packet size comes from the Shannon capacity of the
weighted average CSI and a period is lost whenever either hop is in
outage (its rate rule is the ``outage`` scheme in ``cli.SCHEMES``), and
the ergodic Shannon capacity of the bottleneck link.  Both ignore the
blocklength entirely.
"""

import math

import numpy as np

from .fbl import shannon_c
from .fading import avg_snr, mrc_outage_cdf, rayleigh_outage_cdf


def outage_prob_relay(r, gains, params):
    """Overall relaying outage at per-hop rate r, infinite blocklength.

    A period fails when the backhaul hop is in outage or, that
    surviving, the combined direct-plus-relaying branch is: the same
    composition as the finite-blocklength overall error with the
    block-error terms replaced by sharp capacity thresholds.
    """
    if r < 0.0:
        raise ValueError("rate must be nonnegative")
    t = 2.0**r - 1.0
    p2 = rayleigh_outage_cdf(t, avg_snr(gains.g2, params))
    pmrc = mrc_outage_cdf(t, avg_snr(gains.g1, params),
                          avg_snr(gains.g3, params))
    return p2 + (1.0 - p2) * pmrc

def outage_prob_direct(r, gains, params):
    """Single-link Rayleigh outage of the direct source-destination hop."""
    return rayleigh_outage_cdf(2.0**r - 1.0, avg_snr(gains.g1, params))


# ---------------------------------------------------------------------------
# ergodic Shannon capacity
# ---------------------------------------------------------------------------

def _ergodic_from_draws(z, gains, params):
    """Per-draw bottleneck capacity, halved for the two-hop period."""
    s1 = avg_snr(gains.g1, params)
    s2 = avg_snr(gains.g2, params)
    s3 = avg_snr(gains.g3, params)
    return 0.5 * np.minimum(shannon_c(z[1] * s2),
                            shannon_c(z[0] * s1 + z[2] * s3))

def ergodic_capacity_relay(gains, params, n_samples=1000000, seed=None):
    """Monte Carlo ergodic capacity of the bottleneck link, with its SE.

    Independent of any coding rate or blocklength by construction.
    Returns (mean, standard error).
    """
    n_samples = int(n_samples)
    if n_samples < 1000000:
        raise ValueError("ergodic capacity estimate needs at least 1e6 samples")
    rng = np.random.default_rng(seed)
    cap = _ergodic_from_draws(rng.standard_exponential((3, n_samples)),
                              gains, params)
    mean = float(np.mean(cap))
    se = float(np.std(cap, ddof=1) / math.sqrt(n_samples))
    return mean, se

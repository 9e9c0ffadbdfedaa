"""Infinite-blocklength reference schemes for the two-hop relay.

Two references bracket the finite-blocklength results: the outage
capacity, where the packet size comes from the Shannon capacity of the
weighted average CSI and a period is lost whenever either hop is in
outage (its rate rule is the ``outage`` scheme in ``cli.SCHEMES``), and
the ergodic Shannon capacity of the bottleneck link.  Both ignore the
blocklength entirely.
"""

import numpy as np

from .fbl import _pow2, shannon_c
from .fading import mrc_outage_cdf, rayleigh_outage_cdf
from .montecarlo import _check_n, _sample_mean


def outage_prob_relay(r, gains):
    """Overall relaying outage at per-hop rate r, infinite blocklength.

    A period fails when the backhaul hop is in outage or, that
    surviving, the combined direct-plus-relaying branch is: the same
    composition as the finite-blocklength overall error with the
    block-error terms replaced by sharp capacity thresholds.  Broadcasts
    over an array of rates; scalars in, scalars out.
    """
    if np.any(np.asarray(r) < 0.0):
        raise ValueError("rate must be nonnegative")
    t = _pow2(r) - 1.0
    p2 = rayleigh_outage_cdf(t, gains.g2)
    pmrc = mrc_outage_cdf(t, gains.g1, gains.g3)
    return p2 + (1.0 - p2) * pmrc

# ---------------------------------------------------------------------------
# ergodic Shannon capacity
# ---------------------------------------------------------------------------

def _ergodic_per_draw(snr2, snr_mrc):
    """Per-draw bottleneck capacity, halved for the two-hop period.

    Capacity rises with SNR: one log, of the weaker SNR, written in place.
    """
    return 0.5 * shannon_c(np.minimum(snr2, snr_mrc, out=snr2))

def ergodic_capacity_relay(gains, n_samples=1000000, seed=None):
    """Monte Carlo ergodic capacity of the bottleneck link, with its SE.

    Independent of any coding rate or blocklength by construction.
    Returns an McEstimate(mean, std_err).
    """
    return _sample_mean(_ergodic_per_draw, _check_n(n_samples, 1000000),
                        seed, gains)

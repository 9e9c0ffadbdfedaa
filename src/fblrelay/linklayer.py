"""Link-layer model: Bernoulli service statistics and the maximum sustainable data rate.

A transmission period of 2m symbols delivers either r*m bits or nothing,
so the service process increment is Bernoulli.  Under a delay budget of
d symbols that may be violated with probability at most p_d, a Gaussian
approximation of the service process gives a closed-form maximum
sustainable data rate (MSDR, bits per channel use).  The error
probability feeding the Bernoulli law is the fading-averaged overall
relaying error; this module is generic in it and carries no dependency
on the physical-layer code.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class QoSPair:
    """Delay budget in symbols and tolerated violation probability."""

    d: float
    p_d: float

    def __post_init__(self):
        if self.d <= 0.0:
            raise ValueError("qos_d (delay budget) must be positive")
        if not 0.0 < self.p_d < 1.0:
            raise ValueError("qos_p_d (violation probability) must lie in (0, 1)")


class ServiceStats(NamedTuple):
    """Per-period service increment moments of the Bernoulli delivery."""

    mean: float       # bits per period
    variance: float   # bits^2 per period^2


def service_stats(r, m, eps_bar):
    """Bernoulli moments of the per-period delivered payload r*m."""
    if not 0.0 <= eps_bar <= 1.0:
        raise ValueError("error probability must lie in [0, 1]")
    payload = r * m
    return ServiceStats(payload * (1.0 - eps_bar),
                        payload**2 * eps_bar * (1.0 - eps_bar))

def msdr(r, m, eps_bar, qos):
    """Maximum sustainable data rate in bits per channel use.

    Evaluates r(1-e)/4 + (r/4)*sqrt((1-e)^2 + phi*e(1-e)) with the
    penalty factor phi = 4m*ln(p_d)/d < 0.  Returns 0.0 outside the
    feasibility region, 2m <= d and e <= 1/(1 - phi): there a period
    exceeds the delay budget or the discriminant is negative, and the
    QoS pair is unsupportable.  Sweeps over it therefore stay total.
    Broadcasts over arrays of r, m and eps_bar; scalars in, scalars out.
    """
    r, m, eps_bar = (np.asarray(x, dtype=float) for x in (r, m, eps_bar))
    if not np.all((0.0 <= eps_bar) & (eps_bar <= 1.0)):
        raise ValueError("error probability must lie in [0, 1]")
    keep = 1.0 - eps_bar
    # the inf and nan terms outside the region are not kept
    with np.errstate(over="ignore", invalid="ignore"):
        phi = 4.0 * m * math.log(qos.p_d) / qos.d
        # sqrt(keep * keep) is keep: phi = 0 gives exactly r*(1 - eps)/2
        disc = keep * keep + phi * eps_bar * keep
        # eps = 1 sustains no rate, also at r = inf (the equal-payload
        # direct scheme doubles r); disc is nan where m = d = inf
        out = np.where((eps_bar == 1.0) | (2.0 * m > qos.d) | ~(disc >= 0.0),
                       0.0, 0.25 * r * keep + 0.25 * r * np.sqrt(disc))
    return float(out) if out.ndim == 0 else out

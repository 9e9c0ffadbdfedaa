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

def qos_penalty_factor(m, qos):
    """Dimensionless delay-constraint factor 4m*ln(p_d)/d, always < 0."""
    return 4.0 * m * math.log(qos.p_d) / qos.d

def msdr_feasible(m, eps_bar, qos):
    """Whether the QoS pair is supportable at this error level.

    Requires one full period to fit the delay budget (2m <= d) and a
    nonnegative discriminant, i.e. eps_bar <= 1/(1 - penalty factor).
    """
    if 2.0 * m > qos.d:
        return False
    phi = qos_penalty_factor(m, qos)
    return (1.0 - eps_bar)**2 + phi * eps_bar * (1.0 - eps_bar) >= 0.0

def msdr(r, m, eps_bar, qos):
    """Maximum sustainable data rate in bits per channel use.

    Evaluates r(1-e)/4 + (r/4)*sqrt((1-e)^2 + phi*e(1-e)) with the
    penalty factor phi = 4m*ln(p_d)/d.  Returns 0.0 when the period
    does not fit the delay budget or the discriminant is negative
    (the QoS pair is unsupportable at this error level); sweeps over
    infeasible regions therefore stay total.
    """
    if not 0.0 <= eps_bar <= 1.0:
        raise ValueError("error probability must lie in [0, 1]")
    # a link that always fails sustains no rate, also where the payload r
    # overflowed to inf (the equal-payload direct scheme doubles r)
    if eps_bar == 1.0 or not msdr_feasible(m, eps_bar, qos):
        return 0.0
    phi = qos_penalty_factor(m, qos)
    keep = 1.0 - eps_bar
    # a vanishing penalty (unbounded delay budget) gives exactly the
    # throughput r*(1 - eps)/2: sqrt(keep**2) is keep in floating point
    disc = keep**2 + phi * eps_bar * keep
    return 0.25 * r * keep + 0.25 * r * math.sqrt(disc)

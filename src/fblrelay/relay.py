"""Two-hop decode-and-forward relaying in the finite blocklength regime.

The source picks one coding rate from weighted average CSI; each period
spends m channel uses broadcasting and m more relaying, so a payload of
r*m bits costs 2m uses.  The destination combines the two copies by
maximum ratio combining.  Comparison schemes: direct transmission over
the (weaker) source-destination link with blocklength 2m, and a
genie-aided policy that re-optimizes the rate for every fading draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fbl import LN2, achievable_rate, block_error, shannon_c
from .fading import (
    avg_snr,
    expected_error_backhaul,
    expected_error_mrc,
    expected_error_single,
)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SystemParams:
    """Static transmission parameters shared by all schemes."""

    m: float            # per-hop blocklength, channel uses
    p_tx: float         # transmit power, linear scale
    sigma2: float       # noise power, linear scale
    eps_nominal: float  # nominal error target for rate selection
    eta: float          # CSI weight factor, in (0, ln 2]

    def __post_init__(self):
        if self.m < 100:
            raise ValueError("per-hop blocklength must be at least 100")
        if self.p_tx <= 0.0 or self.sigma2 <= 0.0:
            raise ValueError("powers must be positive")
        if not 0.0 < self.eps_nominal < 1.0:
            raise ValueError("eps_nominal must lie in (0, 1)")
        if not 0.0 < self.eta <= LN2 + 1e-12:
            raise ValueError("eta must lie in (0, ln 2]")


@dataclass(frozen=True)
class LinkGains:
    """Average channel power gains: g1 direct, g2 backhaul, g3 relaying."""

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        if self.g1 <= 0.0 or self.g2 <= 0.0 or self.g3 <= 0.0:
            raise ValueError("average gains must be positive")


@dataclass(frozen=True)
class SchemeResult:
    coding_rate: float
    expected_error: float
    bl_throughput: float
    scheme: str


def select_rate_avg_csi(gains, params):
    """Coding rate from the weighted bottleneck of the average SNRs.

    Applies the nominal-error rate formula to eta * min of the backhaul
    SNR and the combined direct-plus-relaying SNR.  Returns 0.0 when the
    blocklength penalty exceeds capacity (infeasible selection).
    """
    s1 = avg_snr(gains.g1, params)
    s2 = avg_snr(gains.g2, params)
    s3 = avg_snr(gains.g3, params)
    bottleneck = params.eta * min(s2, s1 + s3)
    if bottleneck <= 0.0:
        raise ValueError("bottleneck SNR must be positive")
    return achievable_rate(bottleneck, params.eps_nominal, params.m)

def overall_error_instant(draw, r, m, gains, params):
    """Per-draw overall relaying error: backhaul plus surviving MRC loss.

    Accepts scalar or array fading draws and broadcasts.
    """
    e2 = block_error(np.asarray(draw.z2) * avg_snr(gains.g2, params), r, m)
    emrc = block_error(
        np.asarray(draw.z1) * avg_snr(gains.g1, params)
        + np.asarray(draw.z3) * avg_snr(gains.g3, params), r, m)
    return e2 + (1.0 - e2) * emrc

def expected_overall_error(r, m, gains, params):
    """Fading-averaged overall relaying error probability."""
    e2 = expected_error_backhaul(r, m, gains, params)
    emrc = expected_error_mrc(r, m, gains, params)
    return e2 + (1.0 - e2) * emrc

def bl_throughput_relay(r, m, gains, params):
    """Average relaying throughput r*(1 - E[overall error])/2."""
    return 0.5 * r * (1.0 - expected_overall_error(r, m, gains, params))

def evaluate_relay_avg_csi(gains, params):
    """Rate selection plus throughput evaluation in one step."""
    r = select_rate_avg_csi(gains, params)
    err = expected_overall_error(r, params.m, gains, params)
    return SchemeResult(r, err, 0.5 * r * (1.0 - err), "relay_avg_csi")

def bl_throughput_direct(m_direct, gains, params, mode="matched_rate"):
    """Direct transmission over the source-destination link only.

    matched_rate: same payload as relaying, i.e. half the relay rate
    over twice the per-hop blocklength.  weighted_csi: rate selected
    from the direct link's own weighted average SNR.  No halving in the
    throughput: direct transmission uses every channel use.
    """
    if mode == "matched_rate":
        r_dir = 0.5 * select_rate_avg_csi(gains, params)
        tag = "direct_matched"
    elif mode == "weighted_csi":
        s1 = params.eta * avg_snr(gains.g1, params)
        r_dir = achievable_rate(s1, params.eps_nominal, m_direct)
        tag = "direct_avg_csi"
    else:
        raise ValueError(f"unknown direct mode: {mode}")
    err = expected_error_single(r_dir, m_direct, avg_snr(gains.g1, params))
    return SchemeResult(r_dir, err, r_dir * (1.0 - err), tag)


# ---------------------------------------------------------------------------
# genie-aided perfect-CSI reference
# ---------------------------------------------------------------------------

def _throughput_per_draw(r, snr2, snr_mrc, m):
    e2 = block_error(snr2, r, m)
    emrc = block_error(snr_mrc, r, m)
    return 0.5 * r * (1.0 - (e2 + (1.0 - e2) * emrc))

def _maximize_per_draw(snr2, snr_mrc, m, tol=1e-5):
    """Golden-section search run in lockstep across a batch of draws."""
    lo = np.zeros_like(snr2)
    hi = 1.5 * shannon_c(np.minimum(snr2, snr_mrc)) + tol
    span = np.max(hi)
    steps = max(1, int(math.ceil(math.log(tol / max(span, tol))
                                 / math.log(_GOLDEN))))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc = _throughput_per_draw(c, snr2, snr_mrc, m)
    fd = _throughput_per_draw(d, snr2, snr_mrc, m)
    for _ in range(steps):
        move_up = fc < fd
        lo = np.where(move_up, c, lo)
        hi = np.where(move_up, hi, d)
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        fc = _throughput_per_draw(c, snr2, snr_mrc, m)
        fd = _throughput_per_draw(d, snr2, snr_mrc, m)
    r_best = 0.5 * (lo + hi)
    return _throughput_per_draw(r_best, snr2, snr_mrc, m)

def bl_throughput_perfect_csi(m, gains, params, n_samples=100000, seed=None):
    """Monte Carlo average of the per-draw optimal throughput.

    For every fading draw the coding rate is re-optimized against the
    instantaneous overall error.  Returns (mean, standard error).
    """
    n_samples = int(n_samples)
    if n_samples < 100000:
        raise ValueError("perfect-CSI estimate needs at least 1e5 samples")
    rng = np.random.default_rng(seed)
    z = rng.standard_exponential((3, n_samples))
    snr2 = z[1] * avg_snr(gains.g2, params)
    snr_mrc = z[0] * avg_snr(gains.g1, params) + z[2] * avg_snr(gains.g3, params)
    vals = _maximize_per_draw(snr2, snr_mrc, m)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return mean, se

"""Two-hop decode-and-forward relaying in the finite blocklength regime.

The source picks one coding rate from weighted average CSI; each period
spends m channel uses broadcasting and m more relaying, so a payload of
r*m bits costs 2m uses.  The destination combines the two copies by
maximum ratio combining.  The genie-aided comparison policy
re-optimizes the rate for every fading draw.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfcx

from .fbl import LN2, achievable_rate, block_error, dispersion_complex, q_func
from .fading import avg_snr, expected_error_backhaul, expected_error_mrc

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


def bottleneck_snr(gains, params):
    """Average SNR of the weaker of the backhaul and the combined branch."""
    s1 = avg_snr(gains.g1, params)
    s2 = avg_snr(gains.g2, params)
    s3 = avg_snr(gains.g3, params)
    return min(s2, s1 + s3)

def select_rate_avg_csi(gains, params):
    """Coding rate from the weighted bottleneck of the average SNRs.

    Applies the nominal-error rate formula to eta * bottleneck_snr.
    Returns 0.0 when the blocklength penalty exceeds capacity
    (infeasible selection).
    """
    bottleneck = params.eta * bottleneck_snr(gains, params)
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


# ---------------------------------------------------------------------------
# genie-aided perfect-CSI reference
# ---------------------------------------------------------------------------

_BLOCK = 1 << 14       # draws solved together; bounds the temporaries
_R_PAD = 1e-5          # feasible rates: [0, 1.5*C(min SNR) + _R_PAD]
_RTOL = 1e-12          # a draw is done once its relative step is this small
_MAX_STEPS = 100       # guard only: 7 steps suffice for m in [100, 1e7]
                       # and mean SNR in [1e-8, 1e8]
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

def _cap_spread(snr, m):
    """Capacity C and spread s = sqrt(V/m) of the Q argument (C - r)/s."""
    return np.log2(1.0 + snr), np.sqrt(dispersion_complex(snr) / m)

def _mills(r, c, s):
    """w = (C - r)/s and l = -d/dr log Phi(w), the Mills ratio over s.

    phi(w)/Phi(w) = sqrt(2/pi) / erfcx(-w/sqrt(2)) does not overflow in
    either tail.
    """
    w = (c - r) / s
    return w, _SQRT_2_OVER_PI / erfcx(-w / _SQRT2) / s

def _q_at(r, c, s):
    """block_error at rate r: Q((C - r)/s), and Q(0) where s = 0 (r = 0)."""
    return q_func(np.divide(c - r, s, out=np.zeros_like(r), where=s > 0.0))

def _start(c, s):
    """One link's optimal rate, approximately: the Newton start point.

    For C >> s the optimum sits where phi(w) = s/C; for C << s it tends
    to 0.75*s.
    """
    u = c / s
    return s * np.maximum(u - np.sqrt(2.0 * np.log1p(u / _SQRT_2PI)), 0.75)

def _solve_block(c2, s2, cm, sm):
    """Optimal rate of each draw, from both links' C and s."""
    top = 1.5 * np.minimum(c2, cm) + _R_PAD
    rate = np.zeros_like(top)
    # a link with zero SNR fails at every r > 0: the rate stays 0
    idx = np.flatnonzero((s2 > 0.0) & (sm > 0.0))
    c2, s2, cm, sm, hi = c2[idx], s2[idx], cm[idx], sm[idx], top[idx]
    # log f is concave, so its slope g falls from +inf at r = 0;
    # g(top) >= 0 puts the optimum on the right end of the feasible set
    g_top = 1.0 / hi - _mills(hi, c2, s2)[1] - _mills(hi, cm, sm)[1]
    at_top = g_top >= 0.0
    rate[idx[at_top]] = hi[at_top]
    idx, c2, s2, cm, sm, hi = (a[~at_top] for a in (idx, c2, s2, cm, sm, hi))
    lo = np.zeros_like(hi)
    x = np.minimum(_start(c2, s2), _start(cm, sm))
    x = np.where(x < hi, x, 0.5 * hi)
    for _ in range(_MAX_STEPS):
        if idx.size == 0:
            break
        # g = d/dr log f for f = r * Phi(w2) * Phi(wm), and its slope
        w2, l2 = _mills(x, c2, s2)
        wm, lm = _mills(x, cm, sm)
        g = 1.0 / x - l2 - lm
        dg = -1.0 / (x * x) - l2 * (w2 / s2 + l2) - lm * (wm / sm + lm)
        lo = np.where(g > 0.0, x, lo)
        hi = np.where(g > 0.0, hi, x)
        # Newton step, or bisection when the step leaves [lo, hi]; a step
        # onto a bracket end is kept, else rounding next to the root
        # would restart the bisection from the far end
        x_new = x - g / dg
        x_new = np.where((x_new >= lo) & (x_new <= hi) & (x_new > 0.0),
                         x_new, 0.5 * (lo + hi))
        done = np.abs(x_new - x) <= _RTOL * x_new
        rate[idx[done]] = x_new[done]
        idx, x, lo, hi, c2, s2, cm, sm = (
            a[~done] for a in (idx, x_new, lo, hi, c2, s2, cm, sm))
    rate[idx] = x
    return rate

def _maximize_per_draw(snr2, snr_mrc, m):
    """Per-draw optimal coding rate and throughput, as (rate, value).

    Maximizes f(r) = r*(1 - overall error)/2 over [0, 1.5*C(min SNR) +
    1e-5] for every draw.  f is log-concave, so the rate is the root of
    the closed-form d/dr log f, found by a safeguarded Newton iteration
    in which each draw stops once converged.  Draws are solved in fixed
    blocks of 2^14.  The value is block_error's formula at that rate.
    """
    snr2 = np.asarray(snr2, dtype=float)
    snr_mrc = np.asarray(snr_mrc, dtype=float)
    if np.any(snr2 < 0.0) or np.any(snr_mrc < 0.0):
        raise ValueError("per-draw SNRs must be >= 0")
    rate = np.empty_like(snr2)
    value = np.empty_like(snr2)
    for i in range(0, snr2.size, _BLOCK):
        blk = slice(i, i + _BLOCK)
        c2, s2 = _cap_spread(snr2[blk], m)
        cm, sm = _cap_spread(snr_mrc[blk], m)
        r = _solve_block(c2, s2, cm, sm)
        e2 = _q_at(r, c2, s2)
        em = _q_at(r, cm, sm)
        rate[blk] = r
        value[blk] = 0.5 * r * (1.0 - (e2 + (1.0 - e2) * em))
    return rate, value

def bl_throughput_perfect_csi(m, gains, params, n_samples=100000, seed=None):
    """Monte Carlo average of the per-draw optimal throughput.

    For every fading draw the coding rate is re-optimized against the
    instantaneous overall error.  Returns (mean, standard error).
    """
    n_samples = int(n_samples)
    if n_samples < 100000:
        raise ValueError("perfect-CSI estimate needs at least 1e5 samples "
                         "(n_samples, --mc-samples)")
    rng = np.random.default_rng(seed)
    z = rng.standard_exponential((3, n_samples))
    snr2 = z[1] * avg_snr(gains.g2, params)
    snr_mrc = z[0] * avg_snr(gains.g1, params) + z[2] * avg_snr(gains.g3, params)
    _, vals = _maximize_per_draw(snr2, snr_mrc, m)
    mean = float(np.mean(vals))
    se = float(np.std(vals, ddof=1) / math.sqrt(n_samples))
    return mean, se

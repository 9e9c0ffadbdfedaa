"""Two-hop decode-and-forward relaying in the finite blocklength regime.

The source picks one coding rate from weighted average CSI; each period
spends m channel uses broadcasting and m more relaying, so a payload of
r*m bits costs 2m uses.  The destination combines the two copies by
maximum ratio combining.  The genie-aided comparison policy
re-optimizes the rate for every fading draw: safeguarded Halley steps
from a fitted single-link optimum, which end most draws after one step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fbl import (LN2, _cap_spread, _error_at, _mills, _rational_rows,
                  achievable_rate)
from .fading import expected_error_mrc, expected_error_single
from .montecarlo import _check_n, _sample_mean

@dataclass(frozen=True)
class SystemParams:
    """Static transmission parameters shared by all schemes."""

    m: float            # per-hop blocklength, channel uses
    eps_nominal: float  # nominal error target for rate selection
    eta: float          # CSI weight factor, in (0, ln 2]

    def __post_init__(self):
        # m and eta may be arrays of one shape, a block of sweep points
        if not np.all(np.asarray(self.m) >= 100):
            raise ValueError("m (per-hop blocklength) must be at least 100")
        if not 0.0 < self.eps_nominal < 1.0:
            raise ValueError("eps_nominal must lie in (0, 1)")
        eta = np.asarray(self.eta)
        if not np.all((0.0 < eta) & (eta <= LN2 + 1e-12)):
            raise ValueError("eta must lie in (0, ln 2]")


@dataclass(frozen=True)
class LinkGains:
    """Mean received SNRs of the links: g1 direct, g2 backhaul, g3 relaying.

    Each is the link's average channel power gain times the transmit
    power over the noise power; scenario.build applies that budget.
    """

    g1: float
    g2: float
    g3: float

    def __post_init__(self):
        if self.g1 <= 0.0 or self.g2 <= 0.0 or self.g3 <= 0.0:
            raise ValueError("mean SNRs must be positive")


def bottleneck_snr(gains):
    """Average SNR of the weaker of the backhaul and the combined branch."""
    return min(gains.g2, gains.g1 + gains.g3)

def select_rate_avg_csi(gains, params):
    """Coding rate from the weighted bottleneck of the average SNRs.

    Applies the nominal-error rate formula to eta * bottleneck_snr.
    Returns 0.0 when the blocklength penalty exceeds capacity
    (infeasible selection), also where that product underflows to 0.
    Broadcasts over arrays of eta and m in params.
    """
    return achievable_rate(params.eta * bottleneck_snr(gains),
                           params.eps_nominal, params.m)

def expected_overall_error(r, m, gains):
    """Fading-averaged overall relaying error probability.

    Broadcasts over arrays of r and m; scalars in, scalars out.  A
    non-convergence carries the flat position of its entry as index.
    """
    e2 = expected_error_single(r, m, gains.g2)
    emrc = expected_error_mrc(r, m, gains)
    return e2 + (1.0 - e2) * emrc


# ---------------------------------------------------------------------------
# genie-aided perfect-CSI reference
# ---------------------------------------------------------------------------

_RTOL = 1e-6           # relative Halley step ending a draw: f is flat at argmax
_BRACKET = 1e-12       # relative bisection step that ends a draw
_MAX_STEPS = 100       # guard only: 4 Halley steps suffice for m in
                       # [100, 1e7] and mean SNR in [1e-8, 1e8] with
                       # links of like strength, the start's worst case
_SQRT_2PI = math.sqrt(2.0 * math.pi)
# One link's optimum in units of its spread s is X(u) = argmax_x
# x*Phi(u - x) at u = C/s.  Its distance from capacity, u - X, is P/Q
# with P and Q of degree 8 in t = 2*log1p(log1p(u))/log(18) - 1, which
# maps u in [0, expm1(_V_FIT)] = [0, 2.4e7] onto [-1, 1].  The rational
# was fitted against mpmath roots at 30 digits (tests/fit_start.py); its
# largest relative error in X there is 1.1e-8.  The rows are P and Q,
# from the highest power down
_V_FIT = 17.0
_T_SCALE = 2.0 / math.log1p(_V_FIT)
_START = np.array([
    [2.287176172163109, 22.542152256987197, 62.49991267113509,
     109.33289540027059, 123.35167595929396, 93.79815952992139,
     46.81752579742268, 14.199371845553147, 2.1034951694462767],
    [0.44824110038546044, -1.4085302272166809, 3.824904103871553,
     13.129853065327048, 24.082508768535263, 23.316516229603934,
     14.661070293030448, 5.237431363058345, 1.0],
])

def _start(c, s):
    """One link's optimal rate s*X(C/s) for 1-D arrays: the start point.

    X is the fitted rational up to u = C/s = 2.4e7.  It is within 1.1e-8
    of the root there, so where the other link is far weaker the first
    Halley step meets the 1e-6 stop rule.  Beyond, X is the asymptotic
    u - sqrt(2 log(1 + u/sqrt(2 pi))), where phi(u - X) = 1/u; a worse
    start costs steps, not accuracy.
    """
    u = c / s
    v = np.log1p(u)
    t = np.log1p(np.minimum(v, _V_FIT)) * _T_SCALE - 1.0
    p, q = _rational_rows(_START, t)
    x = u - p / q
    far = np.flatnonzero(v > _V_FIT)
    x[far] = u[far] - np.sqrt(2.0 * np.log1p(u[far] / _SQRT_2PI))
    return s * x

def _solve_block(c2, s2, cm, sm):
    """Optimal rate of each draw, from both links' C and s.

    The iteration runs in units of the smaller spread t = min(s2, sm),
    where its terms stay of order one however faint the draw: in plain
    units 1/r^2 and the squared Mills ratios overflow below a per-draw
    SNR of about 1e-290.
    """
    top = 1.5 * np.minimum(c2, cm)
    rate = np.zeros_like(top)
    # a link with zero SNR fails at every r > 0: the rate stays 0
    idx = np.flatnonzero((s2 > 0.0) & (sm > 0.0))
    t = np.minimum(s2[idx], sm[idx])
    c2, s2, cm, sm, hi = (a[idx] / t for a in (c2, s2, cm, sm, top))
    # log f is concave: g(top) >= 0 puts the optimum at top.  That needs
    # 1/top >= l >= sqrt(2/pi)/t on the weaker link (spread t): top < 1.3*t
    at_top = hi < 1.3
    ht = hi[at_top]
    at_top[at_top] = (1.0 / ht - _mills(ht, c2[at_top], s2[at_top])[1]
                      - _mills(ht, cm[at_top], sm[at_top])[1]) >= 0.0
    if at_top.any():
        rate[idx[at_top]] = top[idx[at_top]]
        idx, t, c2, s2, cm, sm, hi = (a[~at_top]
                                      for a in (idx, t, c2, s2, cm, sm, hi))
    lo = np.zeros_like(hi)
    x = np.minimum(_start(c2, s2), _start(cm, sm))
    x = np.where(x < hi, x, 0.5 * hi)
    for _ in range(_MAX_STEPS):
        if idx.size == 0:
            break
        # h = r * d/dr log f for f = r * Phi(w2) * Phi(wm) has the same root
        # as the slope but no pole at r = 0; dl/dr = l*a gives its slopes
        w2, l2 = _mills(x, c2, s2)
        wm, lm = _mills(x, cm, sm)
        a2, am = w2 / s2 + l2, wm / sm + lm
        d1 = l2 * a2 + lm * am
        d2 = (l2 * (a2 * (a2 + l2) - 1.0 / (s2 * s2))
              + lm * (am * (am + lm) - 1.0 / (sm * sm)))
        h, dh = 1.0 - x * (l2 + lm), -(l2 + lm) - x * d1
        lo, hi = np.where(h > 0.0, x, lo), np.where(h > 0.0, hi, x)
        # Halley step, or bisection when the step leaves [lo, hi]; a step
        # onto a bracket end is kept, else rounding next to the root
        # would restart the bisection from the far end
        x_new = x - 2.0 * h * dh / (2.0 * dh * dh + h * (2.0 * d1 + x * d2))
        step = (x_new >= lo) & (x_new <= hi) & (x_new > 0.0)
        x, x_old = np.where(step, x_new, 0.5 * (lo + hi)), x
        done = np.abs(x - x_old) <= np.where(step, _RTOL, _BRACKET) * x
        if done.any():
            fin, keep = np.flatnonzero(done), np.flatnonzero(~done)
            rate[idx[fin]] = x[fin] * t[fin]
            idx, t, x, lo, hi, c2, s2, cm, sm = (
                a[keep] for a in (idx, t, x, lo, hi, c2, s2, cm, sm))
    rate[idx] = x * t
    return rate

def _maximize_per_draw(snr2, snr_mrc, m):
    """Per-draw optimal coding rate and throughput, as (rate, value).

    Maximizes f(r) = r*(1 - overall error)/2 over [0, 1.5*C(min SNR)]
    for every draw, so f stays below C/2.  f is log-concave, so the rate
    is the root of the closed-form d/dr log f, found by a safeguarded
    Halley iteration in which each draw stops once its value is exact.
    Elementwise: a draw's result does not depend on the others.  The
    value is block_error's formula at that rate.
    """
    snr2 = np.asarray(snr2, dtype=float)
    snr_mrc = np.asarray(snr_mrc, dtype=float)
    if np.any(snr2 < 0.0) or np.any(snr_mrc < 0.0):
        raise ValueError("per-draw SNRs must be >= 0")
    c2, s2 = _cap_spread(snr2, m)
    cm, sm = _cap_spread(snr_mrc, m)
    rate = _solve_block(c2, s2, cm, sm)
    e2 = _error_at(rate, c2, s2)
    em = _error_at(rate, cm, sm)
    return rate, 0.5 * rate * (1.0 - (e2 + (1.0 - e2) * em))

def bl_throughput_perfect_csi(m, gains, n_samples=100000, seed=None):
    """Monte Carlo average of the per-draw optimal throughput.

    For every fading draw the coding rate is re-optimized against the
    instantaneous overall error.  Returns an McEstimate(mean, std_err).
    """
    return _sample_mean(lambda snr2, snr_mrc: _maximize_per_draw(
                            snr2, snr_mrc, m)[1],
                        _check_n(n_samples, 100000), seed, gains)

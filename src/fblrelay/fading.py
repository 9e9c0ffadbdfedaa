"""Rayleigh fading model and fading-averaged block error expectations.

Unit-mean exponential fading powers z modulate each link's mean SNR
(the fields g1, g2, g3 of relay.LinkGains).
The expected block error of a hop is a 1-D integral of the normal
approximation against the exponential weight; the maximum-ratio-combined
two-branch error is the corresponding 2-D integral, which collapses to
a 1-D integral against the hypoexponential density of the summed SNR.
Each average has one path, for positive mean SNRs.

Quadrature: one route, tiled 16-point Gauss-Legendre panels on [0, 40].
At large blocklength the block error drops from one toward zero across
a narrow window in z, so the panels concentrate around that window.
When the window reaches the origin (rates at or near zero) the error
behaves like 0.5 - c*sqrt(z) there, and the first panel is graded
geometrically toward z = 0 so the square-root kink is resolved.  Every
panel is then halved until two successive refinements agree; budget
exhaustion raises QuadratureNonConvergence instead of returning a bad
value.
"""

from functools import lru_cache

import numpy as np

from .fbl import LN2, _cap_spread, _threshold, block_error

# truncation of the semi-infinite domain for the panel rule: the
# integrand is a probability times e^{-z}, so the tail mass beyond 40
# is below e^{-40} < 1e-17
Z_CUTOFF = 40.0

# the Q-transition is treated as +-10 dispersion widths around the
# capacity crossing; Q(10) ~ 7.6e-24, far below every tolerance here
_TRANSITION_SIGMAS = 10.0

_TOL_BACKHAUL = 1e-9
_TOL_MRC_OUTER = 1e-8

# halvings of every panel before the self check gives up
_MAX_ROUNDS = 6

# geometric panel edges b/12 * 2^-k, k = 1..30, graded toward the origin
# when the transition window [0, b] starts there; the innermost panel is
# then 2^-30 ~ 1e-9 of the first uniform one, so the square-root kink it
# leaves unresolved is far below every tolerance
_ORIGIN_GRADING = 30


class QuadratureNonConvergence(RuntimeError):
    """Successive quadrature refinements failed to agree within budget."""


def _link_snrs(z1, z2, z3, gains):
    """Per-draw (backhaul, MRC) SNRs (z2*g2, z1*g1 + z3*g3)."""
    return z2 * gains.g2, z1 * gains.g1 + z3 * gains.g3


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _legendre():
    # loaded on first use: numpy.polynomial is not on the import path
    return np.polynomial.legendre.leggauss(16)

def _transition_hint(gain, r, m):
    """Locate the block-error drop in z as (z_star, halfwidth).

    The integrand block_error(gain*z, r, m) crosses one half where
    capacity meets the rate, at snr = 2^r - 1, so z_star >= 0.  At
    r = 0 the error drops from one half across a root-dispersion window
    at the origin.  A crossing beyond every finite z gives (inf, 0).
    """
    if r <= 0.0:
        # block_error(gain*z, 0, m) = Q(sqrt(m*gain*z/2) * ...) to first
        # order, falling below Q(10) near z = 2*10^2/(m*gain)
        return 0.0, 2.0 * _TRANSITION_SIGMAS**2 / (m * gain)
    t = _threshold(r)
    z_star = t / gain
    if z_star == np.inf:
        return z_star, 0.0
    c_slope = gain / (2.0**r * LN2)
    h = _TRANSITION_SIGMAS * float(_cap_spread(t, m)[1]) / c_slope
    return z_star, h

def _panel_edges(hint, extra=()):
    """Panel boundaries on [0, Z_CUTOFF] concentrated at the transition."""
    edges = {0.0, Z_CUTOFF}
    edges.update(e for e in extra if 0.0 < e < Z_CUTOFF)
    z_star, h = hint
    a = min(max(z_star - h, 0.0), Z_CUTOFF)
    b = min(max(z_star + h, 0.0), Z_CUTOFF)
    if b > a:
        edges.update(np.linspace(a, b, 13))
        if a == 0.0:
            # at and near r = 0 the error falls like 0.5 - c*sqrt(z)
            edges.update(b / 12.0 * 2.0**-np.arange(1, _ORIGIN_GRADING + 1))
    # geometric growth away from the window, width capped at 3
    w = max(h, 1e-12 * max(abs(z_star), 1.0))
    x = a
    while x > 0.0:
        x = max(x - w, 0.0)
        edges.add(x)
        w = min(2.0 * w, 3.0)
    w = max(h, 1e-12 * max(abs(z_star), 1.0))
    x = b
    while x < Z_CUTOFF:
        x = min(x + w, Z_CUTOFF)
        edges.add(x)
        w = min(2.0 * w, 3.0)
    return np.array(sorted(edges))

def _eval_panels(phi, edges):
    x, w = _legendre()
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    z = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return float(wt @ (np.exp(-z) * phi(z)))

def _halve(edges):
    return np.sort(np.concatenate([edges, 0.5 * (edges[1:] + edges[:-1])]))

def exp_average(phi, tol, hint, extra_edges=()):
    """E[phi(z)] for z ~ Exp(1), with a panel-halving self check.

    phi must be vectorized and bounded.  hint = (z_star, halfwidth)
    marks its sharp feature; the panels concentrate there and, when the
    window reaches the origin, grade geometrically toward z = 0.
    extra_edges adds panel boundaries for features the hint does not
    describe (e.g. a short-scale weight factor folded into phi).
    Raises QuadratureNonConvergence when _MAX_ROUNDS halvings of every
    panel leave two successive estimates more than tol apart.
    """
    edges = _panel_edges(hint, extra_edges)
    prev = _eval_panels(phi, edges)
    for _ in range(_MAX_ROUNDS):
        edges = _halve(edges)
        cur = _eval_panels(phi, edges)
        if abs(cur - prev) <= tol:
            return cur
        prev = cur
    raise QuadratureNonConvergence(
        f"no agreement within {tol:g} after {_MAX_ROUNDS} refinements "
        f"({len(edges) - 1} panels, last estimate {prev:.12g})")


# ---------------------------------------------------------------------------
# fading-averaged error expectations
# ---------------------------------------------------------------------------

def _average_error(r, m, scale, tol, weight, extra_edges):
    """E[weight(z) * block_error(scale * z, r, m)] for z ~ Exp(1), in [0, 1].

    weight None is 1, with no multiply.  Where the error drop starts at
    or beyond z = Z_CUTOFF the error is 1 up to the tail mass there,
    below an ulp of 1; the panel rule on [0, Z_CUTOFF] would return the
    truncated 1 - e^-40 = 0.999999999999998.
    """
    if r < 0.0:
        raise ValueError("rate must be nonnegative")
    z_star, h = hint = _transition_hint(scale, r, m)
    if z_star - h >= Z_CUTOFF:
        return 1.0
    if weight is None:
        phi = lambda z: block_error(scale * z, r, m)
    else:
        phi = lambda z: weight(z) * block_error(scale * z, r, m)
    # scale * z overflows to inf near z = Z_CUTOFF above scales of
    # 4.5e306, and block_error takes snr = inf to its limit
    with np.errstate(over="ignore"):
        val = exp_average(phi, tol, hint, extra_edges)
    return min(max(val, 0.0), 1.0)

def expected_error_single(r, m, mean_snr):
    """Fading-averaged block error of one Rayleigh link with mean SNR.

    Integrates e^{-z} * block_error(z * mean_snr, r, m) over z, clipped
    to [0, 1]; the last two refinements differ by at most 1e-9.
    """
    return _average_error(r, m, mean_snr, _TOL_BACKHAUL, None, ())

def expected_error_mrc(r, m, gains):
    """Fading-averaged block error after combining direct and relay copies.

    Equals the double integral of block_error(z1*g1 + z3*g3, r, m)
    against the product exponential weight; the last two refinements
    differ by at most 1e-8.
    The combined SNR is a sum of two independent exponentials, so the
    double integral collapses exactly to a single integral against the
    hypoexponential density; in units of the larger mean snr the weight
    is e^{-u} times a smooth factor handled through expm1 with no
    cancellation.  Exactly symmetric under swapping g1 and g3.
    """
    b, a = sorted((gains.g1, gains.g3))
    kappa = (a - b) / b
    if kappa < 1e-15:
        return _average_error(r, m, a, _TOL_MRC_OUTER, lambda u: u, ())
    coef = a / (a - b)
    # the weight factor turns on over u ~ 1/kappa near the origin
    return _average_error(r, m, a, _TOL_MRC_OUTER,
                          lambda u: -np.expm1(-kappa * u) * coef,
                          tuple(2.0**j / kappa for j in range(-2, 7)))

# ---------------------------------------------------------------------------
# closed-form outage of the combined gains (infinite-blocklength limit)
# ---------------------------------------------------------------------------

# the combined outage CDF is a power series in t over the smaller mean
# up to _SERIES_X, summed from n = 2 to _SERIES_TERMS + 1
_SERIES_X = 0.5
_SERIES_TERMS = 17

def rayleigh_outage_cdf(t, mean_snr):
    """P(mean_snr * z <= t) for unit-mean exponential z."""
    t = np.asarray(t, dtype=float)
    out = np.where(t > 0.0, -np.expm1(-t / mean_snr), 0.0)
    return out if out.ndim else float(out)

def _mrc_cdf_series(x, rho):
    """The two-branch outage CDF at x = t/b <= _SERIES_X, b the smaller mean.

    sum over n >= 2 of (-x)^n/n! * (rho + ... + rho^(n-1)), rho = b/a;
    rho = 1 is the Erlang-2 CDF.  The terms are positive multiples of
    the first, x^2 rho/2, and fall below 1e-17 of it by the last one.
    """
    n = np.arange(2.0, _SERIES_TERMS + 2.0)
    coef = (-1.0) ** n * np.cumsum(rho ** (n - 1.0)) / np.cumprod(n)
    return x * x * np.polyval(coef[::-1], x)

def mrc_outage_cdf(t, mean1, mean3):
    """P(z1*mean1 + z3*mean3 <= t), the two-branch combined outage.

    Two-term hypoexponential CDF for distinct means, written through
    expm1 in both terms so that neither near-equal nor far-apart means
    cancel; within a relative difference of 1e-9 it switches to the
    Erlang-2 limit.  Below
    t = _SERIES_X times the smaller mean both forms cancel (the CDF is
    about t^2/(2 mean1 mean3) there), and a power series in t over the
    smaller mean takes over.
    """
    t = np.asarray(t, dtype=float)
    tp = np.maximum(t, 0.0)
    b, a = sorted((mean1, mean3))
    # near t = 2^1023 over small means t/b and the exponents overflow to
    # +-inf, their limits
    with np.errstate(over="ignore"):
        x = tp / b
        if a - b < 1e-9 * a:
            # exp(-g) is 0 from g = 746 on: the cap keeps inf*0 out at t = inf
            g = np.minimum(tp / (0.5 * (a + b)), 1e3)
            out = -np.expm1(-g) - g * np.exp(-g)
        else:
            # t/b times d/a: a*b under/overflows beyond means of 1e+-154,
            # and d/b beyond a ratio of 1e308
            d, y = a - b, tp / a
            out = -np.expm1(-y) + np.exp(-y) * (b / d) * np.expm1(-x * (d / a))
    small = x <= _SERIES_X
    if small.any():
        out = np.where(small, _mrc_cdf_series(np.minimum(x, _SERIES_X), b / a),
                       out)
    out = np.clip(np.where(t > 0.0, out, 0.0), 0.0, 1.0)
    return out if out.ndim else float(out)

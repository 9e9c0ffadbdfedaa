"""Normal-approximation coding primitives for the finite blocklength regime.

Provides:
  * q_func / q_inv        -- Gaussian tail probability and its inverse
  * shannon_c             -- Shannon capacity of a complex channel, bits per use
  * achievable_rate       -- rate at blocklength m and target error eps
  * block_error           -- decoding error probability at rate r and blocklength m

block_error is Q((C - r)/s) with s = sqrt(V/m); its pieces _cap_spread,
_error_at and _mills also serve the perfect-CSI solver in relay,
_error_at, _capacity and _spread_at the integrand of the fading
averages, and _capacity and _spread_at the band of the Monte Carlo
estimators.

Q and the Mills ratio share one kernel, a rational fit of the scaled
complementary error function (_erfcx_ratio), in numpy alone.

All rates are in bits per channel use (log base 2). Functions broadcast over
numpy arrays; scalars in, scalars out.
"""

import math
from statistics import NormalDist

import numpy as np

LN2 = math.log(2.0)
LOG2E = np.log2(np.e)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_NORMAL = NormalDist()

# 2/erfcx(a/sqrt(2)) = h + a*M/N for a >= 0, with h = a/2 + 2 and N, M
# polynomials of degree 11 and 10 in u = 2/h - 0.45 = 4/(a + 4) - 0.45,
# which maps a in [0, inf) to (-0.45, 0.55].  The rational was fitted
# against mpmath at 50 digits (relative least squares with Lawson
# reweighting on Chebyshev points); its largest relative error over a in
# [0, 60] is 2.6e-18.  At a = 0 it is h = 2, so Q(0) is 1/2 exactly.  All
# coefficients are positive.  The kernel takes p = a/64 (see _W_CAP), so
# the rows are N and 64*M, from the highest power down.
_T0 = 0.45
_ERFCX = np.array([
    [0.0022286688040460225, 0.018886732298071536, 0.07292908938003852,
     0.21828730182247064, 0.3636670030544939, 0.7071959892944131,
     0.6403975999352605, 0.9731966340351889, 0.49429473766789095,
     0.624221498872855, 0.1507053324452821, 0.15300485100548344],
    [0.0, 0.12886848263835352, 0.11706224599196595, 4.968021858253684,
     1.6975507468274702, 29.485722897307433, 7.4972621079949215,
     61.555510109859405, 12.937719370449129, 53.772153565440036,
     7.38701445722197, 16.598545138984264],
])
# In float64 the kernel's Q(w) is exactly 1 below w = -8.3 and exactly 0
# above w = 38.6, so |w| is capped at 64 and enters the kernel as
# p = |w|/64 <= 1, exact in binary.  Only the values in between (and
# NaN) go through the kernel, gathered: that saves the kernel work where
# many values lie outside, as at the nodes of the fading averages' integrand
# (59% of them on the quadrature study's commands, 62% on the perfect-CSI
# ones), and costs about as much as it saves where few do (16% of the
# perfect-CSI solver's final errors).  The Monte Carlo estimators settle
# their draws outside (montecarlo._band) before they call block_error.
# exp(-w^2/2) is taken as exp(-w^2/4)^2 with |w| capped at 53: numpy's
# exp leaves its fast path where the result is subnormal or 0, from
# |w| = 37.7 on, while exp(-w^2/4) stays a normal float up to
# |w| = 53.2, and the square underflows to 0 at hardware speed
_W_CAP = 64.0
_P_ONE = 8.3 / _W_CAP
_P_ZERO = 38.6 / _W_CAP
_P_GAUSS = 53.0 / _W_CAP
_TINY = 5e-324
# |C - r| is capped here, beyond 64 s at every m > 0
_HUGE = 1e300


def _rational_rows(coeffs, x):
    """Each row of coeffs, highest power first, at x, by Horner's rule.

    Returns a (rows, x.size) array.  Each value takes the same
    multiplies and adds on its own, so it gets the same bits whatever
    comes with it and on every CPU; its error stays within about 2k eps
    of the sum of the terms' magnitudes at degree k (N. J. Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1).
    """
    x = x.ravel()
    out = np.empty((len(coeffs), x.size))
    for row, acc in zip(coeffs.tolist(), out):
        acc.fill(row[0])
        for c in row[1:]:
            acc *= x
            acc += c
    return out


def _erfcx_ratio(p):
    """R = 2/erfcx(64 p/sqrt(2)) for an array p >= 0; inf at p = inf."""
    h = 32.0 * p   # in place where it can be: one temporary besides h
    h += 2.0
    u = 2.0 / h
    u -= _T0
    n, m = _rational_rows(_ERFCX, u).reshape((2,) + p.shape)
    return h + p * (m / n)


def _gauss(p):
    """exp(-w^2/2) at |w| = 64 p, as exp(-w^2/4)^2, 0 from |w| = 53 on."""
    g = np.exp((-0.25 * _W_CAP * _W_CAP) * np.square(np.minimum(p, _P_GAUSS)))
    g *= g
    return g


def _q(p, below):
    """Q(w) from p = |w|/64 <= 1 and below = (w < 0).

    Q(|w|) = exp(-w^2/2) * erfcx(|w|/sqrt(2))/2, and the reflection
    1 - Q(|w|) is written |below - Q(|w|)|, one rounding either way.
    Only the values with 0 < Q < 1, and NaN, go through the kernel; the
    others are exactly below.
    """
    # C-ordered and 0-d for a scalar, so that its ravel is a writable view
    out = np.array(below, dtype=float, order="C")
    idx = np.flatnonzero(~(p >= np.where(below, _P_ONE, _P_ZERO)))
    p, below = p.ravel()[idx], below.ravel()[idx]
    out.ravel()[idx] = np.abs(below - _gauss(p) / _erfcx_ratio(p))
    return out


def q_func(w: float) -> float:
    """Gaussian tail probability Q(w) = P(N(0,1) > w)."""
    w = np.asarray(w, dtype=float)
    out = _q(np.minimum(np.abs(w) / _W_CAP, 1.0), w < 0.0)
    return float(out) if out.ndim == 0 else out


def q_inv(eps: float) -> float:
    """Inverse of q_func on (0, 1). Accurate in both tails.

    Q^-1(eps) = -Phi^-1(eps), by Wichura's algorithm AS241
    (statistics.NormalDist.inv_cdf), elementwise.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise ValueError("q_inv requires eps in the open interval (0, 1)")
    if eps.ndim == 0:
        return -_NORMAL.inv_cdf(float(eps))
    return -np.array([_NORMAL.inv_cdf(e) for e in eps.ravel().tolist()]
                     ).reshape(eps.shape)


def _mills(r, c, s):
    """w = (C - r)/s and l = -d/dr log Phi(w), the Mills ratio over s.

    phi(w)/Phi(w) = sqrt(2/pi) / erfcx(-w/sqrt(2)).  Below capacity
    (w < 0) that is R/sqrt(2 pi) with R = 2/erfcx(|w|/sqrt(2)).  Above it,
    erfcx(-x) = 2 exp(x^2) - erfcx(x) makes it g/(1 - g/R)/sqrt(2 pi)
    with g = exp(-w^2/2), which underflows to l = 0 far above capacity;
    g/R = Q(w) <= 1/2 there.  Neither tail overflows, and the limits hold:
    w = +inf gives R = inf and l = 0, w = -inf gives l = inf.
    """
    w = (c - r) / s
    p = np.abs(w) * (1.0 / _W_CAP)
    ratio = _erfcx_ratio(p)
    g = _gauss(p)
    return w, _INV_SQRT_2PI * np.where(w < 0.0, ratio,
                                       g / (1.0 - g / ratio)) / s


def _capacity(nats):
    """log2(1 + snr) from nats = log1p(snr): the one capacity expression.

    log1p keeps full precision below snr 1e-16, where 1 + snr rounds to 1.
    """
    return nats * LOG2E


def _pow2(r):
    """2^r item by item as Python's 2.0**x, inf from r = 1024 on.

    numpy's power and exp2 are an ulp off 2.0**x for some r, and these
    bits place the panel edges of the fading averages.  Scalars in,
    scalars out.
    """
    x = np.asarray(r, dtype=float)
    out = np.array([2.0**v if v < 1024.0 else math.inf
                    for v in x.ravel().tolist()]).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def shannon_c(snr: float) -> float:
    """Shannon capacity log2(1 + snr) of a complex channel at linear SNR."""
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("shannon_c requires snr >= 0")
    out = _capacity(np.log1p(snr))
    return float(out) if out.ndim == 0 else out


def _spread_at(nats, f):
    """Spread sqrt(V/m) from nats = log1p(snr) and f = LOG2E/sqrt(m).

    The one dispersion formula of the package: 1 - (1+snr)^-2 is
    -expm1(-2 log1p(snr)), with no cancellation at small snr and no
    overflow at large snr (it is exactly 1 from snr ~1e16 on).  Taking
    the root of V and of m apart keeps V/m from underflowing to 0 below
    snr ~1e-300 at large m.
    """
    return np.sqrt(-np.expm1(-2.0 * nats)) * f


def _cap_spread(snr, m):
    """Capacity C and spread s = sqrt(V/m) of the Q argument (C - r)/s."""
    nats = np.log1p(snr)
    return _capacity(nats), _spread_at(nats, LOG2E / np.sqrt(m))


def _error_at(r, c, s):
    """Q((C - r)/s), and its limit Q(+-inf) where s = 0; C = r gives Q(0).

    So zero SNR (C = s = 0) gives 1 for r > 0 and 1/2 at r = 0; a
    quotient beyond the float range (r near 1e308) is +-inf too.
    """
    # p = |d|/max(64 s, |d|) is |w|/64 while |w| <= 64, else 1, where Q is
    # 0 or 1: the quotient neither overflows nor divides by zero, and the
    # floor _TINY leaves d = s = 0 at w = 0.  Capping |d| at _HUGE takes
    # d = +-inf to p = 1 too
    d = c - r
    size = np.minimum(np.abs(d), _HUGE)
    return _q(size / np.maximum(np.maximum(_W_CAP * s, size), _TINY), d < 0.0)


def achievable_rate(snr: float, eps: float, m: float) -> float:
    """Coding rate C - sqrt(V/m) * Q^-1(eps) at blocklength m, clamped at 0.

    The clamp fires for small eps / small m corners where the penalty
    exceeds capacity.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("achievable_rate requires eps in (0, 1)")
    if np.any(np.asarray(m) < 1):
        raise ValueError("achievable_rate requires m >= 1")
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("achievable_rate requires snr >= 0")
    c, s = _cap_spread(snr, m)
    out = np.maximum(c - s * q_inv(eps), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def _has_negative(x):
    """Whether any element of the float array x is below 0; NaN is not."""
    return (float(x) if x.ndim == 0 else np.fmin.reduce(x, axis=None,
                                                         initial=0.0)) < 0.0


def block_error(snr: float, r: float, m: float) -> float:
    """Decoding error probability Q((C - r) / sqrt(V/m)) at rate r, blocklength m.

    The zero-SNR point is defined by the limit: 1 for r > 0, 0.5 for r = 0
    (capacity and dispersion both vanish there, so the Q argument degenerates).
    """
    snr = np.asarray(snr, dtype=float)
    r = np.asarray(r, dtype=float)
    if _has_negative(snr):
        raise ValueError("block_error requires snr >= 0")
    if _has_negative(r):
        raise ValueError("block_error requires r >= 0")
    out = _error_at(r, *_cap_spread(snr, m))
    return float(out) if out.ndim == 0 else out

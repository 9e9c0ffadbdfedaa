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
value.  The engine takes a batch of integrals, such as one per point of
a sweep, and evaluates 64 at a time; each keeps its own self check, so
a value does not depend on what else is in the batch.
"""

import math
from functools import lru_cache

import numpy as np

from .fbl import (LN2, LOG2E, _cap_spread, _capacity, _error_at, _pow2,
                  _spread_at)

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

# items integrated together, which bounds the panels and nodes held
_BATCH = 64

# nodes per integrand call: an expected_error_single of 100 rates takes
# least time at 8192 (7.8 ms, against 8.1 ms at 4096 and 12.1 ms at
# 16384 nodes, measured on a 2-core x86-64 machine), and the slice
# bounds the memory of the integrand's temporaries
_SLICE = 8192

# geometric panel edges b/12 * 2^-k, k = 1..30, graded toward the origin
# when the transition window [0, b] starts there; the innermost panel is
# then 2^-30 ~ 1e-9 of the first uniform one, so the square-root kink it
# leaves unresolved is far below every tolerance
_ORIGIN_GRADING = 30
_GRADING = 2.0 ** -np.arange(1.0, _ORIGIN_GRADING + 1.0)

# the window's 11 inner edges are i*step + a, i = 1..11, or
# i/12*(b - a) + a where the step underflows
_RAMPS = np.array([np.arange(1.0, 12.0), np.arange(1.0, 12.0) / 12.0])

# edges of each tail of a mesh: its widths double from at least 1e-12
# to the cap of 3 in at most 42 steps, and at most 14 steps of 3 then
# cross all of [0, Z_CUTOFF]
_TAIL = math.ceil(math.log2(3.0 / 1e-12)) + math.ceil(Z_CUTOFF / 3.0)
_DOUBLING = 2.0 ** np.arange(1.0, _TAIL)


class QuadratureNonConvergence(RuntimeError):
    """Successive quadrature refinements failed to agree within budget.

    index is the position of the failing item in its batch, or None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


# ---------------------------------------------------------------------------
# quadrature engine
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _legendre():
    # loaded on first use: numpy.polynomial is not on the import path
    return np.polynomial.legendre.leggauss(16)

def _transition_hint(gain, r, m):
    """Locate each block-error drop in z as arrays (z_star, halfwidth).

    The integrand block_error(gain*z, r, m) crosses one half where
    capacity meets the rate, at snr = 2^r - 1, so z_star >= 0.  At
    r = 0 the error drops from one half across a root-dispersion window
    at the origin.  A crossing beyond every finite z gives (inf, 0).
    Elementwise over arrays r and m of one shape.
    """
    p2 = np.asarray(_pow2(r))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t = p2 - 1.0
        z_star = t / gain
        c_slope = gain / (p2 * LN2)
        h = _TRANSITION_SIGMAS * _cap_spread(t, m)[1] / c_slope
        # block_error(gain*z, 0, m) = Q(sqrt(m*gain*z/2) * ...) to first
        # order, falling below Q(10) near z = 2*10^2/(m*gain)
        h = np.where(r <= 0.0, 2.0 * _TRANSITION_SIGMAS**2 / (m * gain),
                     np.where(z_star == np.inf, 0.0, h))
    return np.where(r <= 0.0, 0.0, z_star), h

def _meshes(z_star, h, extra=()):
    """Every item's panels on [0, Z_CUTOFF], concentrated at its transition.

    Item k's window [z_star - h, z_star + h], cut to [0, Z_CUTOFF], gets
    13 evenly spaced edges (np.linspace's, bit for bit: i*step + a, the
    last one b), graded geometrically toward z = 0 where it starts
    there; from the window the panel widths grow geometrically to the
    ends of the domain.  extra adds edges to every item.  All edges of
    an item are one row of a table, sorted and rid of repeats; an edge
    that does not apply to an item is a repeat of z = 0.  Returns (lo,
    hi, counts): the items' panels in a row, counts[k] of them for item k.
    """
    fixed = [0.0, Z_CUTOFF, *(e for e in extra if 0.0 < e < Z_CUTOFF)]
    f, g, t = len(fixed), len(fixed) + 11, len(fixed) + 11 + _ORIGIN_GRADING
    tab = np.empty((z_star.size, t + 2 * _TAIL + 2))
    ramp, grading = tab[:, f:g], tab[:, g:t]
    left, right = tab[:, t:t + _TAIL + 1], tab[:, t + _TAIL + 1:]
    tab[:, :f] = fixed
    a = np.minimum(np.maximum(z_star - h, 0.0), Z_CUTOFF)
    b = np.minimum(np.maximum(z_star + h, 0.0), Z_CUTOFF)
    # a and b where the window is open, else 0 (both are finite and >= 0)
    is_open = b > a
    aw, bw = a * is_open, b * is_open
    # the window's inner edges; np.linspace divides first where the step
    # underflows to zero
    d = bw - aw
    step = d / 12.0
    coarse = step == 0.0
    np.multiply(_RAMPS[coarse.view(np.uint8)],
                np.where(coarse, d, step)[:, None], out=ramp)
    ramp += aw[:, None]
    # at and near r = 0 the error falls like 0.5 - c*sqrt(z)
    np.multiply((bw * (aw == 0.0) / 12.0)[:, None], _GRADING, out=grading)
    # geometric growth away from the window, width capped at 3: the
    # tails step from a down and from b up by w0, min(2 w0, 3), ..., and
    # min(w0 * 2^j, 3) is min(min(w0, 3) * 2^j, 3), without overflow
    w0 = np.maximum(h, 1e-12 * np.maximum(np.abs(z_star), 1.0))
    left[:, 0], left[:, 1] = a, w0
    np.multiply(np.minimum(w0, 3.0)[:, None], _DOUBLING, out=left[:, 2:])
    np.minimum(left[:, 2:], 3.0, out=left[:, 2:])
    right[:, 0], right[:, 1:] = b, left[:, 1:]
    np.subtract.accumulate(left, axis=1, out=left)
    np.maximum(left, 0.0, out=left)
    np.add.accumulate(right, axis=1, out=right)
    np.minimum(right, Z_CUTOFF, out=right)
    # the tails' starts are the window's ends, edges where it is open
    left[:, 0], right[:, 0] = aw, bw
    tab.sort(axis=1)
    new = tab[:, 1:] != tab[:, :-1]
    return tab[:, :-1][new], tab[:, 1:][new], np.add.reduce(new, axis=1)

def _eval_panels(phi, lo, hi, counts, items):
    """Each item's panel-rule estimate, from every item's panels in a row.

    Item j owns the next counts[j] panels [lo, hi] and is items[j] to
    phi.  The nodes of all items are evaluated _SLICE at a time, and
    one reduction sums each item's weighted values over its own nodes,
    so its value does not depend on the other items.
    """
    x, w = _legendre()
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    owner = items.repeat(counts)
    vals = np.empty(lo.size * x.size)
    per = _SLICE // x.size   # panels per slice
    for p in range(0, lo.size, per):
        blk = slice(p, p + per)
        z = (mid[blk, None] + half[blk, None] * x).ravel()
        vals[p * x.size:p * x.size + z.size] = (
            np.exp(-z) * phi(z, owner[blk].repeat(x.size)))
    vals *= (half[:, None] * w).ravel()
    return np.add.reduceat(vals, (counts.cumsum() - counts) * x.size)

def _halve(lo, hi):
    """Split every panel at its midpoint, in order: (lo, mid), (mid, hi)."""
    mid = 0.5 * (hi + lo)
    return (np.column_stack((lo, mid)).ravel(),
            np.column_stack((mid, hi)).ravel())

def exp_average(phi, tol, hints, extra_edges=()):
    """E[phi(z, k)] for z ~ Exp(1), for every item k of a batch.

    hints = (z_star, halfwidth), two 1-D float arrays as _transition_hint
    returns them, marks each item's sharp feature; its panels
    concentrate there and, when the window reaches the origin, grade
    geometrically toward z = 0.  extra_edges adds panel boundaries
    to every item, for features the hints do not describe (e.g. a
    short-scale weight factor folded into phi).  phi must be vectorized
    and bounded: it gets an array of nodes z and the same-length array
    of the items they belong to, at most _SLICE nodes of several items
    per call.
    Items are integrated _BATCH at a time, so memory stays bounded.
    Each item checks itself: its panels are halved until two successive
    estimates lie within tol, and it then leaves with the later one.  So
    every item's value is bitwise what a batch of it alone gives.
    Returns the values as an array in item order, empty if none.  Raises
    QuadratureNonConvergence, with index the first item left in the
    whole batch, when _MAX_ROUNDS halvings of every panel leave two
    successive estimates of some item more than tol apart.
    """
    z_star, h = hints
    out = np.empty(z_star.size)
    for start in range(0, out.size, _BATCH):
        part = slice(start, start + _BATCH)
        lo, hi, counts = _meshes(z_star[part], h[part], extra_edges)
        items = np.arange(start, start + counts.size)
        prev = _eval_panels(phi, lo, hi, counts, items)
        for _ in range(_MAX_ROUNDS):
            if not items.size:
                break
            lo, hi = _halve(lo, hi)
            counts = 2 * counts
            cur = _eval_panels(phi, lo, hi, counts, items)
            done = np.abs(cur - prev) <= tol
            out[items[done]] = cur[done]
            live = (~done).repeat(counts)
            lo, hi, counts, items, prev = (lo[live], hi[live], counts[~done],
                                           items[~done], cur[~done])
        if items.size:
            raise QuadratureNonConvergence(
                f"no agreement within {tol:g} after {_MAX_ROUNDS} refinements "
                f"({counts[0]} panels, last estimate {prev[0]:.12g})",
                int(items[0]))
    return out


# ---------------------------------------------------------------------------
# fading-averaged error expectations
# ---------------------------------------------------------------------------

def _integrand(scale, r, m, weight):
    """phi(z, k) = weight(z) * block_error(scale * z, r[k], m[k]).

    fbl's kernel without block_error's argument checks, which the
    caller's hold: r >= 0 and scale * z >= 0.  Bitwise block_error, with
    its blocklength factor LOG2E/sqrt(m) taken once per item.  weight
    None is 1, with no multiply.
    """
    f = LOG2E / np.sqrt(m)

    def phi(z, k):
        nats = np.log1p(scale * z)
        return _error_at(r[k], _capacity(nats), _spread_at(nats, f[k]))

    if weight is None:
        return phi
    return lambda z, k: weight(z) * phi(z, k)

def _average_error(r, m, scale, tol, weight, extra_edges):
    """E[weight(z) * block_error(scale * z, r, m)] for z ~ Exp(1), in [0, 1].

    Elementwise over arrays r and m, in one batch; scalars in, scalars
    out.  weight None is 1, with no multiply.  Where the error drop
    starts at or beyond z = Z_CUTOFF the error is 1 up to the tail mass
    there, below an ulp of 1; the panel rule on [0, Z_CUTOFF] would
    return the truncated 1 - e^-40 = 0.999999999999998.  A
    non-convergence carries the flat position of its entry as index.
    """
    r, m = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(m, dtype=float))
    flat_r, flat_m = r.ravel(), m.ravel()
    if (flat_r < 0.0).any():
        raise ValueError("rate must be nonnegative")
    z_star, h = _transition_hint(scale, flat_r, flat_m)
    out = np.ones(flat_r.size)
    todo = np.flatnonzero(~(z_star - h >= Z_CUTOFF))
    phi = _integrand(scale, flat_r[todo], flat_m[todo], weight)
    # scale * z overflows to inf near z = Z_CUTOFF above scales of
    # 4.5e306, and block_error takes snr = inf to its limit
    try:
        with np.errstate(over="ignore"):
            val = exp_average(phi, tol, (z_star[todo], h[todo]), extra_edges)
    except QuadratureNonConvergence as exc:
        exc.index = int(todo[exc.index])
        raise
    out[todo] = np.minimum(np.maximum(val, 0.0), 1.0)
    out = out.reshape(r.shape)
    return float(out) if out.ndim == 0 else out

def expected_error_single(r, m, mean_snr):
    """Fading-averaged block error of one Rayleigh link with mean SNR.

    Integrates e^{-z} * block_error(z * mean_snr, r, m) over z, clipped
    to [0, 1]; the last two refinements differ by at most 1e-9.
    Broadcasts over arrays of r and m, one quadrature batch for all of
    them; scalars in, scalars out.
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
    Broadcasts over arrays of r and m like expected_error_single.
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
    with np.errstate(over="ignore"):   # t/mean_snr -> inf, its limit
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

"""Derivative-free maximizers for the throughput objectives.

The outer problems (weight factor for either throughput metric) are
quasi-concave and the per-draw coding-rate problem is concave, so a
coarse scan that certifies the rise-fall shape followed by
golden-section refinement is reliable at the stated tolerances.
Derivatives are avoided on purpose: the fading-averaged objectives sit
on quadrature with a 1e-8 tolerance floor, too noisy to difference.
"""

from dataclasses import dataclass

import numpy as np

from .fbl import shannon_c
from .fading import avg_snr
from .relay import _GOLDEN, overall_error_instant

_SCAN_POINTS = 33
_MAX_ITER = 200


@dataclass(frozen=True)
class OptResult:
    """Outcome of a one-dimensional maximization."""

    argmax: float
    value: float
    iterations: int
    bracket: float  # final interval width
    flag: str       # converged | budget_exhausted | non_unimodal_detected


def maximize_unimodal(objective, lo, hi, tol, noise_tol=1e-9):
    """Coarse scan plus golden-section search for a rise-fall objective.

    A 33-point scan seeds the bracket around the best point and checks
    the shape: any fall-then-rise pattern in the scan (ignoring
    differences below noise_tol, the quadrature noise floor) flags
    non_unimodal_detected and returns the best scanned point as-is.
    Otherwise golden-section refines until the bracket is within tol.
    The returned value is never below the scan best.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    fs = np.array([objective(x) for x in xs])
    k = int(np.argmax(fs))
    d = np.diff(fs)
    s = np.sign(d[np.abs(d) > noise_tol])
    if s.size > 1 and np.any((s[:-1] < 0) & (s[1:] > 0)):
        return OptResult(float(xs[k]), float(fs[k]), 0,
                         float(xs[1] - xs[0]), "non_unimodal_detected")
    a = float(xs[max(k - 1, 0)])
    b = float(xs[min(k + 1, _SCAN_POINTS - 1)])
    c = b - _GOLDEN * (b - a)
    dd = a + _GOLDEN * (b - a)
    fc, fd = objective(c), objective(dd)
    it = 0
    while b - a > tol and it < _MAX_ITER:
        if fc < fd:
            a, c, fc = c, dd, fd
            dd = a + _GOLDEN * (b - a)
            fd = objective(dd)
        else:
            b, dd, fd = dd, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective(c)
        it += 1
    x_best = 0.5 * (a + b)
    f_best = objective(x_best)
    if fs[k] > f_best:
        x_best, f_best = float(xs[k]), float(fs[k])
    flag = "converged" if b - a <= tol else "budget_exhausted"
    return OptResult(float(x_best), float(f_best), it, float(b - a), flag)

def maximize_rate_perfect_csi(draw, m, gains, params, tol=1e-5):
    """Best coding rate for one fading draw under instantaneous CSI.

    Maximizes r*(1 - overall error)/2 over (0, 1.5*C(bottleneck SNR)].
    The per-draw objective is log-concave (product of a linear term and
    Gaussian CDFs with draw-fixed dispersion), so the unimodal search
    applies.  Draws whose bottleneck SNR is zero yield (0, 0).
    """
    snr2 = draw.z2 * avg_snr(gains.g2, params)
    snr_mrc = (draw.z1 * avg_snr(gains.g1, params)
               + draw.z3 * avg_snr(gains.g3, params))
    cap = shannon_c(min(snr2, snr_mrc))
    if cap <= 0.0:
        return OptResult(0.0, 0.0, 0, 0.0, "converged")

    def objective(r):
        if r <= 0.0:
            return 0.0
        return 0.5 * r * (1.0 - overall_error_instant(draw, r, m, gains, params))

    return maximize_unimodal(objective, 0.0, 1.5 * cap, tol)

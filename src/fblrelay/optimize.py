"""Derivative-free maximizer for the quadrature-backed outer problems.

The outer problems (weight factor for either throughput metric) are
quasi-concave, so a coarse scan that certifies the rise-fall shape
followed by golden-section refinement is reliable at the stated
tolerances.  Derivatives are avoided on purpose: these objectives sit
on quadrature with a 1e-8 tolerance floor, too noisy to difference.
The per-draw coding-rate problem has a closed-form derivative and is
solved by safeguarded Halley steps in relay instead.
"""

import math
from dataclasses import dataclass

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 33
_MAX_ITER = 200
_NOISE_TOL = 1e-9   # scan differences below this are quadrature noise


@dataclass(frozen=True)
class OptResult:
    """Outcome of a one-dimensional maximization."""

    argmax: float
    value: float
    iterations: int
    flag: str       # converged | budget_exhausted | non_unimodal_detected


def maximize_unimodal(objective, lo, hi, tol):
    """Coarse scan plus golden-section search for a rise-fall objective.

    objective maps an array of points to an array of values, and a float
    to a float: the scan is one call on all its points, and each
    golden-section step one call on a float.
    A 33-point scan seeds the bracket around the best point and checks
    the shape: any fall-then-rise pattern in the scan (ignoring
    differences below 1e-9, the quadrature noise floor) flags
    non_unimodal_detected and returns the best scanned point as-is.
    Otherwise golden-section refines until the bracket is within tol.
    The returned value is never below the scan best.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    xs = np.linspace(lo, hi, _SCAN_POINTS)
    fs = np.asarray(objective(xs), dtype=float)
    k = int(np.argmax(fs))
    d = np.diff(fs)
    s = np.sign(d[np.abs(d) > _NOISE_TOL])
    if s.size > 1 and np.any((s[:-1] < 0) & (s[1:] > 0)):
        return OptResult(float(xs[k]), float(fs[k]), 0,
                         "non_unimodal_detected")
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
    return OptResult(float(x_best), float(f_best), it, flag)

"""The normal approximation against mpmath at 40 digits, across its domain.

Every number fblrelay prints passes through Q((C - r)/sqrt(V/m)).  This
sweep holds Q, the Mills ratio phi/Phi of the perfect-CSI solver,
capacity, dispersion, block_error and the single-link and combined
(MRC) fading averages to stated bounds over snr 1e-300..1e300, m
100..1e7 and r 0..10.  The Q and Mills bounds are the largest relative
errors of scipy.special's erfc and erfcx on the same 2001-point grids;
the numpy kernel in fblrelay.fbl must meet them too.  Every value must be finite, and pytest turns every
RuntimeWarning into an error (pyproject.toml).  The fading-average
references are mpmath integrals frozen in oracle_sweep_refs.json and
oracle_sweep_mrc_refs.json by freeze_oracle_sweep.py; one of each is
recomputed on every run.
"""

import json
import math
import pathlib

import mpmath as mp
import numpy as np
import pytest

from fblrelay.fading import expected_error_mrc, expected_error_single
from fblrelay.fbl import (
    LOG2E,
    _mills,
    _spread_at,
    block_error,
    q_func,
    shannon_c,
)
from fblrelay.relay import LinkGains

SNRS = [10.0**k for k in range(-300, 301, 50)]
BLOCKLENGTHS = [100.0, 1e4, 1e7]
RATES = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0]
MEAN_SNRS = [1e-300, 1e-30, 1e-3, 1.0, 1e3, 1e30, 1e300]
EPS = np.finfo(float).eps
# _expected_error_ref on the grid BLOCKLENGTHS x MEAN_SNRS x RATES, as
# rows [m, mean_snr, r, reference]; tests/freeze_oracle_sweep.py writes it
FROZEN = pathlib.Path(__file__).with_name("oracle_sweep_refs.json")
# mean SNR pairs (g1, g3) of the combined average: equal, near-equal,
# distinct and far apart
MRC_MEANS = [(2.0, 2.0), (1.0, 1.0 + 1e-9), (0.5, 2.0), (1e3, 2e2),
             (1e-3, 1e3), (1e-30, 1e30)]
# _expected_error_mrc_ref on BLOCKLENGTHS x MRC_MEANS x RATES, as rows
# [m, g1, g3, r, reference]
FROZEN_MRC = FROZEN.with_name("oracle_sweep_mrc_refs.json")


@pytest.fixture(autouse=True)
def _forty_digits():
    with mp.workdps(40):
        yield


def _q(w):
    return mp.erfc(mp.mpf(w) / mp.sqrt(2)) / 2


def _mills_ref(w):
    w = mp.mpf(w)
    return mp.npdf(w) / mp.ncdf(w)


def _cap_disp(g):
    """log2(1 + g) and (1 - (1 + g)^-2) * log2(e)^2, exact at tiny g."""
    g = mp.mpf(g)
    return (mp.log1p(g) / mp.log(2),
            g * (g + 2) / (1 + g) ** 2 / mp.log(2) ** 2)


def _rel_err(values, refs):
    return max(abs(mp.mpf(float(v)) - r) / abs(r) for v, r in zip(values, refs))


@pytest.mark.parametrize("lo, hi, bound", [
    (-5.0, 5.0, 3.9e-15),
    (5.0, 20.0, 6.4e-14),
    (20.0, 37.0, 2.3e-13),
])
def test_q_func_relative_error(lo, hi, bound):
    # the bound grows with w: an ulp of w^2/2 moves exp(-w^2/2) by w^2/2
    # ulps
    w = np.linspace(lo, hi, 2001)
    values = q_func(w)
    assert np.all(np.isfinite(values))
    assert _rel_err(values, [_q(x) for x in w]) <= bound


def test_q_func_correctly_rounded_below_minus_5():
    # 1 - Q(|w|) with Q(|w|) < 3e-7: the tail's own error is far below
    # half an ulp of the result
    w = np.linspace(-38.0, -5.0, 2001)
    assert np.array_equal(q_func(w), [float(_q(x)) for x in w])


@pytest.mark.parametrize("lo, hi, bound", [
    (-38.0, -5.0, 4.8e-16),
    (-5.0, 5.0, 3.7e-15),
    (5.0, 30.0, 1.6e-13),
])
def test_mills_ratio_relative_error(lo, hi, bound):
    # _mills(r, c, s) at r = 0, s = 1 is (w, phi(w)/Phi(w)) with w = c
    w = np.linspace(lo, hi, 2001)
    back, values = _mills(0.0, w, 1.0)
    assert np.array_equal(back, w)
    assert np.all(np.isfinite(values))
    assert _rel_err(values, [_mills_ref(x) for x in w]) <= bound


def test_mills_ratio_limits():
    # far above capacity phi/Phi underflows to 0; far below it it is -w
    # to within 1/w^2, beyond the reach of mpmath's ncdf
    w = np.array([-1e300, -1e10, -40.0, 40.0, 1e10, 1e300])
    _, values = _mills(0.0, w, 1.0)
    refs = [-mp.mpf(w[0]), -mp.mpf(w[1]), _mills_ref(w[2])]
    assert _rel_err(values[:3], refs) <= 4.8e-16
    assert np.array_equal(values[3:], [0.0, 0.0, 0.0])
    # and in the limits themselves
    _, values = _mills(0.0, np.array([-np.inf, np.inf]), 1.0)
    assert np.array_equal(values, [np.inf, 0.0])


def test_capacity_and_dispersion_relative_error():
    snr = np.array(SNRS)
    c = shannon_c(snr)
    # V = m * s^2 at m = 1, from the package's one dispersion formula
    v = np.square(_spread_at(np.log1p(snr), LOG2E))
    c_ref, v_ref = zip(*map(_cap_disp, SNRS))
    assert np.all(np.isfinite(c)) and np.all(np.isfinite(v))
    assert _rel_err(c, c_ref) <= 2 * EPS
    assert _rel_err(v, v_ref) <= 4 * EPS


def _block_error_ref(snr, r, m):
    """(Q(w), w, (C + r)/s) at the exact float inputs."""
    c, v = _cap_disp(snr)
    s = mp.sqrt(v / m)
    w = (c - r) / s
    return _q(w), w, (c + r) / s


def _q_bound(w):
    """The Q bounds of test_q_func_relative_error, by the region of w."""
    a = abs(w)
    return 3.9e-15 if a <= 5 else 6.4e-14 if a <= 20 else 2.3e-13


def test_block_error_relative_error():
    # rounding C and V to float moves the Q argument w by a few ulps of
    # (C + r)/s and of w, which moves Q by phi(w)/Q(w) times that; errors
    # below the smallest normal float do not count
    for m in BLOCKLENGTHS:
        for r in RATES:
            values = block_error(np.array(SNRS), r, m)
            assert np.all(np.isfinite(values))
            for snr, value in zip(SNRS, values):
                ref, w, scale = _block_error_ref(snr, r, m)
                err = abs(mp.mpf(float(value)) - ref)
                if err > 2.3e-308:
                    cond = mp.npdf(w) / ref * (scale + abs(w))
                    bound = _q_bound(w) + 4 * EPS * cond
                    assert err <= bound * ref, (snr, r, m)


def _expected_error_ref(r, m, mean_snr):
    """E[Q(w(mean_snr * z))] over z ~ Exp(1), by mp.quad split at the drop."""
    def f(z):
        if z == 0:
            return mp.mpf(0.5) if r == 0 else mp.mpf(1)
        q = _block_error_ref(mean_snr * z, r, m)[0]
        return mp.exp(-z) * q
    t = mp.mpf(2) ** r - 1
    z_star = t / mean_snr
    # the drop's width in z: ten spreads over the capacity slope
    g = t if r > 0 else mp.mpf(1) / m
    s = mp.sqrt(_cap_disp(g)[1] / m)
    h = 10 * s * (1 + g) * mp.log(2) / mean_snr
    points = {mp.mpf(0), mp.inf} | {
        p for p in (z_star - 3 * h, z_star, z_star + 3 * h) if 0 < p < 100}
    # 20 digits are ample for an absolute bound of 1e-14, at half the cost
    with mp.workdps(20):
        return mp.quad(f, sorted(points))


def _expected_error_mrc_ref(r, m, g1, g3):
    """E[Q(w(x))] over the combined SNR x = g1 z1 + g3 z3, by mp.quad.

    x has the hypoexponential density, or the Erlang-2 one for equal
    means.  The range is split densely at the drop, around it and
    geometrically toward the origin from it and from both means: with
    fewer splits mp.quad was off by up to 6e-15 where its own error
    estimate read 1e-22.  With another such split set the values agree
    to 1e-21.
    """
    a, b = mp.mpf(max(g1, g3)), mp.mpf(min(g1, g3))

    def f(x):
        if x == 0:
            return mp.mpf(0)
        if a == b:
            density = x / a**2 * mp.exp(-x / a)
        else:
            density = (-mp.exp(-x / a) * mp.expm1(-x * (a - b) / (a * b))
                       / (a - b))
        return _block_error_ref(x, r, m)[0] * density
    t = mp.mpf(2) ** r - 1
    g = t if r > 0 else mp.mpf(1) / m
    h = 10 * mp.sqrt(_cap_disp(g)[1] / m) * (1 + g) * mp.log(2)
    points = ([t + k * h / 4 for k in range(-12, 13)] + [4 * a, 16 * a]
              + [p * mp.mpf(2) ** -j for p in (t, b, a) for j in range(12)])
    points = {mp.mpf(0), mp.inf} | {p for p in points if 0 < p < 100 * a}
    with mp.workdps(20):
        return mp.quad(f, sorted(points))


def _frozen_refs():
    return json.loads(FROZEN.read_text(encoding="utf-8"))["refs"]


@pytest.mark.parametrize("m", BLOCKLENGTHS)
def test_expected_error_single_absolute_error(m):
    # the panel engine stops once two refinements agree to 1e-9, and
    # then it is far closer than that; the references are frozen on the
    # grid they were computed on
    rows = [row for row in _frozen_refs() if row[0] == m]
    assert [row[1:3] for row in rows] == [[s, r] for s in MEAN_SNRS
                                          for r in RATES]
    worst = 0.0
    for _, mean_snr, r, ref in rows:
        value = expected_error_single(r, m, mean_snr)
        assert math.isfinite(value)
        worst = max(worst, float(abs(value - mp.mpf(ref))))
    assert worst <= 1e-14


def test_frozen_reference_recomputes():
    # one frozen value, on the error drop, recomputed live
    m, mean_snr, r, ref = next(row for row in _frozen_refs()
                               if row[:3] == [1e4, 1.0, 1.0])
    assert abs(_expected_error_ref(r, m, mean_snr) - mp.mpf(ref)) <= 1e-18


def _frozen_mrc_refs():
    return json.loads(FROZEN_MRC.read_text(encoding="utf-8"))["refs"]


@pytest.mark.parametrize("m", BLOCKLENGTHS)
def test_expected_error_mrc_absolute_error(m):
    # the engine stops once two refinements agree to 1e-8; the largest
    # error on the grid was 4.4e-16, two ulps below 1 at r = 10, m = 100
    rows = [row for row in _frozen_mrc_refs() if row[0] == m]
    assert [row[1:4] for row in rows] == [[g1, g3, r] for g1, g3 in MRC_MEANS
                                          for r in RATES]
    worst = 0.0
    for _, g1, g3, r, ref in rows:
        value = expected_error_mrc(r, m, LinkGains(g1, 1.0, g3))
        assert math.isfinite(value)
        worst = max(worst, float(abs(value - mp.mpf(ref))))
    assert worst <= 1e-15


def test_frozen_mrc_reference_recomputes():
    # one frozen value of distinct means, on the error drop, recomputed live
    m, g1, g3, r, ref = next(row for row in _frozen_mrc_refs()
                             if row[:4] == [1e4, 0.5, 2.0, 1.0])
    assert abs(_expected_error_mrc_ref(r, m, g1, g3) - mp.mpf(ref)) <= 1e-18

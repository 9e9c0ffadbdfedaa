"""Tests for the scan-seeded golden-section maximizer and the per-draw rate."""

import math

import numpy as np
import pytest

from fblrelay.fbl import shannon_c
from fblrelay.relay import (
    LinkGains,
    SystemParams,
    _maximize_per_draw,
    expected_overall_error,
    select_rate_avg_csi,
)
from fblrelay.linklayer import QoSPair, msdr
from fblrelay.optimize import maximize_unimodal
from oracles import overall_error_instant

REF_GAINS = LinkGains(g1=2.4463, g2=307.405, g3=307.405)
REF_QOS = QoSPair(d=1e4, p_d=1e-2)

def _params(eta, m=500):
    return SystemParams(m=m, eps_nominal=1e-3, eta=eta)

def _relay_avg(eta):
    """Selected rate and its expected error on the reference scenario."""
    p = _params(eta)
    r = select_rate_avg_csi(REF_GAINS, p)
    return r, expected_overall_error(r, p.m, REF_GAINS)

# frozen continuous optima on the reference scenario (tol 1e-4)
CBL_ETA_STAR = 0.15093695130331053
CBL_STAR = 2.081072454762186
MSDR_ETA_STAR = 0.11984077788853828
MSDR_STAR = 1.9526991319671367


# ---------------------------------------------------------------------------
# generic unimodal search: the objective takes the scan's points as one
# array, and each golden-section point as a float
# ---------------------------------------------------------------------------

def test_parabola_argmax():
    res = maximize_unimodal(lambda x: -(x - 0.3)**2, 0.0, 1.0, 1e-6)
    assert res.flag == "converged"
    assert res.argmax == pytest.approx(0.3, abs=1e-6)
    assert res.value == pytest.approx(0.0, abs=1e-12)

def test_constant_objective():
    res = maximize_unimodal(lambda x: 0.0 * x + 1.25, 0.0, 1.0, 1e-6)
    assert res.flag == "converged"
    assert res.value == 1.25

def test_monotone_objective_finds_endpoint():
    res = maximize_unimodal(lambda x: 2.0 * x, 0.0, 1.0, 1e-6)
    assert res.flag == "converged"
    assert res.argmax == pytest.approx(1.0, abs=1e-6)

def test_two_humps_flagged():
    def f(x):
        return np.exp(-(x - 0.2)**2 / 1e-3) + 0.8 * np.exp(-(x - 0.8)**2 / 1e-3)
    res = maximize_unimodal(f, 0.0, 1.0, 1e-6)
    assert res.flag == "non_unimodal_detected"
    # still reports the best scanned point, near the taller hump
    assert abs(res.argmax - 0.2) < 0.05
    assert res.iterations == 0

def test_value_never_below_scan_best():
    def f(x):
        return -(x - 0.37)**4
    res = maximize_unimodal(f, 0.0, 1.0, 1e-8)
    scan_best = max(f(x) for x in np.linspace(0.0, 1.0, 33))
    assert res.value >= scan_best - 1e-12

def test_rejects_empty_interval():
    with pytest.raises(ValueError):
        maximize_unimodal(lambda x: x, 1.0, 1.0, 1e-6)


# ---------------------------------------------------------------------------
# scenario objectives: certified shapes never trip the flag
# ---------------------------------------------------------------------------

def test_throughput_weight_optimum():
    def objective(eta):
        r, err = _relay_avg(eta)
        return 0.5 * r * (1.0 - err)
    res = maximize_unimodal(objective, 0.01, math.log(2.0), 1e-4)
    assert res.flag == "converged"
    assert 0.1 <= res.argmax <= 0.3
    assert res.argmax == pytest.approx(CBL_ETA_STAR, abs=1e-6)
    assert res.value == pytest.approx(CBL_STAR, rel=1e-9)

def test_msdr_weight_optimum():
    def objective(eta):
        r, err = _relay_avg(eta)
        return msdr(r, 500, err, REF_QOS)
    res = maximize_unimodal(objective, 0.01, math.log(2.0), 1e-4)
    assert res.flag == "converged"
    assert res.argmax == pytest.approx(MSDR_ETA_STAR, abs=1e-6)
    assert res.value == pytest.approx(MSDR_STAR, rel=1e-9)

def test_msdr_optimum_below_throughput_optimum():
    assert MSDR_ETA_STAR < CBL_ETA_STAR


# ---------------------------------------------------------------------------
# per-draw rate optimization
# ---------------------------------------------------------------------------

def _solve_draw(draw, m, gains):
    """(rate, value) of one draw, through the batch solver."""
    snr2 = np.array([draw[1] * gains.g2])
    snr_mrc = np.array([draw[0] * gains.g1 + draw[2] * gains.g3])
    rate, value = _maximize_per_draw(snr2, snr_mrc, m)
    return rate[0], value[0]

def test_zero_gain_draw():
    rate, value = _solve_draw((1.0, 0.0, 1.0), 500, REF_GAINS)
    assert rate == 0.0 and value == 0.0

def test_big_gain_draw_approaches_half_capacity():
    g = LinkGains(g1=1e8, g2=1e8, g3=1e8)
    _, value = _solve_draw((1.0, 1.0, 1.0), 500, g)
    assert value == pytest.approx(0.5 * shannon_c(1e8), rel=0.01)

def test_error_at_argmax_interior():
    draw = (0.7, 1.3, 0.9)
    rate, _ = _solve_draw(draw, 500, REF_GAINS)
    e = overall_error_instant(draw, rate, 500, REF_GAINS)
    assert 0.0 < e < 0.5

def test_matches_grid_oracle_and_batch_route():
    # brute-force scan oracle for the argmax and the value, over the
    # solver's feasible set [0, 1.5*C(min SNR)]
    rng = np.random.default_rng(5)
    for z1, z2, z3 in rng.standard_exponential((3, 100)).T:
        draw = (z1, z2, z3)
        rate, value = _solve_draw(draw, 500, REF_GAINS)
        cap = shannon_c(min(z2 * 307.405, z1 * 2.4463 + z3 * 307.405))
        grid = np.linspace(1e-9, 1.5 * cap, 10000)
        fg = 0.5 * grid * (1.0 - overall_error_instant(draw, grid, 500,
                                                       REF_GAINS))
        spacing = grid[1] - grid[0]
        assert abs(rate - grid[int(np.argmax(fg))]) <= 2.0 * spacing
        assert value >= np.max(fg) - 1e-12

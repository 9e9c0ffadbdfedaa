"""Tests for the infinite-blocklength outage and ergodic references."""

import math

import numpy as np
import pytest

from fblrelay.cli import SCHEMES, Point
from fblrelay.fbl import shannon_c
from fblrelay.linklayer import QoSPair
from fblrelay.relay import (
    LinkGains,
    SystemParams,
    expected_overall_error,
    select_rate_avg_csi,
)
from fblrelay.baselines import (
    _ergodic_from_draws,
    ergodic_capacity_relay,
    outage_prob_direct,
    outage_prob_relay,
)

REF_GAINS = LinkGains(g1=2.4463, g2=307.405, g3=307.405)

def _params(eta=0.148, m=500):
    return SystemParams(m=m, p_tx=1.0, sigma2=1.0, eps_nominal=1e-3, eta=eta)

def _outage(eta, m=500):
    """The CLI's outage scheme at its own rate: end-to-end rate r/2,
    outage probability at the per-hop rate r, outage capacity."""
    pt = Point(REF_GAINS, _params(eta=eta, m=m), QoSPair(d=1e4, p_d=1e-2))
    res = SCHEMES["outage"].evaluate(None, pt)
    return res["coding_rate"], res["expected_error"], res["bl_throughput"]

def _relay_avg_throughput(eta):
    p = _params(eta=eta)
    r = select_rate_avg_csi(REF_GAINS, p)
    return 0.5 * r * (1.0 - expected_overall_error(r, p.m, REF_GAINS, p))

# frozen: overall outage at the reference operating rate
REF_RATE = 5.33969938461749
POUT_REF = 0.22039875838751177

# frozen: outage point at eta = 0.148 and ergodic estimate at seed 42
OC_RATE_REF = 2.769516420633709
OC_P_REF = 0.2502461012167507
OC_CAP_REF = 2.0764557341143526
ERGODIC_REF = 3.2620290068320457
ERGODIC_SE_REF = 0.00084201559387313


# ---------------------------------------------------------------------------
# outage probability
# ---------------------------------------------------------------------------

def test_outage_prob_zero_rate():
    assert outage_prob_relay(0.0, REF_GAINS, _params()) == 0.0

def test_outage_prob_rejects_negative_rate():
    with pytest.raises(ValueError):
        outage_prob_relay(-0.1, REF_GAINS, _params())

def test_outage_prob_reference_value():
    p = outage_prob_relay(REF_RATE, REF_GAINS, _params())
    assert p == pytest.approx(POUT_REF, rel=1e-12)

def test_outage_prob_monotone_in_rate():
    ps = [outage_prob_relay(r, REF_GAINS, _params()) for r in (0.5, 2.0, 5.0, 8.0)]
    assert all(0.0 <= p <= 1.0 for p in ps)
    assert all(b > a for a, b in zip(ps, ps[1:]))

def test_outage_prob_equal_branch_gains_erlang():
    # equal direct and relaying means collapse the combined CDF to Erlang-2
    g = LinkGains(g1=5.0, g2=8.0, g3=5.0)
    p = _params()
    r = 2.5
    t = 2.0**r - 1.0
    p2 = -math.expm1(-t / 8.0)
    perl = 1.0 - (1.0 + t / 5.0) * math.exp(-t / 5.0)
    expect = p2 + (1.0 - p2) * perl
    assert outage_prob_relay(r, g, p) == pytest.approx(expect, rel=1e-12)

def test_outage_prob_direct_closed_form():
    p = _params()
    r = 1.3
    t = 2.0**r - 1.0
    assert outage_prob_direct(r, REF_GAINS, p) == pytest.approx(
        -math.expm1(-t / 2.4463), rel=1e-12)

def test_large_m_error_converges_to_outage():
    pout = outage_prob_relay(REF_RATE, REF_GAINS, _params())
    gaps = [expected_overall_error(REF_RATE, m, REF_GAINS, _params(m=m)) - pout
            for m in (1000, 10000, 1000000, 100000000)]
    assert all(g > 0.0 for g in gaps)
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[0] < 1e-4 and gaps[-1] < 1e-8


# ---------------------------------------------------------------------------
# outage capacity
# ---------------------------------------------------------------------------

def test_outage_point_reference_values():
    rate, p_out, cap = _outage(0.148)
    assert rate == pytest.approx(OC_RATE_REF, rel=1e-12)
    assert p_out == pytest.approx(OC_P_REF, rel=1e-12)
    assert cap == pytest.approx(OC_CAP_REF, rel=1e-12)

def test_outage_point_internal_consistency():
    rate, p_out, cap = _outage(0.2)
    s1, s2, s3 = 2.4463, 307.405, 307.405
    assert rate == pytest.approx(0.5 * shannon_c(0.2 * min(s2, s1 + s3)), rel=1e-15)
    assert p_out == outage_prob_relay(2.0 * rate, REF_GAINS, _params(eta=0.2))
    assert cap == rate * (1.0 - p_out)

def test_outage_capacity_ignores_blocklength():
    a = _outage(0.148, m=100)
    b = _outage(0.148, m=10000)
    assert a == b

def test_outage_capacity_vanishes_with_weight():
    assert _outage(1e-12)[2] < 1e-9

def test_outage_capacity_unimodal_in_weight():
    etas = np.linspace(0.01, math.log(2.0), 100)
    vals = np.array([_outage(e)[2] for e in etas])
    d = np.diff(vals)
    s = np.sign(d[np.abs(d) > 1e-9])
    assert np.count_nonzero(np.diff(s) != 0) == 1
    assert vals.max() == pytest.approx(2.081372608, abs=1e-6)

def test_finite_blocklength_loss_small_in_operating_range():
    # one-sided loss vs the outage reference stays below 2% for eta >= 0.1
    for eta in np.linspace(0.1, math.log(2.0), 20):
        c = _relay_avg_throughput(eta)
        oc = _outage(eta)[2]
        assert (oc - c) / c < 0.02

def test_outage_capacity_dominance_flag():
    # spec'd as flag-not-assert: sharp-threshold selection can fall below
    # the penalized finite-blocklength scheme in the deep-outage region
    worst, where = 0.0, None
    for eta in np.linspace(0.01, math.log(2.0), 50):
        c = _relay_avg_throughput(eta)
        oc = _outage(eta)[2]
        if oc - c < worst:
            worst, where = oc - c, eta
    if worst < -1e-6:
        pytest.xfail(f"outage dominance violated by {-worst:.3e} at eta={where:.3f}")


# ---------------------------------------------------------------------------
# ergodic capacity
# ---------------------------------------------------------------------------

def test_ergodic_degenerate_draws():
    # variance-free fading pins the estimate at the bottleneck capacity
    z = np.ones((3, 8))
    vals = _ergodic_from_draws(z, REF_GAINS, _params())
    expect = 0.5 * min(shannon_c(307.405), shannon_c(2.4463 + 307.405))
    np.testing.assert_allclose(vals, expect, rtol=1e-15)

def test_ergodic_deterministic_and_frozen():
    a = ergodic_capacity_relay(REF_GAINS, _params(), seed=42)
    b = ergodic_capacity_relay(REF_GAINS, _params(), seed=42)
    assert a == b
    assert a[0] == pytest.approx(ERGODIC_REF, rel=1e-9)
    assert a[1] == pytest.approx(ERGODIC_SE_REF, rel=1e-9)

def test_ergodic_rejects_small_sample():
    with pytest.raises(ValueError):
        ergodic_capacity_relay(REF_GAINS, _params(), n_samples=10000)

def test_ergodic_exceeds_every_finite_blocklength_throughput():
    mean, se = ergodic_capacity_relay(REF_GAINS, _params(), seed=7)
    assert se > 0.0
    best_fbl = _relay_avg_throughput(0.148)
    assert mean - 3.0 * se > best_fbl

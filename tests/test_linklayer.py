"""Tests for the effective-capacity link layer and the sustainable rate."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fblrelay.linklayer import QoSPair, ServiceStats, msdr, service_stats
from oracles import (
    QosExponentPoint,
    effective_capacity_clt,
    msdr_decomposition_check,
    penalty_factor,
    qos_exponent_point,
)

REF_QOS = QoSPair(d=1e4, p_d=1e-2)

# frozen: 4 * 500 * ln(0.01) / 1e4
PHI_REF = -0.9210340371976182

# frozen: msdr at the reference-scenario operating point (m = 500)
REF_RATE = 5.33969938461749
REF_ERR = 0.22057725077852786
MSDR_REF = 1.93512240124314


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_qos_pair_validation():
    with pytest.raises(ValueError):
        QoSPair(d=0.0, p_d=0.5)
    with pytest.raises(ValueError):
        QoSPair(d=1e4, p_d=0.0)
    with pytest.raises(ValueError):
        QoSPair(d=1e4, p_d=1.0)

def test_exponent_point_requires_positive_theta():
    with pytest.raises(ValueError):
        QosExponentPoint(theta=0.0, ec=1.0)


# ---------------------------------------------------------------------------
# Bernoulli service moments and effective capacity
# ---------------------------------------------------------------------------

def test_service_stats_error_free():
    s = service_stats(2.0, 500, 0.0)
    assert s.mean == 1000.0 and s.variance == 0.0

def test_service_stats_balanced():
    # payload 100 bits, even odds: mean 50, variance 2500
    s = service_stats(1.0, 100, 0.5)
    assert s.mean == 50.0 and s.variance == 2500.0
    assert 1.0 - s.mean / (1.0 * 100) == 0.5

def test_service_stats_certain_failure():
    s = service_stats(2.0, 500, 1.0)
    assert s.mean == 0.0 and s.variance == 0.0

def test_service_stats_rejects_bad_probability():
    with pytest.raises(ValueError):
        service_stats(1.0, 500, -0.01)
    with pytest.raises(ValueError):
        service_stats(1.0, 500, 1.01)

def test_effective_capacity_zero_exponent_is_mean():
    s = service_stats(1.5, 400, 0.3)
    assert effective_capacity_clt(s, 0.0) == s.mean

def test_effective_capacity_deterministic_service():
    s = service_stats(1.5, 400, 0.0)
    assert effective_capacity_clt(s, 0.2) == s.mean

def test_effective_capacity_arithmetic_example():
    s = ServiceStats(mean=50.0, variance=2500.0)
    assert effective_capacity_clt(s, 0.01) == 37.5

def test_effective_capacity_rejects_negative_exponent():
    with pytest.raises(ValueError):
        effective_capacity_clt(service_stats(1.0, 500, 0.1), -0.1)

@given(theta=st.floats(1e-6, 10.0), eps=st.floats(0.0, 1.0),
       r=st.floats(0.01, 10.0))
def test_effective_capacity_never_exceeds_mean(theta, eps, r):
    s = service_stats(r, 500, eps)
    pt = qos_exponent_point(s, theta)
    assert pt.theta == theta
    assert pt.ec <= s.mean


# ---------------------------------------------------------------------------
# maximum sustainable data rate
# ---------------------------------------------------------------------------

def test_penalty_factor_reference_value():
    # msdr's closed form at the frozen phi, and the oracle's phi
    r, e = 3.0, 0.2
    keep = 1.0 - e
    expected = 0.25 * r * keep + 0.25 * r * math.sqrt(
        keep**2 + PHI_REF * e * keep)
    assert msdr(r, 500, e, REF_QOS) == pytest.approx(expected, rel=1e-15)
    assert penalty_factor(500, REF_QOS) == pytest.approx(PHI_REF, rel=1e-15)

def test_penalty_factor_negative_and_linear_in_m():
    assert penalty_factor(500, REF_QOS) < 0.0
    assert penalty_factor(1000, REF_QOS) == pytest.approx(
        2.0 * penalty_factor(500, REF_QOS), rel=1e-15)
    # msdr's phi doubles with m too: its ceiling at m = 1000 is 1/(1 - 2*PHI_REF)
    ceiling = 1.0 / (1.0 - 2.0 * PHI_REF)
    assert msdr(4.0, 1000, ceiling + 1e-6, REF_QOS) == 0.0
    assert msdr(4.0, 1000, ceiling - 1e-6, REF_QOS) > 0.0

def test_msdr_error_free_is_half_rate():
    assert msdr(3.0, 500, 0.0, REF_QOS) == 1.5

def test_msdr_vanishing_penalty_equals_throughput():
    # unbounded delay budget drives the penalty factor to exactly zero
    qos = QoSPair(d=math.inf, p_d=0.5)
    assert penalty_factor(500, qos) == 0.0
    for r in (0.3, 1.7, 5.0):
        for e in (0.0, 0.1, 0.5, 0.97):
            assert msdr(r, 500, e, qos) == 0.5 * r * (1.0 - e)

def test_msdr_reference_value():
    assert msdr(REF_RATE, 500, REF_ERR, REF_QOS) == pytest.approx(MSDR_REF, rel=1e-12)

def test_msdr_zero_when_period_exceeds_delay():
    assert msdr(2.0, 5001, 0.01, REF_QOS) == 0.0
    assert msdr(2.0, 5000, 0.01, REF_QOS) > 0.0  # boundary period still fits

def test_msdr_zero_when_discriminant_negative():
    # feasibility ceiling is 1/(1 - phi) ~= 0.5206 on the reference QoS
    ceiling = 1.0 / (1.0 - PHI_REF)
    assert msdr(4.0, 500, ceiling + 1e-6, REF_QOS) == 0.0
    assert msdr(4.0, 500, ceiling - 1e-6, REF_QOS) > 0.0

def test_msdr_zero_when_penalty_is_nan():
    # m = d = inf gives phi = inf/inf; the blocklength axis reaches it
    assert msdr(1.0, math.inf, 0.1, QoSPair(d=math.inf, p_d=0.5)) == 0.0

def test_msdr_rejects_bad_probability():
    with pytest.raises(ValueError):
        msdr(1.0, 500, 1.5, REF_QOS)

def test_msdr_linear_in_rate():
    v = msdr(1.3, 500, 0.2, REF_QOS)
    assert msdr(2.6, 500, 0.2, REF_QOS) == pytest.approx(2.0 * v, rel=1e-15)

def test_msdr_decreasing_in_error():
    vals = [msdr(3.0, 500, e, REF_QOS) for e in (0.0, 0.1, 0.2, 0.3, 0.5)]
    assert all(b < a for a, b in zip(vals, vals[1:]))

def test_msdr_bounded_by_throughput():
    rng = np.random.default_rng(11)
    for _ in range(300):
        r = rng.uniform(0.1, 10.0)
        m = rng.uniform(100, 4000)
        qos = QoSPair(d=rng.uniform(2 * m, 1e5), p_d=rng.uniform(1e-6, 0.99))
        eps = rng.uniform(0.0, 1.0 / (1.0 - penalty_factor(m, qos)))
        v = msdr(r, m, eps, qos)
        cbl = 0.5 * r * (1.0 - eps)
        assert 0.0 <= v <= cbl + 1e-15
        if eps > 1e-12:
            assert v < cbl  # strict whenever the penalty bites


def _msdr_point(r, m, eps_bar, qos):
    """msdr at one point of Python floats, squaring with Python's keep**2."""
    if eps_bar == 1.0 or 2.0 * m > qos.d:
        return 0.0
    phi = 4.0 * m * math.log(qos.p_d) / qos.d
    keep = 1.0 - eps_bar
    disc = keep**2 + phi * eps_bar * keep
    if not disc >= 0.0:
        return 0.0
    return 0.25 * r * keep + 0.25 * r * math.sqrt(disc)

@pytest.mark.parametrize("qos", [REF_QOS, QoSPair(d=4e3, p_d=1e-4),
                                 QoSPair(d=math.inf, p_d=0.5)])
def test_msdr_array_is_the_point_formula_at_its_edges(qos):
    # eps 0 and 1, r = inf, 2m = d and 2m = d + 1 (m = d = inf where d
    # is), and 1e-6 either side of the discriminant's ceiling 1/(1 - phi)
    points = []
    for m in (100.0, 500.0, 0.5 * qos.d, 0.5 * (qos.d + 1.0)):
        phi = 4.0 * m * math.log(qos.p_d) / qos.d
        ceiling = [c for c in (1.0 / (1.0 - phi),) if 0.0 < c < 1.0]
        errs = [0.0, 1e-12, 0.1, REF_ERR, 0.5, 1.0 - 1e-12, 1.0,
                *(c + d for c in ceiling for d in (-1e-6, 1e-6))]
        points += [(r, m, e) for r in (0.0, 1.0, REF_RATE, 1e300, math.inf)
                   for e in errs]
    r, m, e = map(np.array, zip(*points))
    values = msdr(r, m, e, qos)
    assert [v.hex() for v in values.tolist()] == [
        _msdr_point(*p, qos).hex() for p in points]
    # and each point alone is a Python float
    assert all(type(msdr(*p, qos)) is float for p in points)

def test_msdr_array_is_the_point_formula_to_an_ulp():
    # the array squares keep as keep * keep; Python's keep**2 is an ulp off
    # it for a few errors, and where it is, so may msdr be
    rng = np.random.default_rng(8)
    r, m = rng.uniform(0.0, 10.0, 20000), rng.uniform(100.0, 1000.0, 20000)
    e = rng.uniform(0.0, 0.6, 20000)
    values = msdr(r, m, e, REF_QOS)
    points = [_msdr_point(*p, REF_QOS) for p in zip(r.tolist(), m.tolist(),
                                                    e.tolist())]
    keep = 1.0 - e
    same_square = np.array([k**2 for k in keep.tolist()]) == keep * keep
    assert np.array_equal(values[same_square], np.array(points)[same_square])
    assert np.all(np.abs(values - points) <= np.spacing(values))
    assert np.mean(values != points) < 1e-3


# ---------------------------------------------------------------------------
# decomposition identity
# ---------------------------------------------------------------------------

def test_decomposition_error_free_is_exact():
    assert msdr_decomposition_check(3.0, 500, 0.0, REF_QOS) == 0.0

def test_decomposition_vanishing_penalty_is_exact():
    qos = QoSPair(d=math.inf, p_d=0.5)
    assert msdr_decomposition_check(3.0, 500, 0.25, qos) == 0.0

def test_decomposition_residual_on_random_feasible_triples():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        r = rng.uniform(0.1, 10.0)
        m = rng.uniform(100, 4000)
        qos = QoSPair(d=rng.uniform(2 * m, 1e5), p_d=rng.uniform(1e-6, 0.99))
        eps = rng.uniform(0.0, 1.0 / (1.0 - penalty_factor(m, qos)))
        assert msdr_decomposition_check(r, m, eps, qos) < 1e-12

def test_decomposition_infeasible_input_is_zero():
    assert msdr_decomposition_check(3.0, 5001, 0.1, REF_QOS) == 0.0


# ---------------------------------------------------------------------------
# behavior on the reference relaying scenario
# ---------------------------------------------------------------------------

def _relay_avg_msdr(eta, m, qos):
    """MSDR of average-CSI relaying on the reference scenario."""
    from fblrelay.relay import (LinkGains, SystemParams,
                                expected_overall_error, select_rate_avg_csi)
    g = LinkGains(g1=2.4463, g2=307.405, g3=307.405)
    p = SystemParams(m=m, eps_nominal=1e-3, eta=eta)
    r = select_rate_avg_csi(g, p)
    return msdr(r, m, expected_overall_error(r, m, g), qos)

def _scenario_curve(qos, etas, m=500):
    return [_relay_avg_msdr(eta, m, qos) for eta in etas]

def test_msdr_decreasing_in_blocklength():
    vals = [_relay_avg_msdr(0.1, m, REF_QOS) for m in (500, 1000, 2000)]
    assert vals[0] > vals[1] > vals[2] > 0.0

def test_optimal_weight_shrinks_as_qos_tightens():
    etas = np.linspace(0.05, 0.25, 41)
    loose = _scenario_curve(REF_QOS, etas)
    tight_pd = _scenario_curve(QoSPair(d=1e4, p_d=1e-4), etas)
    tight_d = _scenario_curve(QoSPair(d=4e3, p_d=1e-2), etas)
    i_loose = int(np.argmax(loose))
    i_pd = int(np.argmax(tight_pd))
    i_d = int(np.argmax(tight_d))
    assert etas[i_loose] > etas[i_pd] > etas[i_d]

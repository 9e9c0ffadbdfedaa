"""End-to-end acceptance battery.

One test per shipped guarantee, each at its stated tolerance, so a
verbose run readily shows which guarantees hold.  Tests marked xfail
document limits that are out of reach in float64; they are kept at the
original tolerance on purpose.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from fblrelay import cli
from fblrelay.baselines import outage_prob_relay
from fblrelay.fbl import achievable_rate, block_error, q_func, q_inv
from fblrelay.fading import avg_snr, expected_error_single
from fblrelay.linklayer import QoSPair, msdr, msdr_decomposition_check
from fblrelay.montecarlo import mc_expected_overall_error
from fblrelay.relay import (
    LinkGains,
    SystemParams,
    bl_throughput_perfect_csi,
    expected_overall_error,
    select_rate_avg_csi,
)
from fblrelay.scenario import Scenario, build

LN2 = math.log(2.0)
GAINS, PARAMS = build(Scenario())
QOS = Scenario().qos


def bl_throughput_at(eta, m=None):
    p = replace(PARAMS, eta=eta) if m is None else replace(PARAMS, eta=eta, m=m)
    r = select_rate_avg_csi(GAINS, p)
    err = expected_overall_error(r, p.m, GAINS, p)
    return r, err, 0.5 * r * (1.0 - err)

def msdr_at(eta, m=None):
    r, err, _ = bl_throughput_at(eta, m)
    return msdr(r, (PARAMS.m if m is None else m), err, QOS)

def rise_fall_transitions(values, tol):
    d = np.diff(values)
    s = np.sign(d[np.abs(d) > tol])
    return int(np.count_nonzero(s[:-1] != s[1:])), s


# ---------------------------------------------------------------------------
# analytic engine vs Monte Carlo
# ---------------------------------------------------------------------------

def test_expected_error_matches_monte_carlo_battery():
    """20 randomized points, quadrature within 3 SE of a 1e7-draw MC."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = LinkGains(*map(float, np.exp(rng.uniform(math.log(0.5),
                                                     math.log(300.0), 3))))
        m = int(rng.integers(100, 2001))
        frac = rng.uniform(0.2, 0.8)
        sub = int(rng.integers(1 << 30))
        p = SystemParams(m=m, p_tx=1.0, sigma2=1.0, eps_nominal=1e-3, eta=0.2)
        r = float(frac * math.log2(1.0 + min(g.g2, g.g1 + g.g3)))
        err = expected_overall_error(r, m, g, p)
        est = mc_expected_overall_error(r, m, g, p, n=10_000_000,
                                        seed=(sub, 1))
        assert abs(est.mean - err) <= 3.0 * est.std_err
    assert time.monotonic() - start < 300.0


# ---------------------------------------------------------------------------
# shape of the objectives
# ---------------------------------------------------------------------------

def test_throughput_concave_in_coding_rate():
    """Centered second differences stay below 1e-6 at 50 rate points."""
    start = time.monotonic()
    rs = np.linspace(0.5, 7.0, 50)
    f = np.array([0.5 * r * (1.0 - expected_overall_error(r, PARAMS.m,
                                                          GAINS, PARAMS))
                  for r in rs])
    d2 = f[:-2] - 2.0 * f[1:-1] + f[2:]
    assert np.all(d2 <= 1e-6)
    assert time.monotonic() - start < 60.0

def test_sustainable_rate_concave_in_coding_rate():
    """Same check for the delay-constrained rate on its feasible range."""
    start = time.monotonic()
    rs = np.linspace(0.5, 6.797, 50)
    f = np.array([msdr(r, PARAMS.m,
                       expected_overall_error(r, PARAMS.m, GAINS, PARAMS),
                       QOS) for r in rs])
    assert np.all(f > 0.0)
    d2 = f[:-2] - 2.0 * f[1:-1] + f[2:]
    assert np.all(d2 <= 1e-6)
    assert time.monotonic() - start < 60.0

def test_objectives_unimodal_in_weight():
    """Exactly one rise-fall transition over 100 weight points."""
    etas = np.linspace(0.01, LN2, 100)
    thr = [bl_throughput_at(eta)[2] for eta in etas]
    sus = [msdr_at(eta) for eta in etas]
    for values in (thr, sus):
        flips, signs = rise_fall_transitions(values, 1e-9)
        assert flips == 1
        assert signs[0] > 0 and signs[-1] < 0


# ---------------------------------------------------------------------------
# optimizer output
# ---------------------------------------------------------------------------

def test_optimal_weight_in_expected_band(capsys):
    code = cli.main(["optimize", "--objective", "bl_throughput"])
    out = capsys.readouterr().out
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[0] == "bl_throughput" and row[3] == "converged"
    assert 0.1 <= float(row[1]) <= 0.3


# ---------------------------------------------------------------------------
# delay-constrained rate identities
# ---------------------------------------------------------------------------

def test_sustainable_rate_decomposition_identities():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 1000:
        r = rng.uniform(0.1, 8.0)
        m = rng.uniform(100.0, 4000.0)
        eps = rng.uniform(0.0, 1.0)
        qos = QoSPair(d=rng.uniform(2.0 * m, 1e6), p_d=rng.uniform(1e-6, 0.5))
        if msdr(r, m, eps, qos) == 0.0:
            continue
        assert msdr_decomposition_check(r, m, eps, qos) < 1e-12
        checked += 1
    # no queueing penalty: the rate equals half the per-hop payload rate
    free = QoSPair(d=math.inf, p_d=0.5)
    for r, eps in ((1.0, 0.3), (5.339, 0.2206), (7.0, 0.64)):
        assert msdr(r, 500.0, eps, free) == 0.5 * r * (1.0 - eps)
    for r in (0.5, 2.0, 6.0):
        assert msdr(r, 500.0, 0.0, QOS) == 0.5 * r


# ---------------------------------------------------------------------------
# infinite-blocklength limit
# ---------------------------------------------------------------------------

def test_expected_error_converges_to_outage_probability():
    r = select_rate_avg_csi(GAINS, replace(PARAMS, eta=0.148))
    p_out = outage_prob_relay(r, GAINS, PARAMS)
    gaps = [abs(expected_overall_error(r, m, GAINS, PARAMS) - p_out)
            for m in (1e3, 1e4, 1e6, 1e8)]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < gaps[0] < 1e-4


# ---------------------------------------------------------------------------
# scheme orderings
# ---------------------------------------------------------------------------

def test_relaying_dominates_equal_payload_direct():
    """Same bits per period: two hops beat one weak link everywhere."""
    for eta in np.linspace(0.01, LN2, 100):
        r, err, thr = bl_throughput_at(eta)
        r_dir = 0.5 * r
        err_dir = expected_error_single(r_dir, 2.0 * PARAMS.m,
                                        avg_snr(GAINS.g1, PARAMS))
        thr_dir = r_dir * (1.0 - err_dir)
        assert thr > thr_dir
        sus = msdr(r, PARAMS.m, err, QOS)
        sus_dir = msdr(2.0 * r_dir, PARAMS.m, err_dir, QOS)
        # a weight so large that neither scheme can meet the delay target
        # leaves both rates at zero; every other point must order strictly
        assert sus >= sus_dir
        if sus == 0.0:
            assert sus_dir == 0.0

def test_perfect_csi_beats_average_csi_at_the_optimum():
    eta_star = 0.15093695130331053
    _, _, thr_avg = bl_throughput_at(eta_star)
    mean, se = bl_throughput_perfect_csi(PARAMS.m, GAINS,
                                         replace(PARAMS, eta=eta_star),
                                         n_samples=100000, seed=2)
    assert mean - 3.0 * se > thr_avg

def test_throughput_loss_to_outage_capacity_small():
    """One-sided loss against the infinite-blocklength reference < 2%."""
    worst = 0.0
    for eta in np.linspace(0.1, LN2, 100):
        _, _, thr = bl_throughput_at(eta)
        pt = cli.Point(GAINS, replace(PARAMS, eta=eta), QOS)
        cap = cli.SCHEMES["outage"].evaluate(None, pt)["bl_throughput"]
        worst = max(worst, (cap - thr) / thr)
    assert worst < 0.02


# ---------------------------------------------------------------------------
# blocklength trends
# ---------------------------------------------------------------------------

def test_blocklength_trends():
    """Longer blocks: throughput creeps up, delay-constrained rate falls."""
    thr = [bl_throughput_at(0.1, m)[2] for m in (100, 200, 500, 1000, 2000)]
    assert all(a <= b for a, b in zip(thr, thr[1:]))
    sus = [msdr_at(0.1, m) for m in (500, 1000, 2000)]
    assert all(s > 0.0 for s in sus)
    assert all(a > b for a, b in zip(sus, sus[1:]))
    # a period longer than the deadline cannot carry any sustained rate;
    # the contrast point keeps the error low enough to isolate the deadline
    assert msdr_at(0.1, 5001.0) == 0.0
    assert msdr(1.0, 5001.0, 0.05, QOS) == 0.0
    assert msdr(1.0, 5000.0, 0.05, QOS) > 0.0


# ---------------------------------------------------------------------------
# numerical accuracy
# ---------------------------------------------------------------------------

def test_rate_error_round_trip_accuracy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        snr = rng.uniform(0.2, 400.0)
        m = rng.uniform(100.0, 4000.0)
        eps = rng.uniform(1e-8, 0.5)
        r = achievable_rate(snr, eps, m)
        if r == 0.0:
            continue
        assert block_error(snr, r, m) == pytest.approx(eps, rel=1e-9)
        assert achievable_rate(snr, block_error(snr, r, m), m) == \
            pytest.approx(r, rel=1e-9)

def test_q_function_round_trip_accuracy():
    for w in np.linspace(-5.2, 6.0, 1201):
        assert q_inv(q_func(w)) == pytest.approx(w, abs=1e-10)

@pytest.mark.xfail(strict=True,
                   reason="float64 floor: for w below -5.2 the value "
                          "1 - q_func(w) rounds away the information needed "
                          "to invert to 1e-10; achievable floor is ~1e-8")
def test_q_function_round_trip_deep_negative_tail():
    for w in np.linspace(-6.0, -5.2, 81, endpoint=False):
        assert q_inv(q_func(w)) == pytest.approx(w, abs=1e-10)


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------

def _stdout_of(args, capsys):
    assert cli.main(args) == 0
    return capsys.readouterr().out

def test_cli_output_byte_identical_for_fixed_seed(capsys):
    batteries = [
        ["validate", "--points", "3", "--mc-samples", "20000"],
        ["sweep", "--variable", "eta", "--grid", "0.05", "0.5", "4",
         "--schemes", "relay_avg,direct_matched,direct_weighted",
         "--metrics", "bl_throughput,msdr,expected_error,coding_rate"],
        ["sweep", "--variable", "coding_rate", "--grid", "1.0", "6.0", "4",
         "--schemes", "relay_avg,outage", "--metrics",
         "bl_throughput,expected_error"],
        ["sweep", "--variable", "blocklength", "--grid-list", "250,500",
         "--schemes", "relay_avg,relay_perfect,shannon_ergodic",
         "--metrics", "bl_throughput", "--mc-samples", "100000"],
    ]
    for args in batteries:
        first = _stdout_of(args, capsys)
        second = _stdout_of(args, capsys)
        assert first == second
        assert len(first.strip().split("\n")) > 1

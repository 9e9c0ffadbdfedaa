"""Tests for the Monte Carlo twins of the analytic fading averages."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fblrelay import montecarlo
from fblrelay.baselines import _ergodic_per_draw, ergodic_capacity_relay
from fblrelay.fading import _link_snrs
from fblrelay.fbl import block_error
from fblrelay.relay import (
    LinkGains,
    _maximize_per_draw,
    bl_throughput_perfect_csi,
    expected_overall_error,
)
from fblrelay.linklayer import QoSPair, msdr, service_stats
from fblrelay.montecarlo import (
    McEstimate,
    _chunk_layout,
    _link_errors,
    _per_draw,
    _sample_mean,
    draw_fading,
    mc_bl_throughput,
    mc_expected_overall_error,
    mc_service_stats,
)
from oracles import overall_error_instant, penalty_factor

REF_GAINS = LinkGains(g1=2.4463, g2=307.405, g3=307.405)
REF_RATE = 5.33969938461749
REF_ERR = 0.22057725077852786
REF_THR = 2.0809415871873838

# frozen estimates at seed 42, n = 1e6
MC_ERR = 0.22077902537087965
MC_ERR_SE = 0.000408495433942513
MC_THR = 2.0802641149065124
MC_THR_SE = 0.0011074723228285419
MC_SMEAN = 2080.2641149065125
MC_SVAR = 1226494.9458312462
MC_SVAR_SE = 1650.8843970790679


# ---------------------------------------------------------------------------
# fading draws
# ---------------------------------------------------------------------------

def test_draws_have_unit_mean():
    d = draw_fading(np.random.default_rng(42), 1000000)
    assert abs(np.mean(d[1]) - 1.0) < 0.004

def test_draws_have_log_two_median():
    d = draw_fading(np.random.default_rng(42), 1000000)
    assert abs(np.mean(d[0] < math.log(2.0)) - 0.5) < 0.002

def test_draws_reproducible_and_nonnegative():
    a = draw_fading(np.random.default_rng(7), 1000)
    b = draw_fading(np.random.default_rng(7), 1000)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[2], b[2])
    assert np.all(a[0] >= 0.0) and np.all(a[1] >= 0.0) and np.all(a[2] >= 0.0)


# ---------------------------------------------------------------------------
# estimate plumbing
# ---------------------------------------------------------------------------

def test_every_estimate_unpacks_as_mean_and_std_err():
    stats = mc_service_stats(REF_RATE, 500, REF_GAINS, n=10000, seed=5)
    for est in (mc_expected_overall_error(REF_RATE, 500, REF_GAINS,
                                          n=10000, seed=5),
                mc_bl_throughput(REF_RATE, 500, REF_GAINS, n=10000, seed=5),
                stats.mean, stats.variance,
                bl_throughput_perfect_csi(500, REF_GAINS, seed=5),
                ergodic_capacity_relay(REF_GAINS, seed=5)):
        assert type(est) is McEstimate
        mean, std_err = est
        assert (mean, std_err) == (est.mean, est.std_err)

def test_sample_floor_enforced():
    # every Monte Carlo entry point rejects a count below its floor with
    # a message that names the CLI flag
    for fn, floor in (
            (lambda n: mc_expected_overall_error(1.0, 500, REF_GAINS, n=n),
             10000),
            (lambda n: mc_bl_throughput(1.0, 500, REF_GAINS, n=n), 10000),
            (lambda n: mc_service_stats(1.0, 500, REF_GAINS, n=n), 10000),
            (lambda n: bl_throughput_perfect_csi(500, REF_GAINS, n_samples=n),
             100000),
            (lambda n: ergodic_capacity_relay(REF_GAINS, n_samples=n),
             1000000)):
        with pytest.raises(ValueError, match="--mc-samples"):
            fn(floor - 1)

def test_chunk_layout_covers_n():
    sizes, seqs = _chunk_layout(600000, 3)
    assert sum(sizes) == 600000
    assert len(sizes) == len(seqs)

def test_welford_merge_matches_flat_computation():
    # stream over several chunks, then recompute on the concatenated draws
    est = mc_expected_overall_error(2.0, 500, REF_GAINS,
                                    n=600000, seed=3)
    sizes, seqs = _chunk_layout(600000, 3)
    vals = np.concatenate([
        overall_error_instant(draw_fading(np.random.default_rng(s), k),
                              2.0, 500, REF_GAINS)
        for s, k in zip(seqs, sizes)])
    assert est.mean == pytest.approx(float(np.mean(vals)), rel=1e-13)
    assert est.std_err == pytest.approx(
        float(np.std(vals, ddof=1)) / math.sqrt(600000), rel=1e-12)
    assert vals.size == 600000


# ---------------------------------------------------------------------------
# overall error estimator
# ---------------------------------------------------------------------------

def test_error_estimate_frozen_and_within_band():
    est = mc_expected_overall_error(REF_RATE, 500, REF_GAINS,
                                    n=1000000, seed=42)
    assert est.mean == pytest.approx(MC_ERR, rel=1e-12)
    assert est.std_err == pytest.approx(MC_ERR_SE, rel=1e-9)
    assert abs(est.mean - REF_ERR) < 3.0 * est.std_err

def test_error_estimate_deterministic_across_workers():
    # 1e6 draws: three full chunks and one of 213568
    for fn in (mc_expected_overall_error, mc_bl_throughput, mc_service_stats):
        a, b, c = (fn(REF_RATE, 500, REF_GAINS, n=1000000,
                      seed=42, workers=w) for w in (1, 2, 4))
        assert a == b == c
        if fn is mc_expected_overall_error:
            assert c.mean == MC_ERR
            assert c.std_err == pytest.approx(MC_ERR_SE, rel=1e-12)

def test_every_estimator_maps_its_chunks_on_the_pool(monkeypatch):
    submitted = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers)
            self.max_workers = max_workers

        def submit(self, fn, /, *args, **kwargs):
            submitted.append(self.max_workers)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
    for fn in (mc_expected_overall_error, mc_bl_throughput, mc_service_stats):
        submitted.clear()
        fn(REF_RATE, 500, REF_GAINS, n=600000, seed=3, workers=2)
        assert submitted == [2, 2, 2]

# chunk sizes around the slices of _per_draw, a partial chunk and a full one
SLICED_SIZES = [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, (1 << 15) - 1,
                1 << 15, (1 << 15) + 1, 213568, 1 << 18]


@pytest.mark.parametrize("k", SLICED_SIZES)
def test_sliced_link_errors_equal_one_call(k):
    draw = draw_fading(np.random.default_rng(k), k)
    s1, s2, s3 = REF_GAINS.g1, REF_GAINS.g2, REF_GAINS.g3
    e2, emrc = _link_errors(draw, REF_RATE, 500, REF_GAINS)
    assert np.array_equal(e2, block_error(draw[1] * s2, REF_RATE, 500))
    assert np.array_equal(emrc, block_error(draw[0] * s1 + draw[2] * s3,
                                            REF_RATE, 500))
    assert np.array_equal(e2 + (1.0 - e2) * emrc, overall_error_instant(
        draw, REF_RATE, 500, REF_GAINS))
    # the perfect-CSI and ergodic per-draw maps, through the same slices
    perfect = lambda snr2, snr_mrc: _maximize_per_draw(snr2, snr_mrc, 500)[1]
    for fn in (perfect, _ergodic_per_draw):
        sliced = _per_draw(fn, draw, REF_GAINS)
        assert sliced.shape == (1, k)
        assert np.array_equal(sliced[0], fn(*_link_snrs(*draw, REF_GAINS)))

@pytest.mark.parametrize("k", SLICED_SIZES)
def test_link_errors_over_their_draws_equal_the_allocating_call(k):
    # the chunk estimators write the errors over the draws they read
    draw = draw_fading(np.random.default_rng(k), k)
    e2, emrc = _link_errors(draw, REF_RATE, 500, REF_GAINS)
    inplace = _link_errors(draw, REF_RATE, 500, REF_GAINS, out=draw[:2])
    assert np.shares_memory(inplace, draw)
    assert np.array_equal(inplace[0], e2)
    assert np.array_equal(inplace[1], emrc)

@pytest.mark.parametrize("n", [2, (1 << 15) + 3, 100000])
def test_sample_mean_is_numpy_mean_and_std_bitwise(n):
    # the in-place mean and deviations take np.mean's and np.std's steps
    perfect = lambda snr2, snr_mrc: _maximize_per_draw(snr2, snr_mrc, 500)[1]
    for fn in (perfect, _ergodic_per_draw):
        z = np.random.default_rng(n).standard_exponential((3, n))
        vals = fn(*_link_snrs(*z, REF_GAINS))
        est = _sample_mean(fn, n, n, REF_GAINS)
        assert est.mean == np.mean(vals)
        assert est.std_err == np.std(vals, ddof=1) / math.sqrt(n)

def test_error_estimate_seed_sensitivity():
    a = mc_expected_overall_error(REF_RATE, 500, REF_GAINS,
                                  n=100000, seed=1)
    b = mc_expected_overall_error(REF_RATE, 500, REF_GAINS,
                                  n=100000, seed=2)
    assert a.mean != b.mean

def test_error_estimate_vanishing_rate():
    est = mc_expected_overall_error(0.0, 500, REF_GAINS,
                                    n=100000, seed=0)
    assert est.mean < 1e-3


# ---------------------------------------------------------------------------
# decode-event throughput estimator
# ---------------------------------------------------------------------------

def test_throughput_estimate_frozen_and_within_band():
    est = mc_bl_throughput(REF_RATE, 500, REF_GAINS,
                           n=1000000, seed=42)
    assert est.mean == pytest.approx(MC_THR, rel=1e-12)
    assert est.std_err == pytest.approx(MC_THR_SE, rel=1e-9)
    assert abs(est.mean - REF_THR) < 3.0 * est.std_err

def test_throughput_error_free_links():
    # enormous gains: every decode succeeds, the estimate collapses to r/2
    g = LinkGains(g1=1e15, g2=1e15, g3=1e15)
    est = mc_bl_throughput(1.0, 500, g, n=10000, seed=0)
    assert est.mean == 0.5
    assert est.std_err == 0.0

def test_throughput_dead_backhaul():
    g = LinkGains(g1=1e15, g2=1e-15, g3=1e15)
    est = mc_bl_throughput(1.0, 500, g, n=10000, seed=0)
    assert est.mean == 0.0


# ---------------------------------------------------------------------------
# service statistics estimator
# ---------------------------------------------------------------------------

def test_service_stats_frozen_and_within_band():
    est = mc_service_stats(REF_RATE, 500, REF_GAINS,
                           n=1000000, seed=42)
    ana = service_stats(REF_RATE, 500, REF_ERR)
    assert est.mean.mean == pytest.approx(MC_SMEAN, rel=1e-12)
    assert est.variance.mean == pytest.approx(MC_SVAR, rel=1e-12)
    assert est.variance.std_err == pytest.approx(MC_SVAR_SE, rel=1e-9)
    assert abs(est.mean.mean - ana.mean) < 3.0 * est.mean.std_err
    assert abs(est.variance.mean - ana.variance) < 3.0 * est.variance.std_err
    eps_hat = 1.0 - est.mean.mean / (REF_RATE * 500)
    assert abs(eps_hat - REF_ERR) < 3.0 * est.mean.std_err / (REF_RATE * 500)

def test_service_stats_consistent_with_throughput_stream():
    # same substreams and decode events: mean increment = 2m * throughput
    thr = mc_bl_throughput(REF_RATE, 500, REF_GAINS,
                           n=200000, seed=9)
    stats = mc_service_stats(REF_RATE, 500, REF_GAINS,
                             n=200000, seed=9)
    assert stats.mean.mean == pytest.approx(1000.0 * thr.mean, rel=1e-12)

def test_service_stats_error_free_links():
    g = LinkGains(g1=1e15, g2=1e15, g3=1e15)
    est = mc_service_stats(1.0, 500, g, n=10000, seed=0)
    assert est.variance.mean == 0.0
    assert est.variance.std_err == 0.0
    assert est.mean.mean == 1.0 * 500

def test_empirical_stats_reproduce_msdr():
    qos = QoSPair(d=1e4, p_d=1e-2)
    est = mc_service_stats(REF_RATE, 500, REF_GAINS,
                           n=1000000, seed=42)
    phi = penalty_factor(500, qos)
    emp = (est.mean.mean + math.sqrt(est.mean.mean**2
                                     + phi * est.variance.mean)) / 2000.0
    assert emp == pytest.approx(msdr(REF_RATE, 500, REF_ERR, qos), abs=5e-3)


def test_quadrature_agreement_on_parameter_battery():
    # randomized oracle points at a modest sample size; the full 1e7
    # battery with 20 points runs in the acceptance suite
    rng = np.random.default_rng(2024)
    for _ in range(5):
        g = LinkGains(*np.exp(rng.uniform(np.log(0.5), np.log(300.0), 3)))
        m = int(rng.integers(100, 2000))
        r = float(rng.uniform(0.2, 0.8)
                  * math.log2(1.0 + min(g.g2, g.g1 + g.g3)))
        ana = expected_overall_error(r, m, g)
        est = mc_expected_overall_error(r, m, g, n=400000, seed=int(rng.integers(1 << 30)))
        assert abs(est.mean - ana) < 4.0 * max(est.std_err, 1e-6)

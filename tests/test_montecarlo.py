"""Tests for the Monte Carlo twins of the analytic fading averages."""

import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblrelay import montecarlo
from fblrelay.baselines import _ergodic_per_draw, ergodic_capacity_relay
from fblrelay.fbl import block_error
from fblrelay.relay import (
    LinkGains,
    _maximize_per_draw,
    bl_throughput_perfect_csi,
    bottleneck_snr,
    expected_overall_error,
)
from fblrelay.linklayer import QoSPair, msdr, service_stats
from fblrelay.montecarlo import (
    McEstimate,
    _chunk_layout,
    _sample_mean,
    draw_fading,
    mc_bl_throughput,
    mc_expected_overall_error,
    mc_service_stats,
)
from oracles import (
    draw_chunk,
    link_errors,
    link_snrs,
    overall_error_instant,
    overall_error_per_draw,
    penalty_factor,
    successes_per_draw,
)

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

def chunk_rows(seed, k):
    """The three fading generators of a k-draw chunk on seed's stream."""
    return montecarlo._streams(np.random.SeedSequence(seed), k, range(3))

def test_draws_have_unit_mean():
    d = draw_fading(chunk_rows(42, 1000000), 1000000)
    assert abs(np.mean(d[1]) - 1.0) < 0.004

def test_draws_have_log_two_median():
    d = draw_fading(chunk_rows(42, 1000000), 1000000)
    assert abs(np.mean(d[0] < math.log(2.0)) - 0.5) < 0.002

def test_draws_reproducible_and_nonnegative():
    a = draw_fading(chunk_rows(7, 1000), 1000)
    b = draw_fading(chunk_rows(7, 1000), 1000)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[2], b[2])
    assert np.all(a[0] >= 0.0) and np.all(a[1] >= 0.0) and np.all(a[2] >= 0.0)

@settings(max_examples=20, deadline=None)
@given(st.sampled_from([1, (1 << 15) - 1, 1 << 15, (1 << 15) + 1, 213568,
                        1 << 18]),
       st.integers(0, 1 << 62))
def test_chunk_tiles_draw_the_whole_chunk_stream(k, seed):
    # each row of a chunk is its own generator, advanced to the row's
    # start: drawn tile by tile, rows 0-2 are the chunk's whole draw
    # bitwise, and rows 3 and 4, the decode events' uniforms, the next
    # two rng.random(k) calls
    seq = np.random.SeedSequence(seed)
    rng = np.random.default_rng(seq)
    whole = draw_chunk(rng, k)
    rows = montecarlo._streams(seq, k, range(5))
    starts = range(0, k, montecarlo._SLICE)
    widths = [min(montecarlo._SLICE, k - i) for i in starts]
    tiles = [draw_fading(rows[:3], w) for w in widths]
    assert np.array_equal(np.concatenate(tiles, axis=1), whole)
    for row in rows[3:]:
        assert np.array_equal(
            np.concatenate([row.random(w) for w in widths]), rng.random(k))
    # the estimators' tiles: those draws' link SNRs, column by column
    snr2, snr_mrc = link_snrs(*whole, REF_GAINS)
    spare = whole[2] * REF_GAINS.g3
    done = 0
    for blk, tile in montecarlo._tiles(seq, k, REF_GAINS):
        assert blk.start == done
        assert np.array_equal(tile, np.stack(
            (snr_mrc[blk], snr2[blk], spare[blk])))
        done = blk.stop
    assert done == k


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
        overall_error_instant(draw_chunk(np.random.default_rng(s), k),
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

# chunk sizes around the 2^15-draw slices, a partial chunk and a full one
SLICED_SIZES = [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, (1 << 15) - 1,
                1 << 15, (1 << 15) + 1, 213568, 1 << 18]


@pytest.mark.parametrize("k", SLICED_SIZES)
def test_sliced_link_errors_equal_one_call(k):
    draw = draw_chunk(np.random.default_rng(k), k)
    s1, s2, s3 = REF_GAINS.g1, REF_GAINS.g2, REF_GAINS.g3
    e2, emrc = link_errors(draw, REF_RATE, 500, REF_GAINS)
    assert np.array_equal(e2, block_error(draw[1] * s2, REF_RATE, 500))
    assert np.array_equal(emrc, block_error(draw[0] * s1 + draw[2] * s3,
                                            REF_RATE, 500))
    assert np.array_equal(e2 + (1.0 - e2) * emrc, overall_error_instant(
        draw, REF_RATE, 500, REF_GAINS))

@pytest.mark.parametrize("k", SLICED_SIZES)
def test_link_errors_over_their_draws_equal_the_allocating_call(k):
    # the chunk estimators write the errors over the draws they read
    draw = draw_chunk(np.random.default_rng(k), k)
    e2, emrc = link_errors(draw, REF_RATE, 500, REF_GAINS)
    inplace = link_errors(draw, REF_RATE, 500, REF_GAINS, out=draw[:2])
    assert np.shares_memory(inplace, draw)
    assert np.array_equal(inplace[0], e2)
    assert np.array_equal(inplace[1], emrc)

# a sample mean needs two draws
@pytest.mark.parametrize("n", [2, (1 << 15) + 3, 100000] + SLICED_SIZES[1:])
def test_sample_mean_is_numpy_mean_and_std_bitwise(n):
    # the in-place SNRs, the slices' values written over them, and the
    # in-place mean and deviations take the allocating map's values and
    # np.mean's and np.std's steps, whatever the slices
    perfect = lambda snr2, snr_mrc: _maximize_per_draw(snr2, snr_mrc, 500)[1]
    for fn in (perfect, _ergodic_per_draw):
        z = np.random.default_rng(n).standard_exponential((3, n))
        vals = fn(*link_snrs(*z, REF_GAINS))
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

def _float_neighbours(x, steps=3):
    """x and its nearest floats up to steps ulps on either side."""
    out = [x]
    down = up = x
    for _ in range(steps):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        out += [down, up]
    return np.array(out)

@pytest.mark.parametrize("m", [100, 1e4, 1e7])
@pytest.mark.parametrize("r", [0.0, 1e-12, 1e-4, 0.5, 5.0, 30.0])
def test_band_settles_only_where_the_kernel_is_settled(r, m):
    # block_error is exactly 1 at or below lo and below 5.3e-17 at or
    # above hi: at the float neighbours of both edges, at SNR 0,
    # subnormals and inf, and from 1e-300 to 1e300
    lo, hi = montecarlo._band(r, m)[:2]
    if r == 0.0:
        # e(0) = 1/2 at r = 0, so nothing is settled as 1
        assert lo == -1.0 and block_error(0.0, r, m) == 0.5
    else:
        assert 0.0 < lo < hi < math.inf
    edges = [hi] + ([lo] if lo > 0.0 else [])
    snr = np.concatenate([
        [0.0, 5e-324, 1e-315, 2.3e-308, math.inf],
        np.geomspace(1e-300, 1e300, 20001),
        np.geomspace(max(lo, 1e-300), hi, 2001),
        *(_float_neighbours(x) for x in edges)])
    e = block_error(snr, r, m)
    assert np.all(e[snr <= lo] == 1.0)
    assert np.all(e[snr >= hi] < 5.3e-17)
    # the band is tight: one part in 100 inside it the kernel is not
    # settled
    if lo > 0.0:
        assert block_error(lo * 1.01, r, m) < 1.0
    assert block_error(hi / 1.01, r, m) > 5.3e-17

def test_band_settles_nothing_outside_the_snr_range():
    # a side whose edge lies beyond the largest float stays open, with no
    # overflow: at r = 1100 both do, at r = 1023.9 and m = 1e4 the upper
    # one (w = 8.3 near ln snr = 709.8), where the largest float's error
    # is still above 2^-54
    assert montecarlo._band(1100.0, 100)[:2] == (-1.0, math.inf)
    lo, hi = montecarlo._band(1023.9, 1e4)[:2]
    assert 1e307 < lo < 1.8e308 and hi == math.inf
    assert block_error(1.7976931348623157e308, 1023.9, 1e4) > 2.0**-54

@st.composite
def _error_mean_points(draw):
    """(r, m, gains, extreme): validate's domain, or extreme mean SNRs,
    m and r."""
    extreme = draw(st.booleans())
    if extreme:
        g = LinkGains(*(10.0**draw(st.floats(-30.0, 30.0))
                        for _ in range(3)))
        m = 10.0**draw(st.floats(2.0, 7.0))
        r = 10.0**draw(st.floats(-12.0, math.log10(30.0)))
    else:
        g = LinkGains(*(math.exp(draw(st.floats(math.log(0.5),
                                                math.log(300.0))))
                        for _ in range(3)))
        m = draw(st.integers(100, 2000))
        r = draw(st.floats(0.2, 0.8)) * math.log2(1.0 + bottleneck_snr(g))
    return r, m, g, extreme

def _kernel_elements(r, m, g, n, seed, workers):
    """mc_expected_overall_error, and the elements block_error saw."""
    elements = []
    kernel = montecarlo.block_error
    with mock.patch.object(montecarlo, "block_error", lambda snr, r, m: (
            elements.append(np.size(snr)), kernel(snr, r, m))[1]):
        est = mc_expected_overall_error(r, m, g, n, seed, workers)
    return est, sum(elements)

@settings(max_examples=20, deadline=None)
@given(_error_mean_points(), st.integers(0, 1 << 30),
       st.sampled_from([10000, (1 << 18) + 1000]))
def test_banded_error_mean_equals_the_per_draw_twin(point, seed, n):
    # one chunk or two: the guard keeps each chunk's sum within 2^-40.  In
    # validate's domain some draws always lie outside the band, and no
    # chunk's mean is small enough for the guard to recompute it
    r, m, g, extreme = point
    want = overall_error_per_draw(r, m, g, n, seed, 1)
    for workers in (1, 2):
        got, elements = _kernel_elements(r, m, g, n, seed, workers)
        assert got.mean == pytest.approx(want.mean, rel=2.0**-40, abs=0.0)
        assert got.std_err == pytest.approx(want.std_err, rel=2.0**-40,
                                            abs=0.0)
        assert extreme or elements < 2 * n

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 42])
def test_banded_error_mean_is_the_per_draw_twin_bitwise(seed):
    # two points of validate's domain and one of extreme mean SNRs per
    # seed; the kernel sees under half of validate's link draws
    rng = np.random.default_rng(seed)
    for extreme in (False, False, True):
        if extreme:
            g = LinkGains(*10.0**rng.uniform(-30.0, 30.0, 3))
            m = 10.0**rng.uniform(2.0, 7.0)
            r = 10.0**rng.uniform(-12.0, math.log10(30.0))
        else:
            g = LinkGains(*np.exp(rng.uniform(math.log(0.5),
                                              math.log(300.0), 3)))
            m = int(rng.integers(100, 2001))
            r = rng.uniform(0.2, 0.8) * math.log2(1.0 + bottleneck_snr(g))
        n = int(rng.integers(10000, 300000))
        want = overall_error_per_draw(r, m, g, n, seed, 1)
        got, elements = _kernel_elements(r, m, g, n, seed, 2)
        assert got == want
        assert extreme or elements < n

def test_error_mean_guard_recomputes_a_vanishing_chunk():
    # every draw lies above the band, where the kernel's errors are taken
    # as 0: that could move a mean below 1e-15 by more than 2^-40, so the
    # chunk runs the kernel on both links of every draw and equals the
    # twin bitwise
    g = LinkGains(g1=1e17, g2=1e17, g3=1e17)
    r, m, n = 1.0, 500, 20000
    assert montecarlo._band(r, m)[1] < 1e6
    est, elements = _kernel_elements(r, m, g, n, 4, 1)
    assert est.mean < 1e-15
    assert elements >= 2 * n
    assert est == overall_error_per_draw(r, m, g, n, 4, 1)

def test_error_mean_takes_the_kernel_values_at_zero_and_inf_snr(monkeypatch):
    # draws of 0 (a uniform of 0) give SNR 0, and infinite draws infinite
    # SNR; the chunk must give them block_error's values, at r = 0 too,
    # where e(0) = 1/2
    z = draw_chunk(np.random.default_rng(3), 10000)
    z[:, ::7] = 0.0
    z[1, 3::11] = math.inf
    z[0, 5::13] = math.inf
    z[2, 1::17] = 5e-324

    def fed(rows, size, out):
        # the chunk's 10000 draws are one tile
        assert size == z.shape[1]
        out[...] = z
        return out

    monkeypatch.setattr(montecarlo, "draw_fading", fed)
    g = LinkGains(g1=2.0, g2=1e10, g3=30.0)
    for r in (0.0, 1e-12, 2.0):
        vals = overall_error_instant(z, r, 500, g)
        assert all(np.isinf(snr).any() and (snr == 0.0).any()
                   for snr in link_snrs(*z, g))
        est = mc_expected_overall_error(r, 500, g, n=10000, seed=0)
        assert est.mean == np.mean(vals)
        assert est.std_err == np.std(vals, ddof=1) / math.sqrt(10000)


# ---------------------------------------------------------------------------
# decode-event throughput estimator
# ---------------------------------------------------------------------------

def test_throughput_estimate_frozen_and_within_band():
    est = mc_bl_throughput(REF_RATE, 500, REF_GAINS,
                           n=1000000, seed=42)
    assert est.mean == pytest.approx(MC_THR, rel=1e-12)
    assert est.std_err == pytest.approx(MC_THR_SE, rel=1e-9)
    assert abs(est.mean - REF_THR) < 3.0 * est.std_err

@pytest.mark.parametrize("m", [100, 1e4, 1e7])
@pytest.mark.parametrize("r", [0.0, 1e-3, 0.7, 5.3, 900.0])
def test_screen_decides_as_the_kernel_at_its_own_errors(r, m):
    # u at the kernel's exact error and at both float neighbours of it:
    # every decision must be the kernel's, from SNR 0 and subnormals up to
    # 1e300, and densely over the transition, between the table's knots too
    s_max = math.log2(math.e) / math.sqrt(m)
    c = r + np.linspace(-9.0, 40.0, 20001) * s_max
    c += np.random.default_rng(1).uniform(0.0, 0.01 * s_max, c.size)
    snr = np.concatenate(([0.0, 5e-324, 1e-315, 2.3e-308],
                          np.geomspace(1e-300, 1e300, 20001),
                          np.expm1(c[c > 0.0] * math.log(2.0))))
    e = block_error(snr, r, m)
    bracket = montecarlo._screen(r, m)
    for u in (e, np.nextafter(e, -1.0), np.nextafter(e, 2.0)):
        ok = np.empty(snr.size, dtype=bool)
        at = bracket(snr, u, ok)
        ok[at] = u[at] >= block_error(snr[at], r, m)
        assert np.array_equal(ok, u >= e)

@settings(max_examples=15, deadline=None)
@given(st.lists(st.floats(math.log(0.5), math.log(300.0)), min_size=3,
                max_size=3),
       st.integers(100, 2000), st.floats(0.2, 0.8), st.integers(0, 1 << 30),
       st.sampled_from([10000, (1 << 18) + 1000]))
def test_screened_successes_equal_the_per_draw_count(log_g, m, frac, seed, n):
    # over validate's parameter domain, one chunk or two
    g = LinkGains(*map(float, np.exp(log_g)))
    r = frac * math.log2(1.0 + bottleneck_snr(g))
    want = successes_per_draw(r, m, g, n, seed, 1)
    for workers in (1, 2):
        assert montecarlo._successes(r, m, g, n, seed, workers) == want

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

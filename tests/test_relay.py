"""Tests for two-hop relaying: rate selection, error composition, throughput."""

import math

import mpmath
import numpy as np
import pytest

from fblrelay.cli import SCHEMES, Block
from fblrelay.fbl import achievable_rate, block_error, shannon_c
from fblrelay.linklayer import QoSPair
from fblrelay.relay import (
    LinkGains,
    SystemParams,
    _maximize_per_draw,
    _start,
    bl_throughput_perfect_csi,
    bottleneck_snr,
    expected_overall_error,
    select_rate_avg_csi,
)
from fit_start import optimum
from oracles import overall_error_instant

LN2 = math.log(2.0)

# reference urban scenario: weak direct link, strong backhaul and relaying
REF_PARAMS = SystemParams(m=500, eps_nominal=1e-3, eta=0.148)
REF_GAINS = LinkGains(g1=2.4463, g2=307.405, g3=307.405)

# frozen rate selection and its expected error on the reference scenario
REF_RATE = 5.33969938461749
REF_ERR = 0.22057725077852786
REF_THR = 2.0809415871873838

# frozen perfect-CSI Monte Carlo estimate, n = 1e5 draws, seed 42
REF_PERFECT_MEAN = 3.16165216673198
REF_PERFECT_SE = 0.0026424347376709113

# SNRs solved so that block_error(snr, r=1, m=500) hits 0.1 and 0.2
SNR_ERR_01 = 1.1034287360427135
SNR_ERR_02 = 1.066977885182034


def _params(**kw):
    base = dict(m=500, eps_nominal=1e-3, eta=0.148)
    base.update(kw)
    return SystemParams(**base)

def _relay_avg(gains, params):
    """Selected rate, expected error and throughput of average-CSI relaying."""
    r = select_rate_avg_csi(gains, params)
    err = expected_overall_error(r, params.m, gains)
    return r, err, 0.5 * r * (1.0 - err)

def _thr(r, gains=REF_GAINS):
    """Relaying throughput at a fixed per-hop rate."""
    return 0.5 * r * (1.0 - expected_overall_error(r, 500, gains))

def _scheme(name, r=None):
    """All metrics of one scheme of the CLI table on the reference scenario."""
    pt = Block(REF_GAINS, REF_PARAMS, QoSPair(d=1e4, p_d=1e-2))
    return SCHEMES[name].evaluate(r, pt)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_reject_short_blocklength():
    with pytest.raises(ValueError):
        _params(m=99)

def test_params_reject_bad_error_target():
    with pytest.raises(ValueError):
        _params(eps_nominal=0.0)
    with pytest.raises(ValueError):
        _params(eps_nominal=1.0)

def test_params_reject_weight_outside_range():
    with pytest.raises(ValueError):
        _params(eta=0.0)
    with pytest.raises(ValueError):
        _params(eta=LN2 + 1e-6)
    _params(eta=LN2)  # the upper endpoint itself is allowed

def test_gains_reject_nonpositive():
    with pytest.raises(ValueError):
        LinkGains(g1=0.0, g2=1.0, g3=1.0)
    with pytest.raises(ValueError):
        LinkGains(g1=1.0, g2=-2.0, g3=1.0)


# ---------------------------------------------------------------------------
# rate selection from weighted average CSI
# ---------------------------------------------------------------------------

def test_bottleneck_snr_is_weaker_branch():
    assert bottleneck_snr(LinkGains(g1=50.0, g2=4.0, g3=60.0)) == 4.0
    assert bottleneck_snr(LinkGains(g1=1.0, g2=400.0, g3=2.5)) == 3.5

def test_select_rate_backhaul_bottleneck():
    # g2 far below g1 + g3: selection must track the backhaul alone
    p = _params(eta=0.3)
    g = LinkGains(g1=50.0, g2=4.0, g3=60.0)
    expect = achievable_rate(0.3 * 4.0, p.eps_nominal, p.m)
    assert select_rate_avg_csi(g, p) == pytest.approx(expect, rel=1e-12)

def test_select_rate_combined_bottleneck():
    p = _params(eta=0.3)
    g = LinkGains(g1=1.0, g2=400.0, g3=2.5)
    expect = achievable_rate(0.3 * 3.5, p.eps_nominal, p.m)
    assert select_rate_avg_csi(g, p) == pytest.approx(expect, rel=1e-12)

def test_select_rate_strictly_increasing_in_weight():
    g = REF_GAINS
    rates = [select_rate_avg_csi(g, _params(eta=e))
             for e in (0.05, 0.1, 0.2, 0.4, LN2)]
    assert all(b > a for a, b in zip(rates, rates[1:]))

def test_select_rate_unit_bottleneck_value():
    # eta * min SNR = 1 reproduces the frozen single-link rate at m = 500
    p = _params(eta=0.5)
    g = LinkGains(g1=100.0, g2=2.0, g3=100.0)
    assert select_rate_avg_csi(g, p) == pytest.approx(0.8273322233233117, abs=1e-12)

def test_select_rate_infeasible_clamps_to_zero():
    # penalty exceeds capacity at vanishing SNR: selection signals 0.0
    p = _params(m=100, eta=0.5)
    g = LinkGains(g1=1.0, g2=2e-4, g3=1.0)
    assert select_rate_avg_csi(g, p) == 0.0

def test_select_rate_underflowing_bottleneck_is_zero():
    # eta * bottleneck SNR = 1e-320 * 1e-8 underflows to 0: the rate
    # formula ends in 0.0, like any other infeasible selection
    g = LinkGains(g1=1e-8, g2=1e-8, g3=1e-8)
    assert select_rate_avg_csi(g, _params(eta=1e-320)) == 0.0


# ---------------------------------------------------------------------------
# instantaneous overall error
# ---------------------------------------------------------------------------

def test_overall_error_composition_example():
    # unit mean SNRs so the draw values are the instantaneous SNRs
    g = LinkGains(g1=1.0, g2=1.0, g3=1.0)
    draw = (SNR_ERR_02, SNR_ERR_01, 0.0)
    # backhaul fails with 0.1, MRC decoding with 0.2: 0.1 + 0.9*0.2 = 0.28
    assert overall_error_instant(draw, 1.0, 500, g) == pytest.approx(0.28, abs=1e-12)

def test_overall_error_backhaul_outage_is_total():
    g = REF_GAINS
    draw = (5.0, 0.0, 5.0)
    assert overall_error_instant(draw, 2.0, 500, g) == 1.0

def test_overall_error_bounds():
    g = LinkGains(g1=2.4463, g2=5.0, g3=3.0)
    rng = np.random.default_rng(7)
    z = rng.standard_exponential((3, 200))
    r, m = 1.5, 500
    err = overall_error_instant(z, r, m, g)
    e2 = block_error(z[1] * 5.0, r, m)
    emrc = block_error(z[0] * 2.4463 + z[2] * 3.0, r, m)
    assert np.all(err >= np.maximum(e2, emrc) - 1e-15)
    assert np.all(err <= np.minimum(1.0, e2 + emrc) + 1e-15)
    assert np.all((err >= 0.0) & (err <= 1.0))

def test_overall_error_broadcasts_like_scalar():
    g = REF_GAINS
    rng = np.random.default_rng(3)
    z = rng.standard_exponential((3, 16))
    batch = overall_error_instant(z, 4.0, 500, g)
    singles = [overall_error_instant((a, b, c), 4.0, 500, g)
               for a, b, c in z.T]
    assert batch.shape == (16,)
    np.testing.assert_allclose(batch, singles, rtol=1e-15)


# ---------------------------------------------------------------------------
# fading-averaged error and throughput
# ---------------------------------------------------------------------------

def test_expected_error_reference_value():
    err = expected_overall_error(REF_RATE, 500, REF_GAINS)
    assert err == pytest.approx(REF_ERR, rel=1e-9)

@pytest.mark.parametrize("g1, g2, g3", [
    (2.4463, 307.405, 307.405), (5.0, 20.0, 5.0), (1e-30, 1e-30, 3e-30),
    (1e300, 1e300, 1e300)])
def test_expected_error_batch_equals_scalar_calls(g1, g2, g3):
    # rates at the origin, in the panels and with every drop beyond
    # Z_CUTOFF (the error is 1.0), at blocklengths from 100 to 1e7
    g = LinkGains(g1=g1, g2=g2, g3=g3)
    r, m = np.meshgrid([0.0, 1e-6, 0.5, 3.0, 7.0, 1100.0],
                       [100.0, 700.0, 1e4, 1e7], indexing="ij")
    batch = expected_overall_error(r, m, g)
    scalar = [expected_overall_error(a, b, g)
              for a, b in zip(r.ravel().tolist(), m.ravel().tolist())]
    assert batch.shape == r.shape
    assert all(isinstance(v, float) for v in scalar)
    assert [float(v).hex() for v in batch.ravel()] == [v.hex() for v in scalar]
    assert 1.0 in scalar

def test_select_rate_batch_equals_scalar_calls():
    etas = np.linspace(0.01, LN2, 7)
    ms = np.array([100.0, 500.0, 1e4, 1e7, 100.0, 300.0, 2e3])
    batch = select_rate_avg_csi(REF_GAINS, _params(eta=etas, m=ms))
    scalar = [select_rate_avg_csi(REF_GAINS, _params(eta=e, m=m))
              for e, m in zip(etas.tolist(), ms.tolist())]
    assert [float(v).hex() for v in batch] == [v.hex() for v in scalar]

def test_params_reject_any_bad_entry_of_an_array():
    with pytest.raises(ValueError):
        _params(m=np.array([500.0, 99.0]))
    with pytest.raises(ValueError):
        _params(eta=np.array([0.2, LN2 + 1e-6]))
    with pytest.raises(ValueError):
        _params(eta=np.array([0.2, np.nan]))

def test_expected_error_monotone_in_rate():
    errs = [expected_overall_error(r, 500, REF_GAINS)
            for r in (1.0, 2.0, 4.0, 6.0, 8.0)]
    assert all(b > a for a, b in zip(errs, errs[1:]))
    assert all(0.0 <= e <= 1.0 for e in errs)

def test_expected_error_saturates_for_huge_rate():
    assert expected_overall_error(20.0, 500, REF_GAINS) > 1.0 - 1e-6

def test_expected_error_small_for_tiny_rate():
    assert expected_overall_error(0.01, 10000, REF_GAINS) < 1e-3

def test_reference_scenario_regression():
    rate, err, thr = _relay_avg(REF_GAINS, REF_PARAMS)
    assert rate == pytest.approx(REF_RATE, rel=1e-12)
    assert err == pytest.approx(REF_ERR, rel=1e-9)
    assert thr == pytest.approx(REF_THR, rel=1e-9)
    # the CLI's relay_avg evaluator picks the same rate by itself
    res = _scheme("relay_avg")
    assert res["coding_rate"] == rate
    assert res["expected_error"] == err
    assert res["bl_throughput"] == thr

def test_throughput_matches_rate_error_identity():
    # the CLI's relay_avg evaluator at a swept rate
    res = _scheme("relay_avg", 3.0)
    err = expected_overall_error(3.0, 500, REF_GAINS)
    assert res["coding_rate"] == 3.0
    assert res["expected_error"] == err
    assert res["bl_throughput"] == pytest.approx(0.5 * 3.0 * (1.0 - err),
                                                 rel=1e-15)

def test_throughput_concave_in_rate():
    # central second differences stay nonpositive up to curvature noise
    h = 1e-3
    for r in np.linspace(0.5, 7.0, 20):
        f = [_thr(r + k * h) for k in (-1, 0, 1)]
        assert (f[0] - 2.0 * f[1] + f[2]) / h**2 <= 1e-6

def test_throughput_unimodal_in_weight():
    vals = [_relay_avg(REF_GAINS, _params(eta=e))[2]
            for e in np.linspace(0.01, LN2, 25)]
    diffs = np.diff(vals)
    signs = np.sign(diffs[np.abs(diffs) > 1e-9])
    flips = np.count_nonzero(np.diff(signs) != 0)
    assert flips == 1

def test_throughput_nondecreasing_in_blocklength_at_low_weight():
    thr = [_relay_avg(REF_GAINS, _params(m=m, eta=0.1))[2]
           for m in (100, 500, 2000)]
    assert thr[0] < thr[1] < thr[2]

def test_throughput_approaches_half_rate_for_strong_links():
    # fixed rate, huge gains: decoding never fails, throughput -> r/2.
    # (with weighted selection the error would not vanish: the selected
    # rate grows with the SNR and holds the error at an eta-driven level.)
    g = LinkGains(g1=1e9, g2=1e9, g3=1e9)
    thr = _thr(1.0, g)
    assert thr == pytest.approx(0.5, rel=1e-6)

def test_weighted_selection_pins_error_as_gains_grow():
    # scaling all gains tenfold leaves the expected error nearly unchanged
    p = _params(eta=0.1)
    errs = [_relay_avg(LinkGains(s * 2.4463, s * 307.405, s * 307.405), p)[1]
            for s in (1.0, 10.0, 100.0)]
    assert max(errs) - min(errs) < 0.02
    assert all(0.05 < e < 0.5 for e in errs)


# ---------------------------------------------------------------------------
# direct transmission baseline (blocklength 2m = 1000)
# ---------------------------------------------------------------------------

def test_direct_matched_rate_halves_relay_rate():
    res = _scheme("direct_matched")
    assert res["coding_rate"] == pytest.approx(0.5 * REF_RATE, rel=1e-12)

def test_direct_weighted_uses_own_link_snr():
    res = _scheme("direct_weighted")
    expect = achievable_rate(0.148 * 2.4463, 1e-3, 1000)
    assert res["coding_rate"] == pytest.approx(expect, rel=1e-12)

def test_direct_throughput_has_no_halving():
    res = _scheme("direct_weighted")
    assert res["bl_throughput"] == pytest.approx(
        res["coding_rate"] * (1.0 - res["expected_error"]), rel=1e-15)

def test_relay_beats_direct_on_reference_scenario():
    relay = _relay_avg(REF_GAINS, REF_PARAMS)[2]
    matched = _scheme("direct_matched")
    weighted = _scheme("direct_weighted")
    assert relay > 5.0 * matched["bl_throughput"]
    assert relay > 5.0 * weighted["bl_throughput"]


# ---------------------------------------------------------------------------
# genie-aided perfect-CSI reference
# ---------------------------------------------------------------------------

def test_perfect_csi_deterministic_under_seed():
    a = bl_throughput_perfect_csi(500, REF_GAINS, seed=42)
    b = bl_throughput_perfect_csi(500, REF_GAINS, seed=42)
    assert a == b
    assert a[0] == pytest.approx(REF_PERFECT_MEAN, rel=1e-9)
    assert a[1] == pytest.approx(REF_PERFECT_SE, rel=1e-9)

def test_perfect_csi_dominates_average_csi():
    mean, se = bl_throughput_perfect_csi(500, REF_GAINS, seed=1)
    assert se > 0.0
    assert mean - 3.0 * se > REF_THR

def test_perfect_csi_rejects_small_sample():
    with pytest.raises(ValueError):
        bl_throughput_perfect_csi(500, REF_GAINS, n_samples=1000)


# ---------------------------------------------------------------------------
# per-draw rate solver
# ---------------------------------------------------------------------------

def test_start_is_the_single_link_optimum():
    # the fitted start, unclamped, against the root it was fitted to:
    # within 1e-6 of it the first Halley step ends a draw
    u = np.concatenate([[0.0], np.logspace(-8.0, math.log10(2.4e7), 400)])
    x = _start(u, np.ones_like(u))
    with mpmath.workdps(30):
        roots = [optimum(b) for b in u]
        worst = max(abs(a - root) / root for a, root in zip(x, roots))
    assert worst <= 5e-7
    # beyond u = 2.4e7 the asymptotic optimum takes over
    u = np.logspace(math.log10(2.4e7), 12.0, 50)
    x = _start(u, np.ones_like(u))
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    assert np.all(x <= u)

def _per_draw_throughput(r, snr2, snr_mrc, m):
    e2 = block_error(snr2, r, m)
    emrc = block_error(snr_mrc, r, m)
    return 0.5 * r * (1.0 - (e2 + (1.0 - e2) * emrc))

def _totality_draws(mean_snr):
    """200 draws at one mean SNR; the first three have a zero-SNR link."""
    rng = np.random.default_rng(7)
    z = rng.standard_exponential((3, 200))
    snr2 = z[1] * mean_snr
    snr_mrc = 0.01 * z[0] * mean_snr + z[2] * mean_snr
    snr2[:2] = 0.0
    snr_mrc[1:3] = 0.0
    return snr2, snr_mrc

@pytest.mark.parametrize("m", [100, 1e4, 1e7])
@pytest.mark.parametrize("mean_snr", [1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_per_draw_solver_total(m, mean_snr):
    snr2, snr_mrc = _totality_draws(mean_snr)
    rate, value = _maximize_per_draw(snr2, snr_mrc, m)
    top = 1.5 * shannon_c(np.minimum(snr2, snr_mrc))
    assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
    assert np.all((rate >= 0.0) & (rate <= top))
    assert np.all(rate[:3] == 0.0) and np.all(value[:3] == 0.0)
    for k in range(3, 200, 7):
        grid = np.linspace(0.0, top[k], 20001)
        best = np.max(_per_draw_throughput(grid, snr2[k], snr_mrc[k], m))
        assert value[k] >= best * (1.0 - 1e-12)

@pytest.mark.parametrize("m", [100, 1e4, 1e7])
@pytest.mark.parametrize("mean_snr", [1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_per_draw_value_is_the_block_error_formula(m, mean_snr):
    # the solver scores its rates with fbl's normal approximation, so
    # its value is bitwise the throughput that block_error gives
    snr2, snr_mrc = _totality_draws(mean_snr)
    rate, value = _maximize_per_draw(snr2, snr_mrc, m)
    assert np.array_equal(value, _per_draw_throughput(rate, snr2, snr_mrc, m))

@pytest.mark.parametrize("m", [100, 1e7])
@pytest.mark.parametrize("mean_snr", [1e-300, 1e-310])
def test_per_draw_solver_faint_draws(m, mean_snr):
    # in plain units the Newton terms 1/r^2 and l*l overflowed here (an
    # error under the suite's RuntimeWarning filter); the feasible top
    # 1.5*C sits far below the spread s = sqrt(V/m)
    snr2, snr_mrc = _totality_draws(mean_snr)
    rate, value = _maximize_per_draw(snr2, snr_mrc, m)
    assert np.all(np.isfinite(rate)) and np.all(rate >= 0.0)
    assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
    assert np.all(value[:3] == 0.0)
    top = 1.5 * shannon_c(np.minimum(snr2, snr_mrc))
    for k in range(3, 200, 7):
        grid = np.linspace(0.0, top[k], 20001)
        best = np.max(_per_draw_throughput(grid, snr2[k], snr_mrc[k], m))
        assert value[k] >= best * (1.0 - 1e-12)

def test_per_draw_solver_boundary_optimum():
    # C << sqrt(V/m) on both links: the throughput still rises at the
    # right end of the feasible set, so that end is the optimum
    snr2, snr_mrc = np.array([1e-8]), np.array([1e-6])
    rate, value = _maximize_per_draw(snr2, snr_mrc, 100)
    top = 1.5 * shannon_c(1e-8)
    assert rate[0] == top
    grid = np.linspace(0.0, top, 20001)
    assert value[0] == np.max(_per_draw_throughput(grid, 1e-8, 1e-6, 100))

@pytest.mark.parametrize("mean_snr", [None, 1e-30, 1e-310])
def test_per_draw_throughput_below_half_capacity(mean_snr):
    # r*(1 - error) <= C for every r in [0, 1.5*C]: at rates above C the
    # error exceeds one half, also on faint draws where C << s
    rng = np.random.default_rng(13)
    z = rng.standard_exponential((3, 2000))
    if mean_snr is None:
        snr2 = z[1] * REF_GAINS.g2
        snr_mrc = z[0] * REF_GAINS.g1 + z[2] * REF_GAINS.g3
    else:
        snr2, snr_mrc = z[1] * mean_snr, (z[0] + z[2]) * mean_snr
    for m in (100, 500, 1e7):
        value = _maximize_per_draw(snr2, snr_mrc, m)[1]
        assert np.all(value <= 0.5 * shannon_c(np.minimum(snr2, snr_mrc)))

def _oracle_value(snr2, snr_mrc, m):
    """max of r*Phi(w2)*Phi(wm)/2 over r in [0, 1.5*C_min], at 30 digits.

    The argmax is top where the closed-form slope of log f is still >= 0
    there; else its root, bracketed by bisection, then found by findroot.
    """
    with mpmath.workdps(30):
        links = []
        for snr in (mpmath.mpf(float(snr2)), mpmath.mpf(float(snr_mrc))):
            v = snr * (2 + snr) / ((1 + snr) ** 2 * mpmath.log(2) ** 2)
            links.append((mpmath.log1p(snr) / mpmath.log(2),
                          mpmath.sqrt(v / m)))
        top = 1.5 * min(c for c, _ in links)

        def slope(r):
            return 1 / r - sum(mpmath.npdf((c - r) / s)
                               / (mpmath.ncdf((c - r) / s) * s)
                               for c, s in links)

        r = top
        if slope(top) < 0:
            lo, hi = 0, top
            for _ in range(40):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(mid) > 0 else (lo, mid)
            r = mpmath.findroot(slope, (lo, hi), solver="anderson")
        return r / 2 * mpmath.ncdf((links[0][0] - r) / links[0][1]) \
            * mpmath.ncdf((links[1][0] - r) / links[1][1])

@pytest.mark.parametrize("m", [100, 1e4, 1e7])
@pytest.mark.parametrize("mean_snr", [1e-300, 1e-8, 1.0, 1e8])
def test_per_draw_value_matches_high_precision_argmax(m, mean_snr):
    # the solver stops once a Halley step is below 1e-6 relative: f is
    # flat at its argmax, so the value must still be exact to rounding
    rng = np.random.default_rng(7)
    z = rng.standard_exponential((3, 12))
    snr2, snr_mrc = z[1] * mean_snr, (0.01 * z[0] + z[2]) * mean_snr
    _, value = _maximize_per_draw(snr2, snr_mrc, m)
    for k in range(12):
        ref = _oracle_value(snr2[k], snr_mrc[k], m)
        assert abs(value[k] - ref) <= 1e-15 * ref

def test_per_draw_solver_block_invariant():
    # each draw is solved on its own; where the batch splits must not
    # change any draw's result
    rng = np.random.default_rng(11)
    z = rng.standard_exponential((3, 100003))
    snr2 = z[1] * 307.405
    snr_mrc = z[0] * 2.4463 + z[2] * 307.405
    rate, value = _maximize_per_draw(snr2, snr_mrc, 500)
    k = 40001
    rate_a, value_a = _maximize_per_draw(snr2[:k], snr_mrc[:k], 500)
    rate_b, value_b = _maximize_per_draw(snr2[k:], snr_mrc[k:], 500)
    assert np.array_equal(rate, np.concatenate([rate_a, rate_b]))
    assert np.array_equal(value, np.concatenate([value_a, value_b]))

def test_per_draw_solver_rejects_negative_snr():
    with pytest.raises(ValueError):
        _maximize_per_draw(np.array([1.0, -1e-3]), np.array([1.0, 1.0]), 500)

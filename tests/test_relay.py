"""Tests for two-hop relaying: rate selection, error composition, throughput."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from fblrelay.cli import SCHEMES, Point
from fblrelay.fbl import achievable_rate, block_error
from fblrelay.fading import FadingDraw
from fblrelay.linklayer import QoSPair
from fblrelay.relay import (
    LinkGains,
    SystemParams,
    _maximize_per_draw,
    bl_throughput_perfect_csi,
    bottleneck_snr,
    expected_overall_error,
    overall_error_instant,
    select_rate_avg_csi,
)

LN2 = math.log(2.0)

# reference urban scenario: weak direct link, strong backhaul and relaying
REF_PARAMS = SystemParams(m=500, p_tx=1.0, sigma2=1.0, eps_nominal=1e-3, eta=0.148)
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
    base = dict(m=500, p_tx=1.0, sigma2=1.0, eps_nominal=1e-3, eta=0.148)
    base.update(kw)
    return SystemParams(**base)

def _relay_avg(gains, params):
    """Selected rate, expected error and throughput of average-CSI relaying."""
    r = select_rate_avg_csi(gains, params)
    err = expected_overall_error(r, params.m, gains, params)
    return r, err, 0.5 * r * (1.0 - err)

def _thr(r, gains=REF_GAINS):
    """Relaying throughput at a fixed per-hop rate."""
    return 0.5 * r * (1.0 - expected_overall_error(r, 500, gains, REF_PARAMS))

def _scheme(name, r=None):
    """All metrics of one scheme of the CLI table on the reference scenario."""
    pt = Point(REF_GAINS, REF_PARAMS, QoSPair(d=1e4, p_d=1e-2))
    return SCHEMES[name].evaluate(r, pt)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_params_reject_short_blocklength():
    with pytest.raises(ValueError):
        _params(m=99)

def test_params_reject_nonpositive_powers():
    with pytest.raises(ValueError):
        _params(p_tx=0.0)
    with pytest.raises(ValueError):
        _params(sigma2=-1.0)

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
    p = _params(p_tx=2.0)
    assert bottleneck_snr(LinkGains(g1=50.0, g2=4.0, g3=60.0), p) == 8.0
    assert bottleneck_snr(LinkGains(g1=1.0, g2=400.0, g3=2.5), p) == 7.0

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

def test_select_rate_scales_with_power_ratio():
    # doubling p_tx at fixed sigma2 doubles every SNR entering selection
    p1 = _params(eta=0.2)
    p2 = _params(eta=0.2, p_tx=2.0)
    g = LinkGains(g1=2.0, g2=30.0, g3=40.0)
    expect = achievable_rate(0.2 * 60.0, p2.eps_nominal, p2.m)
    assert select_rate_avg_csi(g, p2) == pytest.approx(expect, rel=1e-12)
    assert select_rate_avg_csi(g, p2) > select_rate_avg_csi(g, p1)

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

def test_select_rate_rejects_zero_bottleneck():
    p = _params()
    g = SimpleNamespace(g1=0.0, g2=0.0, g3=0.0)
    with pytest.raises(ValueError):
        select_rate_avg_csi(g, p)


# ---------------------------------------------------------------------------
# instantaneous overall error
# ---------------------------------------------------------------------------

def test_overall_error_composition_example():
    # unit average SNRs so the draw values are the instantaneous SNRs
    p = _params()
    g = LinkGains(g1=1.0, g2=1.0, g3=1.0)
    draw = FadingDraw(z1=SNR_ERR_02, z2=SNR_ERR_01, z3=0.0)
    # backhaul fails with 0.1, MRC decoding with 0.2: 0.1 + 0.9*0.2 = 0.28
    assert overall_error_instant(draw, 1.0, 500, g, p) == pytest.approx(0.28, abs=1e-12)

def test_overall_error_backhaul_outage_is_total():
    p = _params()
    g = REF_GAINS
    draw = FadingDraw(z1=5.0, z2=0.0, z3=5.0)
    assert overall_error_instant(draw, 2.0, 500, g, p) == 1.0

def test_overall_error_bounds():
    p = _params()
    g = LinkGains(g1=2.4463, g2=5.0, g3=3.0)
    rng = np.random.default_rng(7)
    z = rng.standard_exponential((3, 200))
    draw = FadingDraw(z1=z[0], z2=z[1], z3=z[2])
    r, m = 1.5, 500
    err = overall_error_instant(draw, r, m, g, p)
    e2 = block_error(z[1] * 5.0, r, m)
    emrc = block_error(z[0] * 2.4463 + z[2] * 3.0, r, m)
    assert np.all(err >= np.maximum(e2, emrc) - 1e-15)
    assert np.all(err <= np.minimum(1.0, e2 + emrc) + 1e-15)
    assert np.all((err >= 0.0) & (err <= 1.0))

def test_overall_error_broadcasts_like_scalar():
    p = _params()
    g = REF_GAINS
    rng = np.random.default_rng(3)
    z = rng.standard_exponential((3, 16))
    batch = overall_error_instant(FadingDraw(*z), 4.0, 500, g, p)
    singles = [overall_error_instant(FadingDraw(a, b, c), 4.0, 500, g, p)
               for a, b, c in z.T]
    assert batch.shape == (16,)
    np.testing.assert_allclose(batch, singles, rtol=1e-15)


# ---------------------------------------------------------------------------
# fading-averaged error and throughput
# ---------------------------------------------------------------------------

def test_expected_error_reference_value():
    err = expected_overall_error(REF_RATE, 500, REF_GAINS, REF_PARAMS)
    assert err == pytest.approx(REF_ERR, rel=1e-9)

def test_expected_error_monotone_in_rate():
    errs = [expected_overall_error(r, 500, REF_GAINS, REF_PARAMS)
            for r in (1.0, 2.0, 4.0, 6.0, 8.0)]
    assert all(b > a for a, b in zip(errs, errs[1:]))
    assert all(0.0 <= e <= 1.0 for e in errs)

def test_expected_error_saturates_for_huge_rate():
    assert expected_overall_error(20.0, 500, REF_GAINS, REF_PARAMS) > 1.0 - 1e-6

def test_expected_error_small_for_tiny_rate():
    assert expected_overall_error(0.01, 10000, REF_GAINS, REF_PARAMS) < 1e-3

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
    err = expected_overall_error(3.0, 500, REF_GAINS, REF_PARAMS)
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
    a = bl_throughput_perfect_csi(500, REF_GAINS, REF_PARAMS, seed=42)
    b = bl_throughput_perfect_csi(500, REF_GAINS, REF_PARAMS, seed=42)
    assert a == b
    assert a[0] == pytest.approx(REF_PERFECT_MEAN, rel=1e-9)
    assert a[1] == pytest.approx(REF_PERFECT_SE, rel=1e-9)

def test_perfect_csi_dominates_average_csi():
    mean, se = bl_throughput_perfect_csi(500, REF_GAINS, REF_PARAMS, seed=1)
    assert se > 0.0
    assert mean - 3.0 * se > REF_THR

def test_perfect_csi_rejects_small_sample():
    with pytest.raises(ValueError):
        bl_throughput_perfect_csi(500, REF_GAINS, REF_PARAMS, n_samples=1000)


# ---------------------------------------------------------------------------
# per-draw rate solver
# ---------------------------------------------------------------------------

def _per_draw_throughput(r, snr2, snr_mrc, m):
    e2 = block_error(snr2, r, m)
    emrc = block_error(snr_mrc, r, m)
    return 0.5 * r * (1.0 - (e2 + (1.0 - e2) * emrc))

@pytest.mark.parametrize("m", [100, 1e4, 1e7])
@pytest.mark.parametrize("mean_snr", [1e-8, 1e-3, 1.0, 1e3, 1e8])
def test_per_draw_solver_total(m, mean_snr):
    rng = np.random.default_rng(7)
    z = rng.standard_exponential((3, 200))
    snr2 = z[1] * mean_snr
    snr_mrc = 0.01 * z[0] * mean_snr + z[2] * mean_snr
    snr2[:2] = 0.0
    snr_mrc[1:3] = 0.0
    rate, value = _maximize_per_draw(snr2, snr_mrc, m)
    top = 1.5 * np.log2(1.0 + np.minimum(snr2, snr_mrc)) + 1e-5
    assert np.all(np.isfinite(value)) and np.all(value >= 0.0)
    assert np.all((rate >= 0.0) & (rate <= top))
    assert np.all(rate[:3] == 0.0) and np.all(value[:3] == 0.0)
    for k in range(3, 200, 7):
        grid = np.linspace(0.0, top[k], 20001)
        best = np.max(_per_draw_throughput(grid, snr2[k], snr_mrc[k], m))
        assert value[k] >= best * (1.0 - 1e-12)

def test_per_draw_solver_boundary_optimum():
    # C << sqrt(V/m) on both links: the throughput still rises at the
    # right end of the feasible set, so that end is the optimum
    snr2, snr_mrc = np.array([1e-8]), np.array([1e-6])
    rate, value = _maximize_per_draw(snr2, snr_mrc, 100)
    top = 1.5 * np.log2(1.0 + 1e-8) + 1e-5
    assert rate[0] == top
    grid = np.linspace(0.0, top, 20001)
    assert value[0] == np.max(_per_draw_throughput(grid, 1e-8, 1e-6, 100))

def test_per_draw_solver_block_invariant():
    # the draws are solved in fixed blocks; where the blocks split must
    # not change any draw's result
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

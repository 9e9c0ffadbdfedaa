"""Tests for the fading expectations and the quadrature engine.

Frozen oracle values come from scipy.integrate.quad with explicit
breakpoints bracketing the block-error transition (a single breakpoint
is not enough: QUADPACK can report 1e-14 accuracy while being 2e-4 off
on a saturated sigmoid).  Small-rate oracles integrate in t = sqrt(z),
which removes the square-root kink the error has at the origin there.
The engine under test never feeds the oracle.
"""

import math

import mpmath
import numpy as np
import pytest

from fblrelay import fading
from fblrelay.fbl import achievable_rate, block_error
from fblrelay.fading import (
    QuadratureNonConvergence,
    _eval_panels,
    _halve,
    _integrand,
    _meshes,
    _transition_hint,
    exp_average,
    expected_error_mrc,
    expected_error_single,
    mrc_outage_cdf,
    rayleigh_outage_cdf,
)
from fblrelay.relay import LinkGains
from oracles import panel_edges

def gains(g1=1.0, g2=1.0, g3=1.0):
    return LinkGains(g1, g2, g3)

def hints(*pairs):
    """exp_average's hints (z_star, halfwidth) from (z_star, h) pairs."""
    z_star, h = np.array(pairs, dtype=float).reshape(-1, 2).T
    return z_star, h

def hint_at(gain, r, m):
    """_transition_hint of one (r, m), as a batch of one."""
    return _transition_hint(gain, np.array([float(r)]), np.array([float(m)]))

# scipy.quad with transition-bracketing breakpoints, epsabs 1e-14
BACKHAUL_ORACLE = {
    (2.0, 0.5, 500): 0.18772327207186965,
    (307.405, 2.0, 500): 0.009725186904750263,
    (307.405, 2.0, 2000): 0.009715030827096446,
    (5.0, 1.0, 100): 0.1828150251024818,
    (0.5, 0.2, 1000): 0.2582678860426909,
    (1000.0, 9.0, 150): 0.40060229493863386,
}
# nested scipy.quad, inner bracketed per outer evaluation
MRC_ORACLE = {
    (2.4463, 307.405, 2.0, 500): 0.0041365532583843585,
    (300.0, 300.0, 5.0, 1000): 0.004994544678120235,
    (2.0, 3.0, 1.0, 100): 0.06579806623316171,
    (50.0, 0.5, 2.0, 2000): 0.04876684329423691,
}
# scipy.quad in t = sqrt(z) with breakpoints on the r = 0 drop scale and
# the capacity-crossing window, epsabs 1e-15; (r, snr, m) single link and
# (r, snr1, snr3, m) combined branch
SMALL_R_BACKHAUL_ORACLE = {
    (0.0, 1e-3, 100): 0.4218853026094193,
    (0.0, 1.0, 500): 0.00197668409029523,
    (1e-12, 100.0, 10000): 9.996975085737812e-07,
    (1e-6, 1.0, 1000): 0.0009947794500915605,
    (1e-3, 0.1, 2000): 0.01176117958524602,
}
SMALL_R_MRC_ORACLE = {
    (0.0, 0.1, 1.0, 500): 0.00010980645816144984,
    (1e-6, 2.0, 3.0, 100): 4.484187825731677e-05,
    (1e-3, 0.01, 5.0, 1000): 6.98650545681388e-05,
}
# P(X1 + X3 <= t) by direct convolution integral, epsabs 1e-14
CONV_CDF_ORACLE = {
    (3.0, 2.4463, 307.405): 0.004121097986774374,
    (3.0, 300.0, 300.0): 4.966791334026592e-05,
    (1.0, 2.0, 3.0): 0.06346738770389908,
    (31.0, 50.0, 0.5): 0.4566217802073995,
}


def mrc_nested(r, m, gains):
    """Nested-rule evaluation of the combined-branch expected error.

    Integrates the inner link conditionally on each outer node, with the
    larger-SNR branch innermost.  Far slower than expected_error_mrc but
    structurally independent of its hypoexponential collapse.  The inner
    transition sits where offset + s_in*u crosses the threshold, so its
    window is the single-link one shifted by offset/s_in.
    """
    s_out, s_in = sorted((gains.g1, gains.g3))
    z_in, h_in = map(float, _transition_hint(s_in, r, m))

    def outer(z_arr, _):
        # one inner integral per outer node, as one batch
        offset = z_arr * s_out
        return exp_average(
            lambda u, k: block_error(offset[k] + s_in * u, r, m), 3e-9,
            (z_in - offset / s_in, np.full(offset.size, h_in)))

    # the outer integrand ramps down to a kink at the outage boundary;
    # the kink curvature lives in the usual transition window
    val = exp_average(outer, 1e-8, hint_at(s_out, r, m))[0]
    return min(max(val, 0.0), 1.0)


class TestExpPdf:
    """The engine's weight is the unit-mean exponential density."""

    def test_normalization_under_engine(self):
        total = exp_average(lambda z, k: np.ones_like(z), 1e-10,
                            hints((5.0, 1.0)))
        assert total.shape == (1,)
        assert total[0] == pytest.approx(1.0, abs=1e-10)


class TestExpectedErrorBackhaul:
    @pytest.mark.parametrize("key", sorted(BACKHAUL_ORACLE))
    def test_frozen_oracle(self, key):
        snr, r, m = key
        val = expected_error_single(r, m, snr)
        assert val == pytest.approx(BACKHAUL_ORACLE[key], abs=1e-8)

    def test_zero_rate(self):
        lo = expected_error_single(0.0, 500, 300.0)
        hi = expected_error_single(0.0, 50000, 300.0)
        assert 0.0 < hi < lo < 0.5
        # the sharp origin drop carries mass ~1/(m*snr); a global rule
        # that misses it would return ~0 here
        assert lo == pytest.approx(6.627e-06, rel=1e-3)

    def test_large_m_reaches_outage(self):
        for snr, r in [(5.0, 1.0), (307.405, 2.0), (0.5, 0.2)]:
            val = expected_error_single(r, 1e8, snr)
            out = rayleigh_outage_cdf(2.0**r - 1.0, snr)
            assert val == pytest.approx(out, abs=1e-7)

    def test_strictly_inside_unit_interval(self):
        for r in (0.1, 1.0, 4.0):
            val = expected_error_single(r, 500, 20.0)
            assert 0.0 < val < 1.0

    def test_increasing_in_r(self):
        rs = np.linspace(0.2, 4.0, 12)
        vals = [expected_error_single(r, 500, 20.0) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_convex_in_r_over_operating_region(self):
        # rates up to the weighted-median-CSI selection cap
        snr = 307.405
        r_cap = achievable_rate(math.log(2.0) * snr, 1e-3, 500)
        h = 1e-3
        for r in np.linspace(0.3, r_cap, 7):
            f = lambda x: expected_error_single(x, 500, snr)
            second = f(r + h) - 2.0 * f(r) + f(r - h)
            assert second > 0.0

    def test_rate_domain(self):
        with pytest.raises(ValueError):
            expected_error_single(-0.1, 500, 1.0)


class TestExpectedErrorMrc:
    @pytest.mark.parametrize("key", sorted(MRC_ORACLE))
    def test_frozen_oracle(self, key):
        s1, s3, r, m = key
        val = expected_error_mrc(r, m, gains(g1=s1, g3=s3))
        assert val == pytest.approx(MRC_ORACLE[key], abs=1e-7)

    @pytest.mark.parametrize("key", sorted(MRC_ORACLE))
    def test_nested_route_agrees(self, key):
        # structurally independent evaluation of the same double integral
        s1, s3, r, m = key
        a = expected_error_mrc(r, m, gains(g1=s1, g3=s3))
        b = mrc_nested(r, m, gains(g1=s1, g3=s3))
        assert a == pytest.approx(b, abs=1e-7)

    def test_swap_symmetry_exact(self):
        a = expected_error_mrc(2.0, 500, gains(g1=2.4463, g3=307.405))
        b = expected_error_mrc(2.0, 500, gains(g1=307.405, g3=2.4463))
        assert a == b

    def test_faint_branch_approaches_single_link(self):
        # mean SNRs are positive; a branch 300 orders of magnitude below
        # the other adds nothing the tolerance can see
        a = expected_error_mrc(1.5, 500, gains(g1=1e-300, g3=5.0))
        b = expected_error_single(1.5, 500, 5.0)
        assert a == pytest.approx(b, abs=1e-8)

    def test_near_equal_means_stable(self):
        # straddles the Erlang branch: no cancellation blowup allowed
        base = expected_error_mrc(1.0, 500, gains(g1=10.0, g3=10.0))
        for wiggle in (1e-16, 1e-12, 1e-9, 1e-6):
            val = expected_error_mrc(1.0, 500, gains(g1=10.0, g3=10.0 * (1 + wiggle)))
            assert val == pytest.approx(base, abs=1e-6)

    def test_large_m_reaches_hypoexp_outage(self):
        for s1, s3, r in [(2.4463, 307.405, 2.0), (300.0, 300.0, 5.0)]:
            val = expected_error_mrc(r, 1e8, gains(g1=s1, g3=s3))
            out = mrc_outage_cdf(2.0**r - 1.0, s1, s3)
            assert val == pytest.approx(out, abs=1e-7)

    def test_increasing_and_convex_in_r(self):
        g = gains(g1=2.4463, g3=307.405)
        rs = np.linspace(0.3, 5.0, 9)
        vals = [expected_error_mrc(r, 500, g) for r in rs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        h = 1e-3
        for r in (0.5, 2.0, 4.0):
            f = lambda x: expected_error_mrc(x, 500, g)
            assert f(r + h) - 2.0 * f(r) + f(r - h) > 0.0

    def test_below_single_branch_error(self):
        # an extra combining branch can only help
        g = gains(g1=2.0, g3=5.0)
        mrc = expected_error_mrc(1.0, 500, g)
        single = expected_error_single(1.0, 500, 5.0)
        assert mrc < single


class TestQuadratureEngine:
    def test_node_doubling_invariance_panels(self):
        # wide transition at small gain*m: doubling the nodes of every
        # panel of the engine's mesh (16 to 32) leaves its value
        phi = lambda z: block_error(z * 0.2, 0.3, 100)
        lo, hi, _ = _meshes(*hint_at(0.2, 0.3, 100))
        edges = np.append(lo, hi[-1])
        x, w = np.polynomial.legendre.leggauss(32)
        mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        z = mid + half * x
        doubled = float(np.sum(half * w * np.exp(-z) * phi(z)))
        val = expected_error_single(0.3, 100, 0.2)
        assert val == pytest.approx(doubled, abs=1e-7)

    def test_panel_doubling_invariance(self):
        phi = lambda z, k: block_error(z * 307.405, 2.0, 500)
        lo, hi, counts = _meshes(*hint_at(307.405, 2.0, 500))
        items = np.array([0])
        coarse = _eval_panels(phi, lo, hi, counts, items)
        fine = _eval_panels(phi, *_halve(lo, hi), 2 * counts, items)
        assert fine == pytest.approx(coarse, abs=1e-7)

    def test_non_convergence_raises(self):
        # a jump off every panel edge converges only linearly in the
        # panel width, far slower than the refinement budget allows; the
        # window [4, 6] puts no edge at 1/3
        phi = lambda z, k: (z > 1.0 / 3.0).astype(float)
        with pytest.raises(QuadratureNonConvergence) as exc:
            exp_average(phi, 1e-12, hints((5.0, 1.0)))
        assert exc.value.index == 0


# rates from 0 through the smallest float to where the window is narrow,
# blocklengths over the validated range and mean SNRs over the floats
MESH_RATES = (0.0, 5e-324, 1e-300, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 1.0,
              2.0, 4.0, 9.0, 30.0)
MESH_MS = (100.0, 350.0, 1e3, 1e4, 1e5, 1e6, 1e7)
MESH_SCALES = (1e-30, 1e-12, 1e-3, 0.2, 2.4463, 307.405, 1e5, 1e12, 1e100,
               1e300)


class TestBatchedMesh:
    """_meshes is the reference mesh of tests/oracles.py, bit for bit."""

    @staticmethod
    def _check(z_star, h, extra=()):
        lo, hi, counts = _meshes(z_star, h, extra)
        ref = [panel_edges(hint, extra)
               for hint in zip(z_star.tolist(), h.tolist())]
        assert counts.tolist() == [len(edges) - 1 for edges in ref]
        assert _bits(lo) == _bits([e for edges in ref for e in edges[:-1]])
        assert _bits(hi) == _bits([e for edges in ref for e in edges[1:]])

    @pytest.mark.parametrize("scale", MESH_SCALES)
    def test_transition_hints(self, scale):
        # the kappa edges of expected_error_mrc at kappa = 0.3
        kappa_edges = tuple(2.0**j / 0.3 for j in range(-2, 7))
        r, m = np.meshgrid(MESH_RATES, MESH_MS, indexing="ij")
        z_star, h = _transition_hint(scale, r.ravel(), m.ravel())
        assert (h == 0.0).any() and (z_star - h <= 0.0).any()
        for extra in ((), kappa_edges):
            self._check(z_star, h, extra)

    def test_edge_windows(self):
        # steps that underflow to zero (np.linspace's other branch), the
        # closed window at the origin, a window wider than the domain, a
        # negative z_star and a width beyond the float range
        z_star = np.array([0.0, 0.0, 1e-323, 0.0, 3.0, 1e300, 10.0, -2.0,
                           5.0])
        h = np.array([5e-324, 3e-323, 1e-323, 0.0, 0.0, 1e300, 20.0, 1.0,
                      math.inf])
        self._check(z_star, h)
        self._check(z_star, h, (-1.0, 0.0, 0.5, 40.0, 41.0))

    def test_longest_tail_fits(self):
        # the closed window at z_star = 0 starts the smallest widths,
        # 1e-12, so its tail of 42 doublings and steps of 3 is the longest
        longest = len(panel_edges((0.0, 0.0))) - 1
        assert longest == 54 <= fading._TAIL
        self._check(np.zeros(1), np.zeros(1))


@pytest.mark.parametrize("scale", [1e-30, 0.2, 2.4463, 307.405, 1e300])
def test_integrand_is_block_error_bitwise(scale):
    rng = np.random.default_rng(7)
    r = np.concatenate(([0.0, 5e-324, 1e-12], rng.uniform(0.0, 12.0, 61)))
    m = np.exp(rng.uniform(math.log(100.0), math.log(1e7), r.size))
    z = np.concatenate(([0.0, fading.Z_CUTOFF],
                        rng.uniform(0.0, fading.Z_CUTOFF, 100_000 - 2)))
    k = rng.integers(0, r.size, z.size)
    # scale * z overflows to inf at the largest scale, as in the engine
    with np.errstate(over="ignore"):
        lean = _integrand(scale, r, m, None)(z, k)
        ref = block_error(scale * z, r[k], m[k])
    assert lean.tobytes() == ref.tobytes()


# rates at the origin, inside the panels, and with the drop beyond
# Z_CUTOFF at every mean SNR below (the value is exactly 1.0 there)
BATCH_RATES = (0.0, 1e-9, 0.05, 1.0, 4.0, 1100.0)
BATCH_MS = (100.0, 350.0, 2000.0, 1e5, 1e7)


def _bits(values):
    return [float(v).hex() for v in np.ravel(values)]


class TestBatchEqualsScalarCalls:
    """A batched average is bitwise the scalar call at each of its points."""

    @pytest.mark.parametrize("snr", [1e-30, 0.5, 307.405, 1e300])
    def test_single(self, snr):
        r, m = np.meshgrid(BATCH_RATES, BATCH_MS, indexing="ij")
        batch = expected_error_single(r, m, snr)
        assert batch.shape == r.shape
        scalar = [expected_error_single(a, b, snr)
                  for a, b in zip(r.ravel().tolist(), m.ravel().tolist())]
        assert all(isinstance(v, float) for v in scalar)
        assert _bits(batch) == _bits(scalar)
        assert 1.0 in scalar and min(scalar) < 0.5

    # the Erlang branch (kappa < 1e-15) and the expm1 weight
    @pytest.mark.parametrize("g1, g3", [(1e-30, 1e-30), (2.4463, 2.4463),
                                        (1e300, 1e300), (1e-30, 3e-30),
                                        (2.4463, 307.405), (1e300, 3e299)])
    def test_mrc(self, g1, g3):
        g = gains(g1=g1, g3=g3)
        r, m = np.meshgrid(BATCH_RATES, BATCH_MS, indexing="ij")
        batch = expected_error_mrc(r, m, g)
        assert batch.shape == r.shape
        scalar = [expected_error_mrc(a, b, g)
                  for a, b in zip(r.ravel().tolist(), m.ravel().tolist())]
        assert _bits(batch) == _bits(scalar)
        assert 1.0 in scalar and min(scalar) < 0.5

    def test_broadcast_of_m_alone_and_rate_alone(self):
        ms = np.array(BATCH_MS)
        assert _bits(expected_error_single(2.0, ms, 30.0)) == _bits(
            [expected_error_single(2.0, m, 30.0) for m in BATCH_MS])
        assert _bits(expected_error_single(np.array(BATCH_RATES), 500,
                                           30.0)) == _bits(
            [expected_error_single(r, 500, 30.0) for r in BATCH_RATES])

    def test_rate_domain_of_every_entry(self):
        with pytest.raises(ValueError):
            expected_error_single(np.array([1.0, 2.0, -0.1]), 500, 3.0)

    def test_non_convergence_names_its_entry(self, monkeypatch):
        # the entry beyond Z_CUTOFF is not in the quadrature batch; the
        # index is still the caller's
        monkeypatch.setattr(fading, "_MAX_ROUNDS", 0)
        with pytest.raises(QuadratureNonConvergence) as exc:
            expected_error_single(np.array([1100.0, 2.0]), 500, 3.0)
        assert exc.value.index == 1

    def test_engine_items_keep_their_own_self_check(self):
        # an item that cannot converge does not change its batchmates, and
        # the error names the first item left
        hard = lambda z: (z > 1.0 / 3.0).astype(float)
        easy = lambda z: np.exp(-z)
        phi = lambda z, k: np.where(k == 1, hard(z), easy(z))
        with pytest.raises(QuadratureNonConvergence) as exc:
            exp_average(phi, 1e-12, hints(*[(5.0, 1.0)] * 3))
        assert exc.value.index == 1
        both = exp_average(lambda z, k: easy(z), 1e-12,
                           hints((5.0, 1.0), (2.0, 0.5)))
        alone = [exp_average(lambda z, k: easy(z), 1e-12, hints(hint))[0]
                 for hint in [(5.0, 1.0), (2.0, 0.5)]]
        assert _bits(both) == _bits(alone)
        assert both == pytest.approx(0.5, abs=1e-12)


class TestRatesBeyondTheFloatRange:
    """From r = 1024 on no finite SNR reaches the rate: the error is one."""

    def test_hint_beyond_every_finite_z(self):
        assert _transition_hint(307.405, 1024.0, 500) == (math.inf, 0.0)
        assert _transition_hint(307.405, 1e308, 500) == (math.inf, 0.0)
        # 2^1000/1e-30 overflows although 2^1000 does not
        assert _transition_hint(1e-30, 1000.0, 500) == (math.inf, 0.0)

    @pytest.mark.parametrize("r, snr", [(1000.0, 1e-30), (1024.0, 307.405),
                                        (1100.0, 2.4463), (1e308, 1e-30)])
    def test_error_is_one(self, r, snr):
        for m in (100, 500, 1e7):
            assert expected_error_single(r, m, snr) == pytest.approx(
                1.0, abs=1e-12)
            assert expected_error_mrc(r, m, gains(g1=snr, g3=3.0 * snr)) == (
                pytest.approx(1.0, abs=1e-12))


RATES_NEAR_ZERO = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 1.0)
MEAN_SNRS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


class TestSmallRates:
    """Rates at and near zero, where the error drops like 0.5 - c*sqrt(z)."""

    @pytest.mark.parametrize("key", sorted(SMALL_R_BACKHAUL_ORACLE))
    def test_frozen_backhaul_oracle(self, key):
        r, snr, m = key
        val = expected_error_single(r, m, snr)
        assert val == pytest.approx(SMALL_R_BACKHAUL_ORACLE[key], abs=1e-9)

    @pytest.mark.parametrize("key", sorted(SMALL_R_MRC_ORACLE))
    def test_frozen_mrc_oracle(self, key):
        r, s1, s3, m = key
        val = expected_error_mrc(r, m, gains(g1=s1, g3=s3))
        assert val == pytest.approx(SMALL_R_MRC_ORACLE[key], abs=1e-9)

    @pytest.mark.parametrize("r", RATES_NEAR_ZERO)
    def test_total_over_domain(self, r):
        # a point the engine cannot resolve raises QuadratureNonConvergence
        for snr in MEAN_SNRS:
            for m in (100, 1000, 1e4, 1e5):
                single = expected_error_single(r, m, snr)
                mrc = expected_error_mrc(r, m, gains(g1=snr, g3=3.0 * snr))
                assert 0.0 <= single <= 1.0 and 0.0 <= mrc <= 1.0

    # The error of every draw rises with the rate, and so does its
    # average.  At mean SNRs above about 1e10 the hint for 0 < r puts the
    # drop at t = 2^r - 1, while it spans snr up to about 2*10^2/m; the
    # tail panels then miss it (ROADMAP item 16).  mpmath gives 9.74e-33
    # at r = 1e-12, the value at r = 0, where the engine returns 5.86e-37
    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
    def test_single_average_rises_with_the_rate_at_huge_mean_snr(self):
        assert (expected_error_single(1e-12, 100, 1e30)
                >= expected_error_single(0.0, 100, 1e30))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 16")
    def test_mrc_average_rises_with_the_rate_at_huge_mean_snrs(self):
        # 5.5% lower at the higher rate
        g = gains(g1=7.3e9, g3=4.2e12)
        assert (expected_error_mrc(9.5e-6, 957, g)
                >= expected_error_mrc(2.6e-6, 957, g))

    @pytest.mark.parametrize("r", RATES_NEAR_ZERO)
    def test_large_m_reaches_outage(self, r):
        # as r -> 0 the error keeps the mass of its drop at the origin,
        # E[Q(sqrt(m*snr*z/2))] ~ 1/(m*snr), which the outage limit drops
        m = 1e8
        for snr in MEAN_SNRS:
            slack = 1e-7 + 1.0 / (m * snr)
            single = expected_error_single(r, m, snr)
            assert single == pytest.approx(
                rayleigh_outage_cdf(2.0**r - 1.0, snr), abs=slack)
            mrc = expected_error_mrc(r, m, gains(g1=snr, g3=3.0 * snr))
            assert mrc == pytest.approx(
                mrc_outage_cdf(2.0**r - 1.0, snr, 3.0 * snr), abs=slack)


class TestClosedFormOutage:
    def test_rayleigh_formula(self):
        assert rayleigh_outage_cdf(0.0, 5.0) == 0.0
        assert rayleigh_outage_cdf(3.0, 5.0) == pytest.approx(
            1.0 - math.exp(-0.6), rel=1e-14
        )
        assert rayleigh_outage_cdf(-1.0, 5.0) == 0.0
        assert rayleigh_outage_cdf(3.0, 1e-300) == 1.0

    @pytest.mark.parametrize("key", sorted(CONV_CDF_ORACLE))
    def test_mrc_cdf_against_convolution(self, key):
        t, a, b = key
        assert mrc_outage_cdf(t, a, b) == pytest.approx(
            CONV_CDF_ORACLE[key], abs=1e-10
        )

    def test_mrc_cdf_swap_exact(self):
        assert mrc_outage_cdf(3.0, 2.0, 7.0) == mrc_outage_cdf(3.0, 7.0, 2.0)

    def test_erlang_guard_continuity(self):
        g = 10.0
        erlang = mrc_outage_cdf(5.0, g, g)
        expect = 1.0 - (1.0 + 0.5) * math.exp(-0.5)
        assert erlang == pytest.approx(expect, rel=1e-14)
        # just above and below the 1e-9 relative guard
        below = mrc_outage_cdf(5.0, g, g * (1 + 0.5e-9))
        above = mrc_outage_cdf(5.0, g, g * (1 + 2e-9))
        assert below == pytest.approx(erlang, abs=1e-9)
        assert above == pytest.approx(erlang, abs=1e-9)

    def test_faint_mean(self):
        # a branch far below the other leaves the single-link outage
        expect = rayleigh_outage_cdf(3.0, 5.0)
        assert mrc_outage_cdf(3.0, 1e-300, 5.0) == pytest.approx(expect,
                                                                 rel=1e-14)
        assert mrc_outage_cdf(3.0, 5.0, 1e-300) == pytest.approx(expect,
                                                                 rel=1e-14)

    def test_infinite_threshold_is_certain_outage(self):
        # 2^r - 1 reads inf from r = 1024 on; the Erlang branch must not
        # form inf*0 there (the suite turns a RuntimeWarning into an error)
        assert rayleigh_outage_cdf(math.inf, 5.0) == 1.0
        assert mrc_outage_cdf(math.inf, 5.0, 5.0) == 1.0
        assert mrc_outage_cdf(math.inf, 2.0, 7.0) == 1.0
        # at 2^1023 - 1 the distinct-means exponent overflows to -inf
        assert mrc_outage_cdf(2.0**1023 - 1.0, 2.0, 7.0) == 1.0

    @pytest.mark.parametrize("mean1, mean3", [(1e-212, 2e-212),
                                              (1e-300, 2e-300),
                                              (1e160, 3e160)])
    def test_distinct_means_at_extreme_scales(self, mean1, mean3):
        # the exponent t*(a - b)/(a*b) formed a*b first: below means of
        # about 1e-154 it underflowed (a RuntimeWarning, an error here; NaN
        # where t*(a - b) did too), above 1e154 it overflowed to inf and
        # the exponent read 0.  Smaller thresholds: see
        # test_small_threshold_against_mpmath
        a, b = mpmath.mpf(mean3), mpmath.mpf(mean1)
        for t in (0.5 * mean1, mean1, 2.5 * mean1, 10.0 * mean3):
            with mpmath.workdps(40):
                tm = mpmath.mpf(t)
                ref = 1 - (a * mpmath.exp(-tm / a)
                           - b * mpmath.exp(-tm / b)) / (a - b)
            out = mrc_outage_cdf(t, mean1, mean3)
            assert abs(out - ref) <= 1e-14 * ref, t
            assert mrc_outage_cdf(t, mean3, mean1) == out

    @pytest.mark.parametrize("mean1, mean3", [
        (1.0, 2.0), (2.4463, 307.405), (1.0, 1e6), (1e-212, 2e-212),
        (1e160, 3e160), (1.0, 1.0), (1.0, 1.0 + 1e-12), (1.0, 1.0 + 2e-9),
        (1.0, 1.0 + 1e-6)])
    def test_small_threshold_against_mpmath(self, mean1, mean3):
        # far below the smaller mean b the CDF is about t^2/(2 a b), and
        # both closed forms cancel: at means (1, 2) they were 4.2e-11 off
        # at t = 1e-3 b and 8.9e-5 at 1e-6 b.  Across the power series'
        # crossover at t = b/2 and on to t = 100 b, at 60 digits (the
        # reference cancels too)
        b, a = sorted((mean1, mean3))
        ts = b * np.concatenate([np.logspace(-12.0, 2.0, 141),
                                 [0.5 * (1.0 - 1e-15), 0.5 * (1.0 + 1e-15)]])
        out = mrc_outage_cdf(ts, mean1, mean3)
        with mpmath.workdps(60):
            am, bm = mpmath.mpf(a), mpmath.mpf(b)
            for t, value in zip(ts, out):
                tm = mpmath.mpf(t)
                if a == b:
                    x = tm / am
                    ref = -mpmath.expm1(-x) - x * mpmath.exp(-x)
                else:
                    ref = 1 - (am * mpmath.exp(-tm / am)
                               - bm * mpmath.exp(-tm / bm)) / (am - bm)
                assert abs(value - ref) <= 2e-15 * ref, t / b
        assert np.array_equal(mrc_outage_cdf(ts, mean3, mean1), out)

    def test_monotone_in_t(self):
        ts = np.linspace(0.1, 30.0, 40)
        vals = mrc_outage_cdf(ts, 2.4463, 307.405)
        assert np.all(np.diff(vals) > 0.0)

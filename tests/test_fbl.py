"""Unit and property tests for the normal-approximation primitives.

Frozen expected values were produced by an independent oracle (math.erfc with
bisection inversion, hand-composed formulas) before the implementation.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from fblrelay.fbl import (
    _ERFCX,
    LOG2E,
    _mills,
    _pow2,
    _rational_rows,
    _spread_at,
    achievable_rate,
    block_error,
    q_func,
    q_inv,
    shannon_c,
)
from fblrelay.relay import _START, _start

# oracle: bisection on math.erfc, 200 halvings
QINV_1E3 = 3.090232306167813
QINV_1E2 = 2.3263478740408416


def dispersion(snr):
    """V = m * s^2 of a complex channel from fbl's spread s = sqrt(V/m), m = 1."""
    return np.square(_spread_at(np.log1p(np.asarray(snr, dtype=float)), LOG2E))


class TestQFunctions:
    def test_q_at_zero(self):
        assert q_func(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_q_known_decile(self):
        assert q_func(1.2815515655446004) == pytest.approx(0.1, rel=1e-12)

    def test_q_inv_frozen_values(self):
        assert q_inv(1e-3) == pytest.approx(QINV_1E3, rel=1e-12)
        assert q_inv(1e-2) == pytest.approx(QINV_1E2, rel=1e-12)
        assert abs(q_inv(0.5)) < 1e-12

    def test_q_inv_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                q_inv(bad)

    def test_round_trip_grid(self):
        # below w = -5.2 the map w -> eps -> w hits the float64 floor:
        # eps = 1 - Q(|w|) rounds to ~5.6e-17 absolute, amplified by
        # 1/phi(|w|) on the way back, so 1e-10 is representable only above
        w = np.linspace(-5.2, 6.0, 1121)
        back = q_inv(q_func(w))
        assert np.max(np.abs(back - w)) < 1e-10

    def test_round_trip_full_range_at_floor(self):
        w = np.linspace(-6.0, 6.0, 1201)
        back = q_inv(q_func(w))
        assert np.max(np.abs(back - w)) < 2e-8

    def test_large_arrays_give_the_small_array_values(self):
        # only the values with 0 < Q < 1 go through the kernel, gathered;
        # the others are exactly 0 or 1 at every array size
        w = np.concatenate([np.linspace(-70.0, 70.0, 8001),
                            np.linspace(-8.4, -8.2, 501),
                            np.linspace(38.5, 38.7, 501), [np.inf, -np.inf]])
        small = np.concatenate([q_func(part) for part in np.array_split(w, 9)])
        assert np.array_equal(q_func(w), small)

    def test_a_lone_value_reads_as_among_others(self):
        # a scalar, or the one value left in a slice, must get the bits it
        # gets in an array: no sum may take another order for fewer values
        w = np.linspace(-9.0, 40.0, 2001)
        assert np.array_equal(q_func(w), [q_func(x) for x in w])
        _, mills = _mills(0.0, w, 1.0)
        assert np.array_equal(mills, [_mills(0.0, x, 1.0)[1] for x in w])
        # the solver's start shares the kernel's rational evaluator; C/s
        # runs past the fit's range, 2.4e7, to the asymptotic branch
        c, s = np.logspace(-3.0, 9.0, 401), np.full(401, 0.7)
        assert np.array_equal(_start(c, s), [_start(c[i:i + 1], s[i:i + 1])[0]
                                             for i in range(c.size)])

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 16385, (1 << 15) + 1])
    def test_rational_reads_the_same_at_every_length(self, n):
        # every value must get the bits it gets two at a time, in the
        # kernel's and the start's fit, at lengths about the fading
        # averages' slice of 8192 nodes and the Monte Carlo slice of 2^15
        x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        for coeffs in (_ERFCX, _START):
            pairs = np.concatenate([_rational_rows(coeffs, x[i:i + 2])
                                    for i in range(0, n, 2)], axis=1)
            assert np.array_equal(_rational_rows(coeffs, x), pairs)

    @pytest.mark.parametrize("coeffs, lo, hi", [(_ERFCX, -0.45, 0.55),
                                                (_START, -1.0, 1.0)])
    def test_rational_is_within_its_horner_bound(self, coeffs, lo, hi):
        # against the exact value of the same coefficients at the same
        # floats: Horner's rule errs by about 2k eps times the sum of the
        # terms' magnitudes at worst, and reads 1.80 eps times it at most
        x = np.linspace(lo, hi, 3001)
        got = _rational_rows(coeffs, x)
        for row, vals in zip(coeffs.tolist(), got.tolist()):
            for xi, v in zip(x.tolist(), vals):
                exact = Fraction(0)
                for c in row:
                    exact = exact * Fraction(xi) + Fraction(c)
                size = sum(abs(c) * abs(xi) ** k
                           for k, c in enumerate(row[::-1]))
                err = abs(Fraction(v) - exact)
                assert err <= 4 * np.finfo(float).eps * size, (xi, v)
                if coeffs is _ERFCX:
                    # the kernel's coefficients are all positive: within
                    # 2 ulp of the correctly rounded value (1.73 at most)
                    assert err <= 2 * np.spacing(float(exact)), (xi, v)

    @pytest.mark.parametrize("n", [1, 10, 4095, 4096, 5000])
    def test_nan_gives_nan_at_every_size(self, n):
        # a NaN argument gives NaN at every array size, never 0.0, which
        # would read as a certain success
        nan = np.full(n, np.nan)
        assert np.isnan(q_func(nan)).all()
        assert np.isnan(block_error(nan, 1.0, 500.0)).all()
        assert math.isnan(q_func(math.nan))

    def test_every_array_layout_gives_the_same_values(self):
        # the kernel flattens its input, and a large array has its values
        # gathered and put back: a transposed (Fortran-ordered) or strided
        # view must come back in its own element order
        w = np.linspace(-70.0, 70.0, 8192).reshape(64, 128)
        for view in (w.T, w[:, ::3], w[::-1]):
            assert np.array_equal(q_func(view),
                                  q_func(np.ascontiguousarray(view)))
            snr = np.exp(view / 4.0)
            assert np.array_equal(block_error(snr, 1.0, 500.0),
                                  block_error(snr.copy(), 1.0, 500.0))

    @given(st.floats(min_value=1e-8, max_value=0.5))
    def test_round_trip_eps(self, eps):
        assert q_func(q_inv(eps)) == pytest.approx(eps, rel=1e-11)

    @given(st.floats(min_value=-5.0, max_value=5.0))
    def test_q_monotone_decreasing(self, w):
        assert q_func(w + 1e-3) < q_func(w)


class TestCapacityAndDispersion:
    def test_shannon_points(self):
        assert shannon_c(0.0) == 0.0
        assert shannon_c(1.0) == pytest.approx(1.0, rel=1e-15)
        assert shannon_c(3.0) == pytest.approx(2.0, rel=1e-15)

    def test_shannon_below_machine_epsilon(self):
        # 1 + snr rounds to 1 below snr ~1e-16; capacity is snr*log2(e)
        assert shannon_c(1e-30) == pytest.approx(1e-30 * LOG2E, rel=1e-15)

    def test_dispersion_complex_values(self):
        assert dispersion(0.0) == 0.0
        assert dispersion(1.0) == pytest.approx(1.5610267357542058, abs=1e-12)
        assert dispersion(1e9) == pytest.approx(2.0813689810056077, rel=1e-8)

    def test_dispersion_real_values(self):
        # a real channel has half the complex dispersion
        assert 0.5 * dispersion(0.0) == 0.0
        half_limit = LOG2E**2 / 2.0
        assert 0.5 * dispersion(10.0) / half_limit == pytest.approx(
            0.9917355371900827, rel=1e-12
        )

    def test_dispersion_finite_at_extreme_snr(self):
        # the rational form is exactly its limit from snr ~3.6e16 on, and
        # its products overflowed (inf/inf = NaN) past snr ~1.3e154
        limit = dispersion(1e17)
        assert limit == LOG2E**2
        for g in (1e100, 1.5e154, 1e160, 1e300, 1.7e308):
            assert dispersion(g) == limit
        np.testing.assert_array_equal(dispersion(np.array([1e160, 1e17])),
                                      [limit, limit])

    def test_dispersion_alternate_form(self):
        # 1 - 2^(-2C) form agrees with the rational form
        for g in (0.01, 0.5, 1.0, 7.3, 250.0):
            c = shannon_c(g)
            alt = (1.0 - 2.0 ** (-2.0 * c)) * LOG2E**2
            assert dispersion(g) == pytest.approx(alt, rel=1e-13)


class TestAchievableRate:
    def test_frozen_composition(self):
        # oracle: 1 - sqrt(1.5610267/500) * 3.0902323
        assert achievable_rate(1.0, 1e-3, 500) == pytest.approx(
            0.8273322233233117, abs=1e-12
        )

    def test_median_error_is_capacity(self):
        assert achievable_rate(3.7, 0.5, 200) == pytest.approx(
            shannon_c(3.7), rel=1e-12
        )

    def test_infinite_blocklength_limit(self):
        assert achievable_rate(2.0, 1e-3, 1e12) == pytest.approx(
            shannon_c(2.0), abs=1e-5
        )

    def test_clamp_to_zero(self):
        # tiny eps, tiny m: penalty exceeds capacity
        assert achievable_rate(0.01, 1e-8, 1) == 0.0

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            achievable_rate(1.0, 0.0, 500)
        with pytest.raises(ValueError):
            achievable_rate(1.0, 1.0, 500)

    @given(
        st.floats(min_value=0.05, max_value=100.0),
        st.floats(min_value=1e-6, max_value=0.4),
    )
    def test_increasing_in_eps(self, g, eps):
        hi = achievable_rate(g, eps * 1.5, 500)
        assume(hi > 0.0)  # both clamped to zero is vacuous
        assert hi > achievable_rate(g, eps, 500)

    @given(
        st.floats(min_value=0.05, max_value=100.0),
        st.integers(min_value=100, max_value=5000),
    )
    def test_increasing_in_m(self, g, m):
        hi = achievable_rate(g, 1e-3, 2 * m)
        assume(hi > 0.0)
        assert hi > achievable_rate(g, 1e-3, m)


class TestBlockError:
    def test_rate_at_capacity(self):
        assert block_error(2.0, shannon_c(2.0), 500) == pytest.approx(0.5, rel=1e-12)

    def test_zero_rate(self):
        e = block_error(2.0, 0.0, 500)
        assert e < 0.5
        assert block_error(2.0, 0.0, 50000) < e

    def test_extreme_snr(self):
        # a NaN dispersion would read as zero SNR here and give 1.0
        assert block_error(1e160, 100.0, 500) == 0.0
        r = achievable_rate(1e160, 1e-3, 500)
        assert math.isfinite(r)
        assert shannon_c(1e160) - 0.2 < r < shannon_c(1e160)

    def test_zero_gain_limits(self):
        assert block_error(0.0, 0.5, 500) == 1.0
        assert block_error(0.0, 0.0, 500) == 0.5

    def test_vanishing_spread_limits(self):
        # sqrt(V/m) underflows to 0 at an infinite blocklength; the error
        # is then the step Q(+-inf), and Q(0) where the rate equals the
        # capacity (it was 0/0 = NaN).  At a subnormal SNR the spread
        # stays positive and C/s ~ sqrt(snr*m) is far below one
        assert block_error(1e-320, 0.0, 1e7) == 0.5
        assert block_error(5e-324, 0.0, 100) == 0.5
        assert block_error(1e-320, 1e-3, 1e7) == 1.0
        assert block_error(2.0, shannon_c(2.0), math.inf) == 0.5
        assert block_error(2.0, 1.0, math.inf) == 0.0

    def test_infinite_snr_or_rate_limits(self):
        # C - r = +-inf is the step Q(-+inf); a mean SNR near the float
        # range times a fading draw overflows to snr = inf
        assert block_error(math.inf, 1.0, 100.0) == 0.0
        assert block_error(math.inf, 0.0, 100.0) == 0.0
        assert block_error(math.inf, 1.0, math.inf) == 0.0
        assert block_error(2.0, math.inf, 100.0) == 1.0

    def test_round_trip_frozen(self):
        assert block_error(2.5, achievable_rate(2.5, 1e-2, 500), 500) == pytest.approx(
            1e-2, rel=1e-10
        )

    @given(
        st.floats(min_value=0.01, max_value=1000.0),
        st.floats(min_value=1e-8, max_value=0.5),
        st.integers(min_value=100, max_value=100000),
    )
    def test_round_trip_property(self, g, eps, m):
        r = achievable_rate(g, eps, m)
        if r > 0.0:
            assert block_error(g, r, m) == pytest.approx(eps, rel=1e-9)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=-6.0, max_value=6.0),
    )
    def test_monotone_in_rate(self, g, a):
        # place the rate so Q evaluates in [Q(6), 1-Q(6)]: no saturation
        r = shannon_c(g) - a * math.sqrt(dispersion(g) / 500.0)
        assume(r > 0.0)
        assert block_error(g, r + 1e-3, 500) > block_error(g, r, 500)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.75, max_value=0.98),
    )
    def test_monotone_in_gain_and_m(self, g, frac):
        # strictly below capacity: error falls with gain and with blocklength
        r = frac * shannon_c(g)
        assert block_error(g * 1.1, r, 500) < block_error(g, r, 500)
        assert block_error(g, r, 1000) < block_error(g, r, 500)

    def test_vectorized(self):
        g = np.array([0.0, 1.0, 5.0])
        e = block_error(g, 0.8, 500)
        assert e.shape == (3,)
        assert e[0] == 1.0
        assert e[1] == pytest.approx(block_error(1.0, 0.8, 500))


class TestPow2:
    def test_python_power_item_by_item(self):
        # numpy's vectorized power and exp2 are an ulp off Python's 2.0**x
        # on some rates; in [53, 54), (2^r - 1) + 1 is off 2^r too
        rng = np.random.default_rng(11)
        r = np.concatenate([rng.uniform(0.0, 30.0, 2000000),
                            np.linspace(53.0, 54.0, 4001)[:-1],
                            [0.0, 0.5, 1023.0, 1023.99]])
        assert _pow2(r).tolist() == [2.0**x for x in r.tolist()]

    def test_overflow_from_1024_on(self):
        r = np.array([[1023.99, 1024.0], [2e6, math.inf]])
        assert _pow2(r).tolist() == [[2.0**1023.99, math.inf],
                                     [math.inf, math.inf]]

    def test_scalars_in_scalars_out(self):
        for r in (2.5, np.float64(2.5), np.array(2.5)):
            value = _pow2(r)
            assert type(value) is float and value == 2.0**2.5
        assert _pow2(1024.0) == math.inf

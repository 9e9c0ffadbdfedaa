"""Monte Carlo twins of the analytic fading averages.

Every quadrature-based expectation has a sampling estimate here for
cross-validation, each an McEstimate(mean, std_err).  The error mean and
one count of two-stage Bernoulli decode events (backhaul, then MRC) map
chunks of inverse-CDF draws (draw_fading) on substreams of one
SeedSequence over one thread pool (_map_chunks), and merge them in chunk
order (Welford for the moments), so results are bit-identical for any
worker count.  The perfect-CSI and ergodic references average a
per-draw function with its standard error (_sample_mean) over one (3, n)
array that Generator.standard_exponential draws in the caller's thread.
bench/refs freezes the values of both samplers at rel 1e-9, so both stay
until ROADMAP items 2 and 3 retire the sample means.  Every sampler
forms its link SNRs in place by one map (_link_snrs): a (3, n) draw
becomes rows (snr_mrc, snr2, spare).  _check_n floors every sample count.

The error mean and the decode-event count settle most draws without the
kernel.  Per call, the error of a draw is one decreasing function of its
SNR, shared by both links: exactly 1 up to the SNR where (C - r)/s =
-8.3 and below Q(8.3) = 5.21e-17 < 2^-54 from the SNR where it is 8.3,
the band that _band returns.  The overall error's chunk runs block_error
only on the draws inside the band, and takes those above it as 0; a
guard recomputes any chunk whose sum those could move by more than 2^-40
relative, so each chunk's sum is within that of the one with both errors
of every draw.  The decode events are screened: _screen tabulates the
error once over the band and decides almost every draw from its bin's
bracket, by one log and two gathers; only the draws whose uniform falls
inside the bracket go through block_error.  The count is bitwise the one
with both errors of every draw.

Every sampling path works inside the buffer it draws.  A chunk forms its
backhaul and MRC SNRs in place and keeps them; the overall error writes
its values into the third row, where its moments run, and the decode
events draw their uniforms into it.  So a worker holds one (3, 2^18)
buffer and the temporaries of one slice.  A sample mean's values
overwrite the MRC row of its draws, and their deviations the values.
"""

import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .fbl import LOG2E, _capacity, _spread_at, block_error

_CHUNK = 1 << 18
# draws mapped together: their temporaries stay in cache, and each of
# the short numpy calls of fbl's kernels spans enough draws to pay for
# itself when two worker threads share the cores
_SLICE = 1 << 15


class McEstimate(NamedTuple):
    """Sample mean with its standard error."""

    mean: float
    std_err: float


def draw_fading(rng, size):
    """size independent unit-mean exponential triples, by inverse CDF.

    Returns one (3, size) array z: rows z[0] direct link, z[1]
    source-relay, z[2] relay-destination.  Maps uniforms through
    z = -ln(1 - u) so the open-interval endpoint of the generator cannot
    produce an infinite variate.
    """
    z = rng.random((3, size))
    # -log1p(-u) in place: no chunk-sized temporaries
    np.negative(np.log1p(np.negative(z, out=z), out=z), out=z)
    return z

def _link_snrs(z, gains):
    """Rows (snr_mrc, snr2, spare) of a (3, k) draw z, formed in place.

    The one map from fading draws to the MRC SNR z1*g1 + z3*g3 and the
    backhaul SNR z2*g2; the third row, z3*g3, is left to the caller.
    """
    z[1] *= gains.g2
    z[0] *= gains.g1
    z[2] *= gains.g3
    z[0] += z[2]
    return z

def _sample_mean(fn, n, seed, gains):
    """Mean and standard error of fn(snr2, snr_mrc) over n fading draws.

    fn must be elementwise.  It runs on slices of _SLICE draws, and each
    slice's values overwrite its MRC SNRs after fn has read them; the
    steps of np.mean and np.std(ddof=1) then run in place on that row,
    with the same bits.
    """
    snr_mrc, snr2, _ = _link_snrs(
        np.random.default_rng(seed).standard_exponential((3, n)), gains)
    for i in range(0, n, _SLICE):
        blk = slice(i, i + _SLICE)
        snr_mrc[blk] = fn(snr2[blk], snr_mrc[blk])
    vals = snr_mrc
    mean = np.add.reduce(vals) / n
    vals -= mean
    vals *= vals
    return McEstimate(float(mean),
                      math.sqrt(np.add.reduce(vals) / (n - 1)) / math.sqrt(n))


# ---------------------------------------------------------------------------
# chunked streaming accumulation
# ---------------------------------------------------------------------------

def _chunk_layout(n, seed):
    n = int(n)
    sizes = [_CHUNK] * (n // _CHUNK)
    if n % _CHUNK:
        sizes.append(n % _CHUNK)
    return sizes, np.random.SeedSequence(seed).spawn(len(sizes))

def _map_chunks(fn, n, seed, workers):
    """fn(rng, k) on every chunk's substream, results in chunk order.

    Chunks run on a pool of workers threads; each has its own
    generator, so the worker count affects speed only.
    """
    sizes, seqs = _chunk_layout(n, seed)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda seq, k: fn(np.random.default_rng(seq), k),
                             seqs, sizes))

def _merge_welford(a, b):
    na, ma, m2a = a
    nb, mb, m2b = b
    n = na + nb
    d = mb - ma
    return (n, ma + d * nb / n, m2a + m2b + d * d * na * nb / n)

# The screen's bins of ln snr: _BINS over the band of the error, no
# narrower than 2^-40 |ln snr| each, so that rounding moves a draw's bin
# index by less than one bin.  Its range lies in _LOG_SNR, from the least
# subnormal past the largest float.  At validate --seed 42 (8 points, 1e6
# draws) 1024 bins leave 9214 of 3.2e7 decisions open (2.9e-4), for 16400
# knots.  On a table over w = -8.3..38.6, 4096 bins left 2e-4 against 7e-4
# at no gain in time, and their knots raised validate's peak RSS 0.25 MB
_BINS = 1024
_LOG_SNR = (-745.0, 710.0)


def _w_at(x, r, f):
    """(C - r)/s at ln snr = x and f = LOG2E/sqrt(m).

    ln(1 + snr) is taken as max(x, 0) + log1p(exp(-|x|)), which neither
    overflows nor underflows to 0 on _LOG_SNR.
    """
    y = max(x, 0.0) + math.log1p(math.exp(-abs(x)))
    return (_capacity(y) - r) / _spread_at(y, f)

def _log_snr_at(w, r, f):
    """ln snr on _LOG_SNR where (C - r)/s crosses w, by bisection.

    (C - r)/s rises with y = ln(1 + snr): its y-derivative has the sign
    of 1 - e^(-2y)(1 + y - r ln 2) > 0.  Near an end of _LOG_SNR where
    it does not cross.
    """
    lo, hi = _LOG_SNR
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _w_at(mid, r, f) < w:
            lo = mid
        else:
            hi = mid
    return lo

# The band of the error: in float64 the kernel's error is exactly 1 up to
# w = (C - r)/s = -8.3 and below Q(8.3) = 5.21e-17 from w = 8.3 on.  The
# band's edges lie 1e-6 further out, beyond the rounding of w in the
# kernel and in _w_at; the kernel's 1 - Q rounds to 1 up to w = -8.29, and
# its Q stays below _E_ABOVE from w = 8.298 on
_W_BAND = 8.3 + 1e-6
# the kernel's largest error at or above the band
_E_ABOVE = 5.3e-17
_LN_MAX = math.log(sys.float_info.max)


def _band(r, m):
    """(lo, hi, x_lo, x_hi): block_error(snr, r, m) is 1 at snr <= lo and
    below _E_ABOVE, which is under 2^-54, at snr >= hi.

    x_lo and x_hi are the edges in ln snr, where w crosses -+_W_BAND on
    _LOG_SNR.  A side whose crossing does not lie inside _LOG_SNR, or whose
    SNR overflows, settles nothing: lo = -1, as at r = 0, where e(0) = 1/2,
    and hi = inf, where the error of an infinite SNR is 0.
    """
    f = LOG2E / math.sqrt(m)
    x_lo = _log_snr_at(-_W_BAND, r, f)
    x_hi = _log_snr_at(_W_BAND, r, f)
    lo = math.exp(x_lo) if _LOG_SNR[0] < x_lo < _LN_MAX else -1.0
    hi = math.exp(x_hi) if x_hi < _LN_MAX else math.inf
    return lo, hi, x_lo, x_hi

def _screen(r, m):
    """decide(snr, u) = (u >= block_error(snr, r, m)) for 1-d arrays, bitwise.

    e(snr) = block_error(snr, r, m) is one decreasing function, and the
    kernel is within about 1e-13 of the true Q, so a table of its values
    at _BINS + 1 knots of ln snr over the transition brackets e in each
    bin.  A draw is decided by one log, one bin index and two gathers;
    only a draw whose u falls inside its bin's bracket goes through
    block_error.  Each bracket spans its bin and both neighbours, so a
    bin index moved by rounding stays inside it, and its relative
    margin covers the kernel's own error.  Below and above the table,
    the bins are open-ended.  The table spans _band: above it the error
    is below 2^-54, under which no uniform of rng.random but 0 falls.
    """
    _, _, lo, hi = _band(r, m)
    h = max((hi - lo) / _BINS, 2.0**-40 * max(abs(lo), abs(hi), 1.0))
    with np.errstate(over="ignore"):
        e = block_error(np.exp(lo + h * np.arange(_BINS + 1.0)), r, m)
    # The kernel's w = (C - r)/s errs by a few ulps of C and r over s, and
    # Q's relative slope is at most 40 where 0 < Q < 1; there r <= C + 8.3 s,
    # and C/s, which rises with snr, is largest at the top knot.  So each
    # value is within a relative 2e-12 + 2e-13 C/s of a decreasing
    # function, and rel is more than twice that
    rel = 1e-9 + 1e-12 * _w_at(lo + h * _BINS, 0.0, LOG2E / math.sqrt(m))
    # bin 0 lies below the first knot, bin b in 1.._BINS between knots
    # b - 1 and b, and bin _BINS + 1 above the last knot
    lower = np.concatenate((e[1:] * (1.0 - rel) - 1e-300, [-np.inf] * 2))
    upper = np.concatenate(([np.inf] * 2, e[:-1] * (1.0 + rel) + 1e-300))
    scale = 1.0 / h
    offset = 1.0 - lo * scale

    def decide(snr, u):
        ok = np.empty(snr.size, dtype=bool)
        open_draws = []
        for i in range(0, snr.size, _SLICE):
            blk = slice(i, i + _SLICE)
            # ln 0 = -inf falls in bin 0 like any SNR below the table
            with np.errstate(divide="ignore"):
                t = np.log(snr[blk])
            t *= scale
            t += offset
            idx = np.clip(t, 0.0, _BINS + 1.0, out=t).astype(np.intp)
            bound = lower.take(idx, out=t)
            np.greater_equal(u[blk], bound, out=ok[blk])
            undecided = np.less(u[blk], upper.take(idx, out=bound))
            undecided &= ok[blk]
            open_draws.append(np.flatnonzero(undecided) + i)
        # the kernel runs once per link, on the draws left open
        left = np.concatenate(open_draws)
        ok[left] = u[left] >= block_error(snr[left], r, m)
        return ok

    return decide

def _successes(r, m, gains, n, seed, workers):
    """Decode successes in n two-stage periods: backhaul, then MRC given it.

    Simulates the composition of the overall error rather than drawing
    one Bernoulli from the composed probability.  Each chunk forms its
    backhaul and MRC SNRs in place, then draws its backhaul uniforms and
    its MRC uniforms, each into the third row.  A draw succeeds on a link
    where u >= block_error(snr, r, m); _screen settles that from a
    per-call table of the error and runs the kernel only on the draws its
    table leaves open, so the count is bitwise the one with both errors
    of every draw.
    """
    decide = _screen(r, m)

    def count(rng, k):
        snr_mrc, snr2, spare = _link_snrs(draw_fading(rng, k), gains)
        ok = decide(snr2, rng.random(out=spare))
        ok &= decide(snr_mrc, rng.random(out=spare))
        return int(np.count_nonzero(ok))

    return sum(_map_chunks(count, n, seed, workers))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

def _check_n(n, floor):
    """n as an int, or ValueError naming the flag when it is below floor."""
    n = int(n)
    if n < floor:
        raise ValueError(f"Monte Carlo estimate needs at least {floor} "
                         "samples (--mc-samples)")
    return n

def _overall(e2, emrc, out):
    """x = e2 + (1 - e2)*emrc into out, as 1 - e2, times emrc, plus e2."""
    np.subtract(1.0, e2, out=out)
    out *= emrc
    out += e2

def mc_expected_overall_error(r, m, gains, n=1000000, seed=None, workers=1):
    """Sample mean of the instantaneous overall error over fading.

    Each chunk forms its SNRs in place and writes its values x = e2 +
    (1 - e2)*emrc into the third row of its buffer, where its moments
    run.  A link's error is settled outside _band: 1 at or below lo, and
    taken as 0 at or above hi, where the kernel's is below _E_ABOVE.
    Where the backhaul's is 1, x is 1 whatever the MRC error, so those
    draws skip the MRC link.  Each slice runs block_error once, on both
    links' draws inside the band.  A chunk whose draws taken as 0 could
    move its sum by more than 2^-40 relative (count * _E_ABOVE against
    the sum) is recomputed from its SNRs with both errors of every draw,
    so each chunk's sum is within that of the unscreened one.
    """
    n = _check_n(n, 10000)
    lo, hi = _band(r, m)[:2]

    def banded(snr2, snr_mrc, x):
        """x of one slice; the count of its link draws at or above hi."""
        dead = snr2 <= lo
        high2 = snr2 >= hi
        low_m = snr_mrc <= lo
        high_m = snr_mrc >= hi
        # not (snr >= hi) keeps a NaN for the kernel
        open2 = np.flatnonzero(~(dead | high2))
        open_m = np.flatnonzero(~(dead | low_m | high_m))
        e = block_error(np.concatenate((snr2[open2], snr_mrc[open_m])), r, m)
        e2 = dead.astype(float)
        e2[open2] = e[:open2.size]
        emrc = low_m.astype(float)
        emrc[open_m] = e[open2.size:]
        _overall(e2, emrc, x)
        return np.count_nonzero(high2) + np.count_nonzero(high_m)

    def moments(rng, k):
        snr_mrc, snr2, x = _link_snrs(draw_fading(rng, k), gains)
        blocks = [slice(i, i + _SLICE) for i in range(0, k, _SLICE)]
        high = sum(banded(snr2[b], snr_mrc[b], x[b]) for b in blocks)
        total = np.add.reduce(x)
        if high * _E_ABOVE > 2.0**-40 * total:
            for b in blocks:
                _overall(block_error(snr2[b], r, m),
                         block_error(snr_mrc[b], r, m), x[b])
            total = np.add.reduce(x)
        # np.mean's and np.sum's steps, in place
        mean = total / k
        x -= mean
        x *= x
        return (k, float(mean), float(np.add.reduce(x)))

    # per-chunk moments, merged in chunk order
    cnt, mean, m2 = functools.reduce(
        _merge_welford, _map_chunks(moments, n, seed, workers))
    return McEstimate(mean, math.sqrt(m2 / (cnt - 1)) / math.sqrt(cnt))

def mc_bl_throughput(r, m, gains, n=1000000, seed=None, workers=1):
    """Decode-event estimate of the average throughput r/2 per success."""
    n = _check_n(n, 10000)
    q = _successes(r, m, gains, n, seed, workers) / n
    return McEstimate(0.5 * r * q,
                      0.5 * r * math.sqrt(q * (1.0 - q) / (n - 1)))


class McServiceStats(NamedTuple):
    """Empirical service-increment moments with their standard errors."""

    mean: McEstimate
    variance: McEstimate


def mc_service_stats(r, m, gains, n=1000000, seed=None, workers=1):
    """Empirical mean and variance of the per-period payload increments.

    Increments take only the values 0 and r*m, so the success count is
    a sufficient statistic: power sums are exact and both moment
    estimates (and the standard error of the variance, via the exact
    fourth central moment) follow in closed form from the count.
    """
    n = _check_n(n, 10000)
    successes = _successes(r, m, gains, n, seed, workers)
    payload = r * m
    q = successes / n
    mean = payload * q
    se_mean = payload * math.sqrt(q * (1.0 - q) / n)
    var = payload**2 * successes * (1.0 - q) / (n - 1)
    # exact central fourth moment of a two-point sample
    m4 = (payload - payload * q)**4 * q + (payload * q)**4 * (1.0 - q)
    se_var = math.sqrt(max(m4 - var**2 * (n - 3) / (n - 1), 0.0) / n)
    return McServiceStats(McEstimate(mean, se_mean), McEstimate(var, se_var))

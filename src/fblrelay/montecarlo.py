"""Monte Carlo twins of the analytic fading averages.

Every quadrature-based expectation has a sampling estimate here for
cross-validation, each an McEstimate(mean, std_err): fading draws by
inverse CDF, one count of two-stage Bernoulli decode events mirroring
the backhaul-then-MRC error composition, and streaming (Welford)
accumulation over seeded substreams.  Chunk streams are spawned from one
SeedSequence and merged in chunk order, so results are bit-identical
for any worker count.

The module also owns the per-draw path that the perfect-CSI and ergodic
references share: fading draws are one (3, n) array, mapped to per-draw
SNRs in cache-sized slices (_per_draw), averaged with their standard
error (_sample_mean), and every sample count meets its floor (_check_n).

The decode events are screened.  Per call, the error of a draw is one
decreasing function of its SNR, shared by both links, so _screen
tabulates it once over the transition and decides almost every draw
from its bin's bracket, by one log and two gathers; only the draws
whose uniform falls inside the bracket go through block_error.  The
count is bitwise the one with both errors of every draw.

Every sampling path works inside the buffer it draws.  A chunk of the
overall error writes its two error rows over its fading draws, and its
moments take the third row; a chunk of decode events forms its SNRs in
place and draws its uniforms into the third row.  So a worker holds one
(3, 2^18) buffer and the temporaries of one slice.  A sample mean's
values overwrite the first row of its draws, and their deviations the
values.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .fbl import (LOG2E, _P_ONE, _P_ZERO, _W_CAP, _capacity, _spread_at,
                  block_error)
from .fading import _link_snrs

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

def _per_draw(fn, z, gains, outputs=1, out=None):
    """fn(snr2, snr_mrc) of every draw of z, as an (outputs, n) array.

    fn must be elementwise and return outputs rows.  It runs on slices
    of _SLICE draws, so the result is bitwise that of one call on all of z.
    out may be rows of z itself: each slice is read before it is written.
    """
    if out is None:
        out = np.empty((outputs, z.shape[1]))
    for i in range(0, z.shape[1], _SLICE):
        blk = slice(i, i + _SLICE)
        rows = fn(*_link_snrs(*z[:, blk], gains))
        for k, row in enumerate(rows if outputs > 1 else (rows,)):
            out[k, blk] = row
    return out

def _sample_mean(fn, n, seed, gains):
    """Mean and standard error of fn(snr2, snr_mrc) over n fading draws.

    The values overwrite the first row of the draws, where the steps of
    np.mean and np.std(ddof=1) run in place, with the same bits.
    """
    z = np.random.default_rng(seed).standard_exponential((3, n))
    vals = _per_draw(fn, z, gains, out=z[:1])[0]
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

def _link_errors(z, r, m, gains, out=None):
    """Per-draw backhaul and MRC block errors, rows (e2, emrc), of one chunk."""
    return _per_draw(lambda snr2, snr_mrc: (block_error(snr2, r, m),
                                            block_error(snr_mrc, r, m)),
                     z, gains, outputs=2, out=out)

# The screen's bins of ln snr: _BINS over the transition of the error,
# no narrower than 2^-40 |ln snr| each, so that rounding moves a draw's
# bin index by less than one bin.  Its range lies in _LOG_SNR, from the
# least subnormal past the largest float.  1024 bins leave 7e-4 of
# validate's decisions open; 4096 left 2e-4 at no gain in time, and the
# kernel's temporaries on their knots raised validate's peak resident
# set by 0.25 MB
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
    the bins are open-ended.
    """
    f = LOG2E / math.sqrt(m)
    # the kernel's Q is 1 below w = -8.3 and 0 above w = 38.6
    hi = _log_snr_at(_P_ZERO * _W_CAP, r, f)
    lo = _log_snr_at(-_P_ONE * _W_CAP, r, f)
    h = max((hi - lo) / _BINS, 2.0**-40 * max(abs(lo), abs(hi), 1.0))
    with np.errstate(over="ignore"):
        e = block_error(np.exp(lo + h * np.arange(_BINS + 1.0)), r, m)
    # The kernel's w = (C - r)/s errs by a few ulps of C and r over s, and
    # Q's relative slope is at most 40 where 0 < Q < 1; there r <= C + 8.3 s,
    # and C/s, which rises with snr, is largest at the top knot.  So each
    # value is within a relative 2e-12 + 2e-13 C/s of a decreasing
    # function, and rel is more than twice that
    rel = 1e-9 + 1e-12 * _w_at(lo + h * _BINS, 0.0, f)
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
    one Bernoulli from the composed probability.  Each chunk draws its
    fading, forms its backhaul and MRC SNRs in place, then draws its
    backhaul uniforms and its MRC uniforms, each into the third row.
    A draw succeeds on a link where u >= block_error(snr, r, m); _screen
    settles that from a per-call table of the error and runs the kernel
    only on the draws its table leaves open, so the count is bitwise the
    one with both errors of every draw.
    """
    decide = _screen(r, m)

    def count(rng, k):
        z = draw_fading(rng, k)
        # z2*g2 and z1*g1 + z3*g3, with _link_snrs's bits
        z[1] *= gains.g2
        z[0] *= gains.g1
        z[2] *= gains.g3
        z[0] += z[2]
        ok = decide(z[1], rng.random(out=z[2]))
        ok &= decide(z[0], rng.random(out=z[2]))
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

def mc_expected_overall_error(r, m, gains, n=1000000, seed=None, workers=1):
    """Sample mean of the instantaneous overall error over fading."""
    n = _check_n(n, 10000)

    def moments(rng, k):
        z = draw_fading(rng, k)
        e2, emrc = _link_errors(z, r, m, gains, out=z[:2])
        # x = e2 + (1 - e2)*emrc and its squared deviations, in z[2]
        x = np.subtract(1.0, e2, out=z[2])
        x *= emrc
        x += e2
        mean = float(np.mean(x))
        x -= mean
        x *= x
        return (k, mean, float(np.sum(x)))

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

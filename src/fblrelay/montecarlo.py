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

Every sampling path works inside the buffer it draws.  A chunk's two
error rows overwrite its fading draws, and its uniforms and moments take
the third row, so a worker holds one (3, 2^18) buffer and the
temporaries of one slice.  A sample mean's values overwrite the first
row of its draws, and their deviations the values.
"""

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from .fbl import block_error
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

def _successes(r, m, gains, n, seed, workers):
    """Decode successes in n two-stage periods: backhaul, then MRC given it.

    Simulates the composition of the overall error rather than drawing
    one Bernoulli from the composed probability.  Each chunk draws its
    fading, then its backhaul uniforms, then its MRC uniforms, each
    into the third row of its draws once the errors hold the first two.
    """
    def count(rng, k):
        z = draw_fading(rng, k)
        e2, emrc = _link_errors(z, r, m, gains, out=z[:2])
        ok = rng.random(out=z[2]) >= e2
        ok &= rng.random(out=z[2]) >= emrc
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

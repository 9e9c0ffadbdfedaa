"""Helpers that only the tests use.

A chunk's fading drawn whole, the stream that the estimators' tiles
reproduce; the allocating twin of montecarlo._link_snrs; the per-draw
overall error in its plainest form, the reference of the Monte Carlo
and perfect-CSI tests; both block errors of every draw, with the
overall-error mean and the decode-event count built on them, the
references of the banded mean and the screened count; the quadrature's
panel mesh item by item, the reference of the batched mesh; the
effective-capacity curve whose closed-form inverse is the MSDR; the
MSDR's penalty factor; and the MSDR decomposition identity.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from fblrelay.fading import _ORIGIN_GRADING, Z_CUTOFF
from fblrelay.fbl import block_error
from fblrelay.linklayer import msdr
from fblrelay.montecarlo import (_SLICE, McEstimate, _map_chunks,
                                 _merge_welford)


def draw_chunk(rng, k):
    """A chunk's (3, k) fading draw in one call: -ln(1 - u) of rng.random.

    The estimators draw the same values tile by tile, one generator per
    row (montecarlo._tiles); the decode events' backhaul and MRC uniforms
    are the next two rng.random(k) calls.
    """
    return -np.log1p(-rng.random((3, k)))

def link_snrs(z1, z2, z3, gains):
    """Per-draw (backhaul, MRC) SNRs (z2*g2, z1*g1 + z3*g3), in new arrays.

    The twin of montecarlo._link_snrs, which forms the same values in
    place in the rows of its draw.
    """
    return z2 * gains.g2, z1 * gains.g1 + z3 * gains.g3

def overall_error_instant(z, r, m, gains):
    """Per-draw overall relaying error: backhaul plus surviving MRC loss.

    z is the fading triple (z1, z2, z3), of scalars or of arrays (a
    (3, n) draw), and broadcasts; one unsliced block_error call per link.
    """
    snr2, snr_mrc = link_snrs(*(np.asarray(zi) for zi in z), gains)
    e2 = block_error(snr2, r, m)
    emrc = block_error(snr_mrc, r, m)
    return e2 + (1.0 - e2) * emrc

def link_errors(z, r, m, gains, out=None):
    """Per-draw backhaul and MRC block errors, rows (e2, emrc), of a draw z.

    Slices of _SLICE draws, as the estimators take them, each through
    two block_error calls.  out may be z[:2]: each slice is read before
    it is written.
    """
    if out is None:
        out = np.empty((2, z.shape[1]))
    for i in range(0, z.shape[1], _SLICE):
        blk = slice(i, i + _SLICE)
        snr2, snr_mrc = link_snrs(*z[:, blk], gains)
        out[0, blk] = block_error(snr2, r, m)
        out[1, blk] = block_error(snr_mrc, r, m)
    return out

def overall_error_per_draw(r, m, gains, n, seed, workers):
    """montecarlo.mc_expected_overall_error with both errors of every draw.

    Each chunk's errors overwrite its draws, and its values x = e2 +
    (1 - e2)*emrc and their squared deviations take the third row; the
    moments are np.mean's and np.sum's, merged in chunk order.
    """
    def moments(seq, k):
        z = draw_chunk(np.random.default_rng(seq), k)
        e2, emrc = link_errors(z, r, m, gains, out=z[:2])
        x = np.subtract(1.0, e2, out=z[2])
        x *= emrc
        x += e2
        mean = float(np.mean(x))
        x -= mean
        x *= x
        return (k, mean, float(np.sum(x)))

    cnt, mean, m2 = functools.reduce(
        _merge_welford, _map_chunks(moments, n, seed, workers))
    return McEstimate(mean, math.sqrt(m2 / (cnt - 1)) / math.sqrt(cnt))

def successes_per_draw(r, m, gains, n, seed, workers):
    """montecarlo._successes with both block errors of every draw computed.

    Each chunk draws its fading whole, then its backhaul and MRC uniforms
    into the third row, in the order of _successes's streams.
    """
    def count(seq, k):
        rng = np.random.default_rng(seq)
        z = draw_chunk(rng, k)
        e2, emrc = link_errors(z, r, m, gains, out=z[:2])
        ok = rng.random(out=z[2]) >= e2
        ok &= rng.random(out=z[2]) >= emrc
        return int(np.count_nonzero(ok))

    return sum(_map_chunks(count, n, seed, workers))

def panel_edges(hint, extra=()):
    """One item's panel edges, item by item: the reference mesh.

    The sorted boundaries on [0, Z_CUTOFF] that fading._meshes builds
    for hint = (z_star, halfwidth), in plain float arithmetic: the 13
    window edges are np.linspace's, bit for bit (i*step + a, the last
    one b).
    """
    edges = {0.0, Z_CUTOFF}
    edges.update(e for e in extra if 0.0 < e < Z_CUTOFF)
    z_star, h = hint
    a = min(max(z_star - h, 0.0), Z_CUTOFF)
    b = min(max(z_star + h, 0.0), Z_CUTOFF)
    if b > a:
        step = (b - a) / 12.0
        # np.linspace divides first where the step underflows to zero
        edges.update(i * step + a if step else i / 12.0 * (b - a) + a
                     for i in range(12))
        edges.add(b)
        if a == 0.0:
            # at and near r = 0 the error falls like 0.5 - c*sqrt(z)
            edges.update(b / 12.0 * 2.0**-k
                         for k in range(1, _ORIGIN_GRADING + 1))
    # geometric growth away from the window, width capped at 3
    w = max(h, 1e-12 * max(abs(z_star), 1.0))
    x = a
    while x > 0.0:
        x = max(x - w, 0.0)
        edges.add(x)
        w = min(2.0 * w, 3.0)
    w = max(h, 1e-12 * max(abs(z_star), 1.0))
    x = b
    while x < Z_CUTOFF:
        x = min(x + w, Z_CUTOFF)
        edges.add(x)
        w = min(2.0 * w, 3.0)
    return sorted(edges)

@dataclass(frozen=True)
class QosExponentPoint:
    """One point of the effective-capacity curve: exponent and value."""

    theta: float  # QoS exponent, per bit
    ec: float     # effective capacity, bits per period

    def __post_init__(self):
        if self.theta <= 0.0:
            raise ValueError("QoS exponent must be positive")

def effective_capacity_clt(stats, theta):
    """Second-order effective capacity: mean - (theta/2) * variance."""
    if theta < 0.0:
        raise ValueError("QoS exponent must be nonnegative")
    return stats.mean - 0.5 * theta * stats.variance

def qos_exponent_point(stats, theta):
    """Bundle an exponent with its effective capacity for curve output."""
    return QosExponentPoint(theta, effective_capacity_clt(stats, theta))

def penalty_factor(m, qos):
    """Dimensionless delay-constraint factor phi = 4m*ln(p_d)/d, always < 0."""
    return 4.0 * m * math.log(qos.p_d) / qos.d

def msdr_decomposition_check(r, m, eps_bar, qos):
    """Residual of splitting the MSDR into half throughput plus a rest.

    The identity under test: msdr = (r(1-e)/2)/2 + (r/4)*sqrt(1 +
    (phi-2)e + (1-phi)e^2).  Returns the absolute difference, 0.0 for
    infeasible input where both sides are pinned to zero.
    """
    phi = penalty_factor(m, qos)
    # feasible: one period fits the delay budget and e <= 1/(1 - phi)
    if 2.0 * m > qos.d or eps_bar * (1.0 - phi) > 1.0:
        return 0.0
    half_throughput = 0.5 * (0.5 * r * (1.0 - eps_bar))
    rest = 0.25 * r * math.sqrt(
        1.0 + (phi - 2.0) * eps_bar + (1.0 - phi) * eps_bar**2)
    return abs(msdr(r, m, eps_bar, qos) - (half_throughput + rest))

def watt_to_dbm(x_watt):
    """Inverse of scenario.dbm_to_watt."""
    return 30.0 + 10.0 * math.log10(x_watt)

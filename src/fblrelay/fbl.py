"""Normal-approximation coding primitives for the finite blocklength regime.

Provides:
  * q_func / q_inv        -- Gaussian tail probability and its inverse
  * shannon_c             -- Shannon capacity of a complex channel, bits per use
  * dispersion_real       -- channel dispersion of a real Gaussian channel
  * dispersion_complex    -- channel dispersion of a complex Gaussian channel
  * achievable_rate       -- rate at blocklength m and target error eps
  * block_error           -- decoding error probability at rate r and blocklength m

block_error is Q((C - r)/s) with s = sqrt(V/m); its pieces _cap_spread,
_error_at and _mills also serve the perfect-CSI solver in relay.

All rates are in bits per channel use (log base 2). Functions broadcast over
numpy arrays; scalars in, scalars out.
"""

import math

import numpy as np
from scipy.special import erfc, erfcinv, erfcx

LN2 = math.log(2.0)
LOG2E = np.log2(np.e)
_LOG2E_SQ = LOG2E * LOG2E
_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def q_func(w: float) -> float:
    """Gaussian tail probability Q(w) = P(N(0,1) > w)."""
    return 0.5 * erfc(w / np.sqrt(2.0))


def q_inv(eps: float) -> float:
    """Inverse of q_func on (0, 1). Accurate in both tails."""
    eps = np.asarray(eps, dtype=float)
    if np.any(eps <= 0.0) or np.any(eps >= 1.0):
        raise ValueError("q_inv requires eps in the open interval (0, 1)")
    out = np.sqrt(2.0) * erfcinv(2.0 * eps)
    return float(out) if out.ndim == 0 else out


def _mills(r, c, s):
    """w = (C - r)/s and l = -d/dr log Phi(w), the Mills ratio over s.

    phi(w)/Phi(w) = sqrt(2/pi) / erfcx(-w/sqrt(2)) does not overflow in
    either tail.
    """
    w = (c - r) / s
    return w, _SQRT_2_OVER_PI / erfcx(-w / _SQRT2) / s


def _capacity(snr):
    """log2(1 + snr): the one capacity expression of the package.

    Written through log1p, so it keeps full precision below snr 1e-16,
    where 1 + snr rounds to 1.
    """
    return np.log1p(snr) * LOG2E


def _threshold(r):
    """SNR 2^r - 1 where capacity meets rate r; inf where 2^r overflows."""
    return 2.0**r - 1.0 if r < 1024.0 else math.inf


def shannon_c(snr: float) -> float:
    """Shannon capacity log2(1 + snr) of a complex channel at linear SNR."""
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("shannon_c requires snr >= 0")
    out = _capacity(snr)
    return float(out) if out.ndim == 0 else out


def dispersion_real(snr: float) -> float:
    """Dispersion (gamma/2)(gamma+2)/(1+gamma)^2 * (log2 e)^2 of a real channel."""
    # the ratio is exactly 1/2 from about snr 3.6e16 on; the cap keeps the
    # products below overflow (inf/inf) beyond snr 1e154
    g = np.minimum(np.asarray(snr, dtype=float), 1e100)
    # written as g*(g+2)/(1+g)^2 to avoid cancellation at small snr, and
    # with the 1/2 inside so it does not round the least subnormal to 0
    out = g * (0.5 * g + 1.0) / ((1.0 + g) * (1.0 + g)) * _LOG2E_SQ
    return float(out) if out.ndim == 0 else out


def dispersion_complex(snr: float) -> float:
    """Dispersion 1 - (1+gamma)^-2, times (log2 e)^2; twice the real-channel value."""
    out = 2.0 * dispersion_real(snr)
    return float(out) if np.ndim(out) == 0 else out


def _cap_spread(snr, m):
    """Capacity C and spread s = sqrt(V/m) of the Q argument (C - r)/s.

    s is taken as sqrt(V)/sqrt(m): V/m underflows to 0 below snr ~1e-300
    at large m, where C does not.
    """
    return _capacity(snr), np.sqrt(dispersion_complex(snr)) / np.sqrt(m)


def _error_at(r, c, s):
    """Q((C - r)/s), and its limit Q(+-inf) where s = 0; C = r gives Q(0).

    So zero SNR (C = s = 0) gives 1 for r > 0 and 1/2 at r = 0; a
    quotient beyond the float range (r near 1e308) is +-inf too.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = (c - r) / s
    return q_func(np.where(c == r, 0.0, w))


def achievable_rate(snr: float, eps: float, m: float) -> float:
    """Coding rate C - sqrt(V/m) * Q^-1(eps) at blocklength m, clamped at 0.

    The clamp fires for small eps / small m corners where the penalty
    exceeds capacity.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("achievable_rate requires eps in (0, 1)")
    if np.any(np.asarray(m) < 1):
        raise ValueError("achievable_rate requires m >= 1")
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("achievable_rate requires snr >= 0")
    c, s = _cap_spread(snr, m)
    out = np.maximum(c - s * q_inv(eps), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def block_error(snr: float, r: float, m: float) -> float:
    """Decoding error probability Q((C - r) / sqrt(V/m)) at rate r, blocklength m.

    The zero-SNR point is defined by the limit: 1 for r > 0, 0.5 for r = 0
    (capacity and dispersion both vanish there, so the Q argument degenerates).
    """
    snr = np.asarray(snr, dtype=float)
    r = np.asarray(r, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("block_error requires snr >= 0")
    if np.any(r < 0.0):
        raise ValueError("block_error requires r >= 0")
    out = _error_at(r, *_cap_spread(snr, m))
    return float(out) if out.ndim == 0 else out

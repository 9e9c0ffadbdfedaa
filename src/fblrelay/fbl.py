"""Normal-approximation coding primitives for the finite blocklength regime.

Provides:
  * q_func / q_inv        -- Gaussian tail probability and its inverse
  * shannon_c             -- Shannon capacity of a complex channel, bits per use
  * dispersion_real       -- channel dispersion of a real Gaussian channel
  * dispersion_complex    -- channel dispersion of a complex Gaussian channel
  * achievable_rate       -- rate at blocklength m and target error eps
  * block_error           -- decoding error probability at rate r and blocklength m

All rates are in bits per channel use (log base 2). Functions broadcast over
numpy arrays; scalars in, scalars out.
"""

import math

import numpy as np
from scipy.special import erfc, erfcinv

LN2 = math.log(2.0)
LOG2E = np.log2(np.e)
_LOG2E_SQ = LOG2E * LOG2E


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


def shannon_c(snr: float) -> float:
    """Shannon capacity log2(1 + snr) of a complex channel at linear SNR."""
    snr = np.asarray(snr, dtype=float)
    if np.any(snr < 0.0):
        raise ValueError("shannon_c requires snr >= 0")
    out = np.log2(1.0 + snr)
    return float(out) if out.ndim == 0 else out


def dispersion_real(snr: float) -> float:
    """Dispersion (gamma/2)(gamma+2)/(1+gamma)^2 * (log2 e)^2 of a real channel."""
    # the ratio is exactly 1/2 from about snr 3.6e16 on; the cap keeps the
    # products below overflow (inf/inf) beyond snr 1e154
    g = np.minimum(np.asarray(snr, dtype=float), 1e100)
    # written as g*(g+2)/(1+g)^2 to avoid cancellation at small snr
    out = (0.5 * g) * (g + 2.0) / ((1.0 + g) * (1.0 + g)) * _LOG2E_SQ
    return float(out) if out.ndim == 0 else out


def dispersion_complex(snr: float) -> float:
    """Dispersion 1 - (1+gamma)^-2, times (log2 e)^2; twice the real-channel value."""
    out = 2.0 * dispersion_real(snr)
    return float(out) if np.ndim(out) == 0 else out


def achievable_rate(snr: float, eps: float, m: float) -> float:
    """Coding rate C - sqrt(V/m) * Q^-1(eps) at blocklength m, clamped at 0.

    The clamp fires for small eps / small m corners where the penalty exceeds
    capacity; callers that need to distinguish a clamped zero can compare
    against the unclamped expression themselves (see relay.select_rate_avg_csi).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("achievable_rate requires eps in (0, 1)")
    if np.any(np.asarray(m) < 1):
        raise ValueError("achievable_rate requires m >= 1")
    c = shannon_c(snr)
    v = dispersion_complex(snr)
    raw = c - np.sqrt(v / m) * q_inv(eps)
    out = np.maximum(raw, 0.0)
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
    c = np.log2(1.0 + snr)
    v = dispersion_complex(snr)
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = (c - r) / np.sqrt(v / m)
    out = q_func(np.where(v > 0.0, arg, 0.0))
    out = np.where(v > 0.0, out, np.where(r > 0.0, 1.0, 0.5))
    return float(out) if out.ndim == 0 else out

"""Physical setup ingestion: distances and powers to mean SNRs and parameters.

The urban reference layout places the relay 200 m from both endpoints
with a 360 m direct path, transmits 30 dBm against -90 dBm noise at
2 GHz, and prices distance with the COST-231 Hata urban-macro formula
(base antenna 30 m, mobile 1.5 m, 0 dB city correction).  Two documented
budget fields complete the link budget: a combined antenna/system gain
on all links and an extra obstruction loss on the (much weaker) direct
path.  A fixed-gains mode bypasses propagation modeling entirely.
build applies the whole budget, transmit over noise power included, so
every other module sees a link only through its mean SNR.

Scenario files are flat text, one `key = value` per line with `#`
comments; the keys are the field names below.  These KEYS are also the
CLI's scenario flags, and with_overrides applies them for both.
"""

import math
import warnings
from dataclasses import dataclass, fields, replace

from .linklayer import QoSPair
from .relay import LinkGains, SystemParams

_MODELS = ("cost231_hata_urban", "fixed_gains")

# fixed propagation constants of this artifact
_H_BASE = 30.0    # base/relay antenna height, m
_H_MOBILE = 1.5   # terminal antenna height, m
_C_M = 0.0        # city-size correction, dB


@dataclass(frozen=True)
class Scenario:
    """Complete description of one evaluation setup."""

    d_backhaul: float = 200.0
    d_relaying: float = 200.0
    d_direct: float = 360.0
    p_tx_dbm: float = 30.0
    noise_dbm: float = -90.0
    f_c: float = 2.0                 # carrier, GHz
    m: float = 500.0                 # per-hop blocklength
    eta: float = 0.2
    eps_nominal: float = 1e-3
    qos_d: float = 1e4               # delay budget, symbols
    qos_p_d: float = 1e-2            # delay-violation probability
    pathloss_model: str = "cost231_hata_urban"
    ant_gain_db: float = 18.0        # combined antenna/system gain, all links
    direct_extra_loss_db: float = 12.0  # obstruction loss, direct path only
    g1: float = 0.0                  # fixed-gains mode only
    g2: float = 0.0
    g3: float = 0.0

    def __post_init__(self):
        for name in ("d_backhaul", "d_relaying", "d_direct"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.f_c <= 0.0:
            raise ValueError("f_c must be positive")
        # the relay parameters and the QoS pair check their own domains
        SystemParams(m=self.m, eps_nominal=self.eps_nominal, eta=self.eta)
        self.qos
        if self.pathloss_model not in _MODELS:
            raise ValueError(
                f"pathloss_model must be one of {_MODELS}, "
                f"got {self.pathloss_model!r}")
        if self.pathloss_model == "fixed_gains":
            if self.g1 <= 0.0 or self.g2 <= 0.0 or self.g3 <= 0.0:
                raise ValueError("g1, g2, g3 must be positive in fixed_gains mode")

    @property
    def qos(self):
        """The QoS target of the msdr metric, from qos_d and qos_p_d."""
        return QoSPair(self.qos_d, self.qos_p_d)


def _db_to_linear(x_db):
    """10^(x_db/10), or inf where that leaves the float range."""
    try:
        return 10.0**(x_db / 10.0)
    except OverflowError:
        return math.inf

def dbm_to_watt(x_dbm):
    return _db_to_linear(x_dbm - 30.0)

def pathloss_db(distance_m, f_c):
    """COST-231 Hata urban-macro distance cost in dB at carrier f_c (GHz).

    The COST-231 Hata urban-macro fit is nominally valid for 1-20 km
    and 1.5-2 GHz; the reference distances sit below 1 km, so the
    formula is extrapolated there and a warning is emitted rather than
    clamping (clamping would collapse distinct distances to one loss).
    """
    if distance_m <= 0.0:
        raise ValueError("distance_m must be positive")
    d_km = distance_m / 1000.0
    f_mhz = f_c * 1000.0
    if not 1.0 <= d_km <= 20.0 or not 1500.0 <= f_mhz <= 2000.0:
        warnings.warn(
            f"COST-231 Hata evaluated outside its validity range "
            f"(d = {d_km:g} km, f = {f_mhz:g} MHz)", stacklevel=2)
    lf = math.log10(f_mhz)
    a_hm = (1.1 * lf - 0.7) * _H_MOBILE - (1.56 * lf - 0.8)
    return (46.3 + 33.9 * lf - 13.82 * math.log10(_H_BASE) - a_hm
            + (44.9 - 6.55 * math.log10(_H_BASE)) * math.log10(d_km) + _C_M)

# each link's LinkGains field, name, and the path-loss keys that set it
# besides _PROPAGATION, which every link reads
_LINKS = (("g1", "direct", ("d_direct", "direct_extra_loss_db")),
          ("g2", "backhaul", ("d_backhaul",)), ("g3", "relaying", ("d_relaying",)))
_PROPAGATION = ("f_c", "ant_gain_db")

def unread_keys(model):
    """Scenario keys that build ignores under model: the other model's."""
    if model == "fixed_gains":
        return tuple(k for _, _, keys in _LINKS for k in keys) + _PROPAGATION
    return tuple(field for field, _, _ in _LINKS)

def build(scenario):
    """Materialize (LinkGains, SystemParams) from a scenario.

    Each LinkGains field is a mean SNR, the link's average channel gain
    times p_tx / sigma2.  Raises ValueError naming the link and the keys
    that set it when a mean SNR is not positive and finite.
    """
    fixed = scenario.pathloss_model == "fixed_gains"
    if fixed:
        budget = [scenario.g1, scenario.g2, scenario.g3]
    else:
        budget = []
        for dist, extra in ((scenario.d_direct, scenario.direct_extra_loss_db),
                            (scenario.d_backhaul, 0.0),
                            (scenario.d_relaying, 0.0)):
            loss = pathloss_db(dist, scenario.f_c)
            budget.append(_db_to_linear(scenario.ant_gain_db - loss - extra))
    p_tx = dbm_to_watt(scenario.p_tx_dbm)
    sigma2 = dbm_to_watt(scenario.noise_dbm)
    snrs = [g * p_tx / sigma2 if sigma2 > 0.0 else math.inf for g in budget]
    for snr, (field, link, keys) in zip(snrs, _LINKS):
        if not 0.0 < snr < math.inf:
            keys = field if fixed else ", ".join(keys + _PROPAGATION)
            raise ValueError(f"mean SNR of the {link} link ({field}) must be "
                             f"positive and finite, got {snr!r}; set by "
                             f"{keys}, p_tx_dbm and noise_dbm")
    params = SystemParams(m=scenario.m, eps_nominal=scenario.eps_nominal,
                          eta=scenario.eta)
    return LinkGains(*snrs), params


# ---------------------------------------------------------------------------
# flat key=value scenario files
# ---------------------------------------------------------------------------

# the keys that files and CLI flags share: every field
KEYS = tuple(f.name for f in fields(Scenario))

def with_overrides(scenario, **flat):
    """scenario with the keys of KEYS replaced and re-validated.

    Values are converted to float, except pathloss_model, and NaN is
    rejected.
    """
    kwargs = {}
    for key, value in flat.items():
        if key not in KEYS:
            raise ValueError(f"unknown scenario key: {key}")
        if key != "pathloss_model":
            value = float(value)
            if math.isnan(value):
                raise ValueError(f"{key} must be a number, got nan")
        kwargs[key] = value
    return replace(scenario, **kwargs)

def save_scenario(scenario, path):
    """Write every key of KEYS, one key = value per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for key in KEYS:
            v = getattr(scenario, key)
            fh.write(f"{key} = {v if key == 'pathloss_model' else repr(v)}\n")

def load_scenario(path):
    """Parse a flat key = value file back into a Scenario."""
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected key = value")
            key, _, value = line.partition("=")
            entries[key.strip()] = value.strip()
    return with_overrides(Scenario(), **entries)

"""Tests for scenario ingestion, the path-loss model, and scenario files."""

import math
import warnings

import pytest

from fblrelay.linklayer import QoSPair
from fblrelay.scenario import (
    Scenario,
    build,
    dbm_to_watt,
    load_scenario,
    pathloss_db,
    save_scenario,
    with_overrides,
)
from oracles import watt_to_dbm

# frozen urban-macro losses at 2 GHz, 30 m / 1.5 m antennas
LOSS_200 = 113.12289081478252
LOSS_360 = 122.1148279920507


# ---------------------------------------------------------------------------
# path loss
# ---------------------------------------------------------------------------

def _loss(d):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return pathloss_db(d, 2.0)

def test_pathloss_frozen_values():
    assert _loss(200.0) == pytest.approx(LOSS_200, rel=1e-12)
    assert _loss(360.0) == pytest.approx(LOSS_360, rel=1e-12)

def test_pathloss_monotone_in_distance():
    losses = [_loss(d) for d in (100.0, 200.0, 360.0, 1000.0, 5000.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))

def test_pathloss_warns_below_validity():
    with pytest.warns(UserWarning, match="validity"):
        pathloss_db(200.0, 2.0)

def test_pathloss_silent_inside_validity():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pathloss_db(1500.0, 2.0)

def test_pathloss_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pathloss_db(0.0, 2.0)


# ---------------------------------------------------------------------------
# unit conversions
# ---------------------------------------------------------------------------

def test_dbm_conversions_round_trip():
    assert dbm_to_watt(30.0) == 1.0
    for x in (-90.0, -30.0, 0.0, 17.5, 30.0, 46.0):
        assert watt_to_dbm(dbm_to_watt(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# scenario building
# ---------------------------------------------------------------------------

def _powers(s):
    """(p_tx, sigma2) of a scenario in watts, as build forms them."""
    return dbm_to_watt(s.p_tx_dbm), dbm_to_watt(s.noise_dbm)

def test_reference_build():
    s = Scenario()
    with pytest.warns(UserWarning):
        gains, params = build(s)
    assert gains.g2 == gains.g3  # equal 200 m hops
    assert gains.g1 < gains.g2 and gains.g1 < gains.g3
    # each mean SNR is the channel gain times p_tx / sigma2, bitwise
    p_tx, sigma2 = _powers(s)
    for snr, d, extra in ((gains.g1, 360.0, 12.0), (gains.g2, 200.0, 0.0),
                          (gains.g3, 200.0, 0.0)):
        g = 10.0**((18.0 - _loss(d) - extra) / 10.0)
        assert snr == g * p_tx / sigma2
    assert 10.0 <= 10.0 * math.log10(gains.g2) <= 40.0
    assert gains.g2 == pytest.approx(307.40499392638634, rel=1e-12)
    assert gains.g1 == pytest.approx(2.4463421646795456, rel=1e-12)

def test_fixed_gains_pass_through():
    s = Scenario(pathloss_model="fixed_gains", g1=2.0, g2=5.5, g3=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no path-loss evaluation, no warning
        gains, params = build(s)
    p_tx, sigma2 = _powers(s)
    assert (gains.g1, gains.g2, gains.g3) == tuple(
        g * p_tx / sigma2 for g in (2.0, 5.5, 4.0))
    assert params.eta == s.eta and params.m == s.m

@pytest.mark.parametrize("model", ["cost231_hata_urban", "fixed_gains"])
def test_ten_db_more_power_multiplies_every_mean_snr_by_ten(model):
    s = Scenario(pathloss_model=model, g1=2.0, g2=5.5, g3=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        low, _ = build(s)
        high, _ = build(with_overrides(s, p_tx_dbm=s.p_tx_dbm + 10.0))
    for field in ("g1", "g2", "g3"):
        assert getattr(high, field) == pytest.approx(
            10.0 * getattr(low, field), rel=1e-15)

def test_build_rejects_unusable_mean_snr_naming_link_and_keys():
    # a noise power that rounds to 0 W, and an infinite fixed gain
    with pytest.raises(ValueError, match=r"direct link \(g1\).*noise_dbm"):
        build(Scenario(pathloss_model="fixed_gains", g1=1.0, g2=1.0, g3=1.0,
                       noise_dbm=-1e308))
    with pytest.raises(ValueError, match=r"backhaul link \(g2\).*g2"):
        build(Scenario(pathloss_model="fixed_gains", g1=1.0, g2=math.inf,
                       g3=1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ValueError, match=r"direct link.*ant_gain_db"):
            build(Scenario(ant_gain_db=1e308))

def test_validation_names_offending_field():
    with pytest.raises(ValueError, match="d_relaying"):
        Scenario(d_relaying=0.0)
    with pytest.raises(ValueError, match="eta"):
        Scenario(eta=0.8)
    with pytest.raises(ValueError, match="m"):
        Scenario(m=50)
    with pytest.raises(ValueError, match="eps_nominal"):
        Scenario(eps_nominal=1.0)
    with pytest.raises(ValueError, match="pathloss_model"):
        Scenario(pathloss_model="freespace")
    with pytest.raises(ValueError, match="g1"):
        Scenario(pathloss_model="fixed_gains")

def test_with_overrides_replaces_and_revalidates():
    s = with_overrides(Scenario(), eta=0.1, m=1000.0)
    assert s.eta == 0.1 and s.m == 1000.0 and s.d_direct == 360.0
    with pytest.raises(ValueError):
        with_overrides(Scenario(), eta=5.0)

def test_with_overrides_takes_the_flat_keys():
    s = with_overrides(Scenario(), qos_d="5000", qos_p_d=0.05, g2=250,
                       pathloss_model="fixed_gains", g1="3", g3=200.0)
    assert s.qos == QoSPair(d=5000.0, p_d=0.05)
    assert s.pathloss_model == "fixed_gains"
    assert (s.g1, s.g2, s.g3) == (3.0, 250.0, 200.0)
    assert all(isinstance(v, float) for v in (s.qos.d, s.g1, s.g2))
    with pytest.raises(ValueError, match="qos_d and qos_p_d"):
        with_overrides(Scenario(), qos_p_d=0.05)
    for key in ("bandwidth", "qos"):
        with pytest.raises(ValueError, match=f"unknown scenario key: {key}"):
            with_overrides(Scenario(), **{key: 1.0})


# ---------------------------------------------------------------------------
# scenario files
# ---------------------------------------------------------------------------

def test_save_load_build_round_trip(tmp_path):
    src = Scenario(eta=0.137, m=750.0, qos=QoSPair(d=8e3, p_d=3e-3))
    path = tmp_path / "scn.txt"
    save_scenario(src, path)
    back = load_scenario(path)
    assert back == src
    with pytest.warns(UserWarning):
        assert build(back) == build(src)

def test_load_accepts_comments_and_blanks(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text(
        "# reference with a lighter QoS\n"
        "\n"
        "eta = 0.12   # weight factor\n"
        "qos_d = 20000\n"
        "qos_p_d = 0.05\n")
    s = load_scenario(path)
    assert s.eta == 0.12
    assert s.qos == QoSPair(d=20000.0, p_d=0.05)
    assert s.d_backhaul == 200.0  # untouched default

def test_load_rejects_unknown_key(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text("bandwidth = 5\n")
    with pytest.raises(ValueError, match="bandwidth"):
        load_scenario(path)

def test_load_rejects_partial_qos(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text("qos_d = 20000\n")
    with pytest.raises(ValueError, match="qos"):
        load_scenario(path)

def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "scn.txt"
    path.write_text("eta 0.2\n")
    with pytest.raises(ValueError, match="expected key"):
        load_scenario(path)

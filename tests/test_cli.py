"""Command-line interface: exit codes, CSV shape, determinism."""

import argparse
import errno
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fblrelay import cli, fading
from fblrelay.fading import QuadratureNonConvergence
from fblrelay.fbl import LN2
from fblrelay.linklayer import QoSPair
from fblrelay.relay import LinkGains, SystemParams
from fblrelay.scenario import (
    KEYS,
    Scenario,
    save_scenario,
    unread_keys,
    with_overrides,
)

# frozen outputs of the reference scenario through the CLI plumbing; these
# use the exact link-budget gains, so they differ in the seventh digit from
# the rounded-gain constants in test_relay
REF_RATE = 5.339699356727998
REF_ERR = 0.22057714287685237
REF_THR = 2.080941864399785
CLI_CBL_ETA = 0.15093695130331053
CLI_CBL_VAL = 2.0810727320438347
CLI_MSDR_ETA = 0.11984077788853828
CLI_MSDR_VAL = 1.9526994816199097


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("flag, value, named", [
    ("--schemes", "bogus", "'bogus'"),
    ("--schemes", "", "--schemes"),
    ("--metrics", "", "--metrics"),
    ("--schemes", "relay_avg,bogus", "'bogus'"),
    ("--metrics", "msdr,latency", "'latency'"),
], ids=["bogus", "no_scheme", "no_metric", "bogus_second_scheme",
        "bogus_metric"])
def test_unknown_scheme_exits_2(capsys, flag, value, named):
    # the request is checked before the scenario is read
    with mock.patch.object(cli, "_scenario_from_args",
                           side_effect=AssertionError):
        code = cli.main(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                         "3", flag, value])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert named in captured.err

def test_missing_grid_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta"], capsys)
    assert code == 2

def test_bad_scenario_value_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                       "3", "--m", "50"], capsys)
    assert code == 2

@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "-1e308",
                                   "0"])
@pytest.mark.parametrize("key", [k for k in KEYS if k != "pathloss_model"])
def test_extreme_scenario_value_exits_0_or_2(capsys, key, value):
    # the QoS pair and the fixed gains are all given, so the flag under
    # test overrides one value of a complete, valid set
    args = ["sweep", "--variable", "eta", "--grid-list", "0.2",
            "--metrics", "bl_throughput,msdr", "--qos-d", "10000",
            "--qos-p-d", "0.01"]
    if key in ("g1", "g2", "g3"):
        args += ["--pathloss-model", "fixed_gains", "--g1", "1e-12",
                 "--g2", "1e-12", "--g3", "1e-12"]
    code = cli.main(args + [f"--{key.replace('_', '-')}={value}"])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert key in err
    if value == "nan":
        assert code == 2 and key in err

AXIS_VALUES = ["nan", "inf", "0", "5e-324", "1e-300", "1023", "1024", "1e6",
               "1e308"]

@pytest.mark.parametrize("value", AXIS_VALUES)
@pytest.mark.parametrize("variable", cli.VARIABLES)
def test_extreme_axis_value_exits_0_or_2(capsys, variable, value):
    # every quadrature scheme with every metric it defines: a grid value
    # ends in finite numbers or in exit 2 naming the grid flag
    runs = (["--schemes", "relay_avg,direct_matched,direct_weighted",
             "--metrics", ",".join(cli.METRICS), "--qos-d", "10000",
             "--qos-p-d", "0.01"],
            ["--schemes", "outage",
             "--metrics", "bl_throughput,expected_error,coding_rate"])
    for extra in runs:
        code = cli.main(["sweep", "--variable", variable,
                         f"--grid-list={value}", *extra])
        captured = capsys.readouterr()
        assert code in (0, 2), captured.err
        if code == 2:
            assert "--grid-list" in captured.err
        else:
            # the axis cell itself may be inf (an infinite blocklength)
            cells = [float(v) for line in captured.out.split("\n")[1:-1]
                     for v in line.split(",")[1:]]
            assert cells and all(math.isfinite(v) for v in cells)
        if value == "nan" or (value == "inf" and variable == "coding_rate"):
            assert code == 2

def test_grid_is_checked_in_one_call_naming_the_first_bad_value(
        capsys, monkeypatch):
    # one _on_axis call checks a valid grid and gives its parameters
    calls = []
    on_axis = cli._on_axis
    monkeypatch.setattr(cli, "_on_axis",
                        lambda *a: (calls.append(np.size(a[2])), on_axis(*a))[1])
    assert cli.main(["sweep", "--variable", "eta", "--grid", "0.01",
                     "0.6931", "100"]) == 0
    capsys.readouterr()
    assert calls == [100]
    # off the domain, the values are checked one by one up to the first bad
    calls.clear()
    code = cli.main(["sweep", "--variable", "eta",
                     "--grid-list", "0.2,0.9,1.5,0.3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: --grid-list value 0.9: eta must lie in "
                            "(0, ln 2]\n")
    assert calls == [4, 1, 1]

def test_non_finite_grid_bound_exits_2_naming_the_flag(capsys):
    for grid in (["0", "inf", "3"], ["nan", "1", "3"], ["0.1", "0.2", "inf"],
                 ["0.1", "0.2", "nan"]):
        code = cli.main(["sweep", "--variable", "coding_rate", "--grid", *grid])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

def test_infinite_blocklength_axis_matches_the_m_flag(capsys):
    code, axis = run_cli(["sweep", "--variable", "blocklength",
                          "--grid-list", "inf"], capsys)
    assert code == 0
    code, flag = run_cli(["sweep", "--variable", "eta", "--grid-list", "0.2",
                          "--m", "inf"], capsys)
    assert code == 0
    assert axis.split("\n")[1].split(",")[1] == flag.split("\n")[1].split(",")[1]

def test_underflowing_weighted_bottleneck_selects_rate_zero(capsys):
    # eta * bottleneck SNR = 1e-320 * 1e-8 underflows to 0: rate 0, as
    # for any selection whose penalty exceeds capacity
    code, out = run_cli(["sweep", "--variable", "eta", "--grid-list", "1e-320",
                         "--pathloss-model", "fixed_gains", "--g1", "1e-20",
                         "--g2", "1e-20", "--g3", "1e-20",
                         "--schemes", "relay_avg,direct_matched",
                         "--metrics", "coding_rate,bl_throughput"], capsys)
    assert code == 0
    assert out.split("\n")[1] == "1e-320,0.0,0.0,0.0,0.0"

@pytest.mark.parametrize("extra", [
    ["--grid-list", "1100"],
    ["--grid-list", "2000", "--schemes", "outage"],
    ["--grid-list", "1000", "--pathloss-model", "fixed_gains", "--g1", "1e-42",
     "--g2", "1e-42", "--g3", "1e-42"]])
def test_rates_no_finite_snr_reaches_fail_surely(capsys, extra):
    # 2^r overflows from r = 1024 on, and at r = 1000 over mean SNR 1e-30
    # the threshold over the gain does: no finite SNR reaches the rate
    code, out = run_cli(["sweep", "--variable", "coding_rate",
                         "--metrics", "expected_error,bl_throughput", *extra],
                        capsys)
    assert code == 0
    assert out.split("\n")[1].split(",")[1:] == ["1.0", "0.0"]

def test_direct_throughput_zero_where_the_drop_is_beyond_the_panels(capsys):
    # the error drop of r = 1e308 starts beyond z = 40, the end of the
    # panel rule, whose truncated 1 - e^-40 = 0.999999999999998 made the
    # direct throughput r * 2e-15 = 2e293 instead of 0
    code, out = run_cli(["sweep", "--variable", "coding_rate", "--grid-list",
                         "1e308", "--schemes", "direct_weighted"], capsys)
    assert code == 0
    assert out.split("\n")[1] == "1e+308,0.0"

def test_outage_at_faint_distinct_mean_snrs(capsys):
    # the combined outage's exponent divided by the product of the two
    # mean SNRs, which underflowed here: a RuntimeWarning, an error in
    # this suite
    code, out = run_cli(["sweep", "--variable", "eta", "--grid-list", "0.5",
                         "--schemes", "outage", "--pathloss-model",
                         "fixed_gains", "--g1", "1e-212", "--g2", "1e-212",
                         "--g3", "2e-212"], capsys)
    assert code == 0
    assert all(math.isfinite(float(v)) for v in out.split("\n")[1].split(","))

def test_optimize_tol_must_be_finite_and_positive(capsys):
    for value in ("nan", "inf", "0", "-1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", f"--tol={value}"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

def test_qos_flag_without_msdr_metric_exits_2(capsys):
    code = cli.main(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                     "3", "--qos-d", "100"])
    assert code == 2
    assert "--qos-d" in capsys.readouterr().err

def test_lone_qos_key_keeps_the_other_default(capsys):
    sweep = ["sweep", "--variable", "eta", "--grid", "0.1", "0.3", "3",
             "--metrics", "msdr", "--qos-d", "5000"]
    code_lone, lone = run_cli(sweep, capsys)
    code_pair, pair = run_cli(sweep + ["--qos-p-d", "0.01"], capsys)
    assert code_lone == code_pair == 0
    assert lone == pair and lone.count("\n") == 4

def test_unsupported_metric_for_scheme_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                       "3", "--schemes", "outage", "--metrics", "msdr"],
                      capsys)
    assert code == 2

def test_perfect_csi_on_rate_sweep_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "coding_rate", "--grid", "1",
                       "2", "2", "--schemes", "relay_perfect"], capsys)
    assert code == 2

def test_argparse_rejects_unknown_variable():
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--variable", "snr", "--grid", "1", "2", "2"])
    assert exc.value.code == 2

def test_validate_rejects_scenario_flags(capsys):
    # the battery draws its own points, so a scenario flag would be ignored
    for flag in (["--eta", "0.5"], ["--scenario-file", "x.txt"],
                 ["--qos-d", "10", "--qos-p-d", "0.1"],
                 ["--pathloss-model", "fixed_gains"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--points", "1", "--mc-samples", "10000",
                      *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

def test_small_perfect_csi_sample_names_the_flag(capsys):
    code = cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2",
                     "--schemes", "relay_perfect", "--mc-samples", "1000"])
    assert code == 2
    assert "--mc-samples" in capsys.readouterr().err

def test_workers_below_one_exits_2(capsys):
    for args in (["sweep", "--variable", "eta", "--grid-list", "0.2"],
                 ["compare", "--pair", "fbl_vs_outage", "--grid-list", "0.2"],
                 ["validate", "--points", "1", "--mc-samples", "10000"]):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*args, "--workers", value])
            assert exc.value.code == 2
            assert "--workers" in capsys.readouterr().err

def test_points_below_one_exits_2(capsys):
    for value in ("0", "-2"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["validate", "--points", value, "--mc-samples", "10000"])
        assert exc.value.code == 2
        assert "--points" in capsys.readouterr().err

def test_small_monte_carlo_sample_names_the_flag(capsys):
    code = cli.main(["validate", "--points", "1", "--mc-samples", "9999"])
    assert code == 2
    assert "--mc-samples" in capsys.readouterr().err

def test_non_finite_mc_samples_exits_2(capsys):
    for args in (["sweep", "--variable", "eta", "--grid-list", "0.2",
                  "--schemes", "relay_perfect"],
                 ["validate", "--points", "1"]):
        for value in ("nan", "inf"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*args, "--mc-samples", value])
            assert exc.value.code == 2
            assert "--mc-samples" in capsys.readouterr().err

def test_fractional_mc_samples_exits_2(capsys):
    # a fraction was truncated: 100000.9 printed what 100000 prints
    for args in (["sweep", "--variable", "eta", "--grid-list", "0.2",
                  "--schemes", "relay_perfect"],
                 ["validate", "--points", "1"]):
        for value in ("100000.9", "1e4.5", "0.5"):
            with pytest.raises(SystemExit) as exc:
                cli.main([*args, "--mc-samples", value])
            assert exc.value.code == 2
            assert "--mc-samples" in capsys.readouterr().err

def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "_run_sweep",
                        lambda *a: (seeds.append(a[-1].seed), (["x"], []))[1])
    for extra in (["--seed", "5"], [], ["--seed", "7"], []):
        assert cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2",
                         *extra]) == 0
    capsys.readouterr()
    assert seeds == [5, 42, 7, 42]
    assert cli._build_parser.cache_info().misses == 1

def test_mc_samples_takes_whole_numbers_in_any_float_form():
    args = cli._build_parser().parse_args(
        ["validate", "--mc-samples", "1e6"])
    assert args.mc_samples == 1000000 and isinstance(args.mc_samples, int)

def test_counts_from_2_pow_53_are_rejected():
    # from 2^53 on a float parse rounds: 2^53 + 1 came back as 2^53
    assert cli._count(str(2**53 - 1)) == 2**53 - 1
    for text in (str(2**53), str(2**53 + 1), "1e300"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli._count(text)

def test_huge_mc_samples_exits_2_naming_the_flag(capsys):
    # validate ended in an OverflowError traceback (exit 1), and the
    # relay_perfect sweep exited 2 with a numpy message naming no flag
    for args in (["validate", "--points", "1"],
                 ["sweep", "--variable", "eta", "--grid-list", "0.2",
                  "--schemes", "relay_perfect"]):
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--mc-samples", "1e300"])
        assert exc.value.code == 2
        assert "--mc-samples" in capsys.readouterr().err

def test_huge_grid_count_exits_2_naming_the_flag(capsys):
    # numpy's "Maximum allowed size exceeded" named no flag
    with mock.patch.object(cli, "build", side_effect=AssertionError):
        code = cli.main(["sweep", "--variable", "eta", "--grid", "0.1", "0.6",
                         "1e300"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--grid" in captured.err

def test_fractional_grid_count_exits_2(capsys):
    # a fractional N was truncated: 2.5 printed the 2 rows of N = 2
    for args in (["sweep", "--variable", "eta"],
                 ["compare", "--pair", "fbl_vs_outage"]):
        with mock.patch.object(cli, "build", side_effect=AssertionError):
            code = cli.main([*args, "--grid", "0.1", "0.6", "2.5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--grid" in captured.err

FIXED = ["--pathloss-model", "fixed_gains", "--g1", "3", "--g2", "250",
         "--g3", "200"]

RELAY_AVG_ETA = ["sweep", "--schemes", "relay_avg", "--variable", "eta",
                 "--grid-list", "0.2"]
OPTIMIZE_BL = ["optimize", "--objective", "bl_throughput"]
QOS = ["--qos-d", "3000", "--qos-p-d", "0.1"]

# (command, a flag that nothing of it reads)
UNREAD_FLAGS = (
    [(["sweep", "--variable", "eta", "--grid-list", "0.2"], ["--eta", "0.3"]),
     (["compare", "--pair", "relay_vs_direct"], ["--eta", "0.3"]),
     (["compare", "--pair", "fbl_vs_outage"], ["--eta", "0.3"]),
     (["optimize"], ["--eta", "0.3"]),
     (["sweep", "--variable", "blocklength", "--grid-list", "200"],
      ["--m", "300"]),
     (["compare", "--pair", "avg_vs_perfect", "--mc-samples", "100000"],
      ["--m", "300"]),
     (["sweep", "--variable", "coding_rate", "--grid-list", "1"],
      ["--eta", "0.3"]),
     (["sweep", "--variable", "coding_rate", "--grid-list", "1"],
      ["--eps-nominal", "0.01"])]
    + [(["sweep", "--variable", "eta", "--grid-list", "0.2"], [flag, "3"])
       for flag in ("--g1", "--g2", "--g3")]
    + [(["sweep", "--variable", "eta", "--grid-list", "0.2", *FIXED],
        [flag, "300"])
       for flag in ("--d-direct", "--d-backhaul", "--d-relaying", "--f-c",
                    "--ant-gain-db", "--direct-extra-loss-db")]
    # Monte Carlo flags where nothing draws samples; quadrature grid
    # points on threads only contend for the GIL, so --workers would
    # slow such a run down
    + [(RELAY_AVG_ETA, ["--workers", "2"]),
       (RELAY_AVG_ETA, ["--mc-samples", "5"]),
       (["compare", "--pair", "relay_vs_direct"], ["--workers", "2"]),
       (["compare", "--pair", "relay_vs_direct"], ["--mc-samples", "3"]),
       (["compare", "--pair", "fbl_vs_outage"], ["--workers", "1"]),
       (OPTIMIZE_BL, ["--mc-samples", "5"]),
       (OPTIMIZE_BL, ["--workers", "9"])]
    # keys that the chosen schemes or metrics do not read
    + [(["sweep", "--schemes", "outage", "--variable", "eta", "--grid-list",
         "0.2,0.4"], ["--m", "1000"]),
       (["sweep", "--schemes", "shannon_ergodic", "--variable", "eta",
         "--grid-list", "0.2"], ["--m", "1000"]),
       (["sweep", "--schemes", "relay_perfect", "--variable", "blocklength",
         "--grid-list", "200", "--mc-samples", "1e5"], ["--eta", "0.3"]),
       (["compare", "--pair", "fbl_vs_outage", "--grid-list", "0.2"], QOS),
       (OPTIMIZE_BL, QOS)])

@pytest.mark.parametrize("command,flag", UNREAD_FLAGS,
                         ids=[" ".join(c[:3] + f[:1]) for c, f in UNREAD_FLAGS])
def test_unread_scenario_flag_exits_2_before_work(capsys, command, flag):
    # each of these flags was accepted and silently ignored
    with mock.patch.object(cli, "build", side_effect=AssertionError):
        code = cli.main(command + flag)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert flag[0] in captured.err

# a point where every scheme's cells are nonzero, msdr included: the
# direct link is strong enough to support the QoS pair
READ_POINT = cli.Block(LinkGains(30.0, 300.0, 200.0),
                       SystemParams(m=500.0, eps_nominal=1e-3, eta=0.2),
                       QoSPair(d=1e4, p_d=1e-2), mc_samples=100000,
                       seed=(42,), index=(0,))
# another value of every key a scheme or metric may read
READ_CHANGES = {"m": 700.0, "eta": 0.3, "eps_nominal": 2e-3, "qos_d": 2e4,
                "qos_p_d": 0.02}

@pytest.mark.parametrize("name", sorted(cli.SCHEMES))
def test_reads_table_matches_the_evaluators(name):
    # a key the table says is read changes some cell; any other key
    # leaves every cell bitwise unchanged
    scheme = cli.SCHEMES[name]
    assert set(scheme.reads) <= {"m", "eta", "eps_nominal", "mc_samples",
                                 "workers"}
    def cells(pt):
        values = scheme.evaluate(None, pt)
        return [float(v).hex() for metric in scheme.metrics
                for v in np.ravel(values[metric])]

    base = cells(READ_POINT)
    for key, value in READ_CHANGES.items():
        if key.startswith("qos_"):
            qos = replace(READ_POINT.qos, **{key[len("qos_"):]: value})
            pt, reads = replace(READ_POINT, qos=qos), "msdr" in scheme.metrics
        else:
            pt = replace(READ_POINT,
                         params=replace(READ_POINT.params, **{key: value}))
            reads = key in scheme.reads
        changed = [a != b for a, b in zip(base, cells(pt))]
        assert any(changed) if reads else not any(changed), key

def test_scenario_file_model_decides_which_flags_are_read(capsys, tmp_path):
    # a file holds every key, so its entries stay accepted; a flag for
    # the other model than the file's is not
    path = tmp_path / "scn.txt"
    save_scenario(with_overrides(Scenario(), pathloss_model="fixed_gains",
                                 g1=3.0, g2=250.0, g3=200.0), path)
    sweep = ["sweep", "--variable", "eta", "--grid-list", "0.2",
             "--scenario-file", str(path)]
    code, out = run_cli(sweep, capsys)
    assert code == 0 and out.count("\n") == 2
    code = cli.main(sweep + ["--d-direct", "300"])
    assert code == 2 and "--d-direct" in capsys.readouterr().err
    code, _ = run_cli(sweep + ["--g1", "4"], capsys)
    assert code == 0

# every (scheme, metric, variable) that exits 2; all others give numbers
UNDEFINED = (
    {(s, m, v) for s in ("relay_perfect", "shannon_ergodic")
     for m in ("msdr", "expected_error", "coding_rate")
     for v in cli.VARIABLES}
    | {("outage", "msdr", v) for v in cli.VARIABLES}
    | {("relay_perfect", "bl_throughput", "coding_rate")})
GRIDS = {"coding_rate": "1,2", "eta": "0.2,0.3", "blocklength": "200,500"}

def test_scheme_table_total_and_checked_before_work(capsys, monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name, scheme in cli.SCHEMES.items():
        monkeypatch.setitem(cli.SCHEMES, name,
                            replace(scheme, evaluate=spy(name, scheme.evaluate)))
    for name in ("ergodic_capacity_relay", "bl_throughput_perfect_csi"):
        monkeypatch.setattr(cli, name, spy(name, getattr(cli, name)))
    assert set(cli.SCHEMES) == {"relay_avg", "relay_perfect", "direct_matched",
                                "direct_weighted", "shannon_ergodic", "outage"}
    for scheme in cli.SCHEMES:
        mc = ["--mc-samples", "100000"] if scheme == "relay_perfect" else []
        for metric in cli.METRICS:
            for variable in cli.VARIABLES:
                calls.clear()
                code = cli.main(["sweep", "--variable", variable,
                                 "--grid-list", GRIDS[variable], "--schemes",
                                 scheme, "--metrics", metric, *mc])
                out, err = capsys.readouterr()
                where = (scheme, metric, variable)
                if where in UNDEFINED:
                    assert code == 2 and out == "", where
                    assert calls == [], where
                    assert ("is not defined for scheme" in err
                            or "not defined on a coding_rate sweep" in err)
                else:
                    assert code == 0, where
                    cells = [float(v) for line in out.split("\n")[1:] if line
                             for v in line.split(",")[1:]]
                    assert len(cells) == 2, where
                    assert all(math.isfinite(v) for v in cells), where

def test_quadrature_failure_exits_3(capsys):
    with mock.patch.object(cli, "expected_overall_error",
                           side_effect=QuadratureNonConvergence("diverged")):
        code, _ = run_cli(["sweep", "--variable", "eta", "--grid", "0.1",
                           "0.3", "3"], capsys)
    assert code == 3

def test_non_convergence_names_the_point_and_scheme(capsys, monkeypatch):
    # with no refinement allowed, the first item of the batch fails
    monkeypatch.setattr(fading, "_MAX_ROUNDS", 0)
    code = cli.main(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                     "3", "--schemes", "relay_avg,direct_matched"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "grid point 0 (eta 0.1), scheme relay_avg:" in captured.err

def test_optimize_non_convergence_names_the_weight_and_scheme(capsys,
                                                              monkeypatch):
    # the scan's first weight, 0.01, is the first item to fail
    monkeypatch.setattr(fading, "_MAX_ROUNDS", 0)
    code = cli.main(["optimize", "--objective", "bl_throughput"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("numerical non-convergence: eta 0.01, "
                                   "scheme relay_avg: no agreement")

# the validated domain: mean SNRs 1e-30..1e30, m >= 100, eta in (0, ln 2],
# swept rates >= 0; a block of one to four points
_BLOCK_POINTS = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.floats(-30.0, 30.0), min_size=3, max_size=3),
    st.lists(st.floats(2.0, 7.0), min_size=n, max_size=n),
    st.lists(st.floats(1e-6, LN2), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n),
    st.floats(1e-9, 0.5)))

@settings(max_examples=100, deadline=None)
@given(_BLOCK_POINTS)
def test_evaluators_pass_on_only_valid_errors_and_rates(point):
    # msdr and outage_prob_relay refuse an error off [0, 1] or a negative
    # rate; every call the evaluators make on the validated domain passes
    # neither, so their ValueError cannot name a point
    exps, log_m, etas, rates, eps_nominal = point
    blk = cli.Block(LinkGains(*(10.0**k for k in exps)),
                    SystemParams(m=10.0**np.array(log_m),
                                 eps_nominal=eps_nominal, eta=np.array(etas)),
                    QoSPair(d=1e4, p_d=1e-2))
    seen_rates, seen_errors = [], []
    msdr, outage = cli.msdr, cli.outage_prob_relay

    def seen_msdr(r, m, err, qos):
        seen_rates.append(r)
        seen_errors.append(err)
        return msdr(r, m, err, qos)

    def seen_outage(r, gains):
        seen_rates.append(r)
        return outage(r, gains)

    with mock.patch.object(cli, "msdr", seen_msdr), \
            mock.patch.object(cli, "outage_prob_relay", seen_outage):
        for name in ("relay_avg", "direct_matched", "direct_weighted",
                     "outage"):
            for r in (None, np.array(rates)):
                cli.SCHEMES[name].evaluate(r, blk)
    assert seen_rates and seen_errors
    assert all(np.all(np.asarray(r) >= 0.0) for r in seen_rates)
    assert all(np.all((0.0 <= np.asarray(e)) & (np.asarray(e) <= 1.0))
               for e in seen_errors)

def test_value_error_names_the_scheme(capsys, monkeypatch):
    # msdr evaluates the whole grid at once, so its ValueError has no
    # narrower place to name than the scheme
    msdr = cli.msdr

    def failing(r, m, err, qos):
        if np.any(np.asarray(r) > 6.0):
            raise ValueError("refused")
        return msdr(r, m, err, qos)

    monkeypatch.setattr(cli, "msdr", failing)
    code = cli.main(["sweep", "--variable", "coding_rate", "--grid-list",
                     "3,4,5,7,8", "--schemes", "relay_avg", "--metrics",
                     "msdr"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: scheme relay_avg: refused\n"

def test_oversized_grid_exits_2_naming_the_flag(capsys):
    # 1e15 points: numpy's allocation failed with a MemoryError traceback
    code = cli.main(["sweep", "--variable", "eta", "--grid", "0.1", "0.6",
                     "1e15"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--grid" in captured.err

@pytest.mark.parametrize("variable, grid", [("eta", "0.05,0.2,0.45,0.69"),
                                            ("coding_rate", "0,1.5,4,9"),
                                            ("blocklength", "100,350,2e4,1e7")])
def test_quadrature_batches_give_the_same_rows(capsys, monkeypatch, variable,
                                               grid):
    # the quadrature integrating 1 or 3 items at a time prints what one
    # batch of the whole grid does
    args = ["sweep", "--variable", variable, "--grid-list", grid,
            "--schemes", "relay_avg,direct_matched,direct_weighted,outage",
            "--metrics", "bl_throughput,expected_error,coding_rate"]
    code, whole = run_cli(args, capsys)
    assert code == 0
    for size in (1, 3):
        monkeypatch.setattr(fading, "_BATCH", size)
        assert run_cli(args, capsys) == (0, whole)

def test_sweep_rows_equal_the_schemes_at_each_point(capsys):
    # every cell of a sweep is its scheme evaluated at that point alone,
    # bit for bit; the Monte Carlo schemes keep their per-point seeds
    schemes = ("relay_avg", "relay_perfect", "direct_matched",
               "direct_weighted", "shannon_ergodic", "outage")
    code, out = run_cli(["sweep", "--variable", "eta", "--grid-list",
                         "0.1,0.25,0.4", "--schemes", ",".join(schemes),
                         "--mc-samples", "100000", "--workers", "2",
                         "--seed", "7"], capsys)
    assert code == 0
    scn = Scenario()
    gains, params = cli.build(scn)
    rows = [[float(v) for v in line.split(",")] for line in out.split("\n")[1:]
            if line]
    assert len(rows) == 3
    for i, row in enumerate(rows):
        blk = cli.Block(gains, replace(params, eta=row[0]), scn.qos,
                        mc_samples=100000, seed=(7,), index=(i,))
        cells = [float(np.ravel(cli.SCHEMES[name].evaluate(None, blk)
                                ["bl_throughput"])[0]) for name in schemes]
        assert [v.hex() for v in row[1:]] == [v.hex() for v in cells], i


# ---------------------------------------------------------------------------
# sweep output
# ---------------------------------------------------------------------------

# links so faint that the blocklength penalty exceeds capacity at small
# eta: rate selection returns 0 and the fading averages run at r = 0
FAINT_LINKS = ["--pathloss-model", "fixed_gains", "--g1", "1e-13",
               "--g2", "1e-12", "--g3", "1e-12"]

def test_zero_rate_sweep_converges(capsys):
    code, out = run_cli(["sweep", "--variable", "eta", "--grid", "0.01",
                         "0.6931", "5", *FAINT_LINKS], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.strip().split("\n")[1:]]
    assert len(rows) == 5
    assert rows[0][1] == 0.0
    assert all(0.0 <= row[1] < 0.5 for row in rows)

def test_zero_rate_optimize_converges(capsys):
    code, out = run_cli(["optimize", *FAINT_LINKS], capsys)
    assert code == 0
    values = [float(v) for line in out.strip().split("\n")[1:3]
              for v in line.split(",")[1:3]]
    assert all(math.isfinite(v) and v > 0.0 for v in values)

def test_extreme_snr_sweep_is_finite(capsys):
    # the dispersion must stay finite (no inf/inf) at mean SNR 1e160
    code, out = run_cli(["sweep", "--variable", "eta", "--grid-list", "0.2",
                         "--pathloss-model", "fixed_gains", "--g1", "1e160",
                         "--g2", "1e160", "--g3", "1e160", "--metrics",
                         "coding_rate,expected_error,bl_throughput"], capsys)
    assert code == 0
    row = [float(v) for v in out.strip().split("\n")[1].split(",")]
    assert all(math.isfinite(v) for v in row)
    assert row[1] > 500.0 and 0.0 < row[2] < 1.0 and row[3] > 0.0

def test_mean_snr_beyond_the_fading_product_range(capsys):
    # mean SNRs of about 1e307: mean_snr * z overflowed to inf near
    # z = 40 in the fading averages (a RuntimeWarning, an error in this
    # suite); block_error takes snr = inf to its limit
    code, out = run_cli(["sweep", "--variable", "eta", "--grid", "0.1", "0.6",
                         "3", "--pathloss-model", "fixed_gains", "--g1",
                         "1e296", "--g2", "1e296", "--g3", "1e296"], capsys)
    assert code == 0
    rows = [[float(v) for v in line.split(",")]
            for line in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    assert all(math.isfinite(v) and v > 0.0 for row in rows for v in row)

def test_sweep_csv_shape_and_values(capsys):
    code, out = run_cli(["sweep", "--variable", "eta", "--grid-list",
                         "0.148", "--schemes", "relay_avg", "--metrics",
                         "bl_throughput,expected_error,coding_rate"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == ("eta[1],relay_avg.bl_throughput[bits/use],"
                        "relay_avg.expected_error[prob],"
                        "relay_avg.coding_rate[bits/use]")
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == 0.148
    assert row[1] == pytest.approx(REF_THR, rel=1e-12)
    assert row[2] == pytest.approx(REF_ERR, rel=1e-12)
    assert row[3] == pytest.approx(REF_RATE, rel=1e-12)

def test_sweep_grid_column_matches_request(capsys):
    code, out = run_cli(["sweep", "--variable", "eta", "--grid", "0.05",
                         "0.25", "5"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    axis = [float(line.split(",")[0]) for line in lines[1:]]
    assert axis == pytest.approx(list(np.linspace(0.05, 0.25, 5)), abs=0.0)

def test_matched_direct_halves_the_swept_rate(capsys):
    code, out = run_cli(["sweep", "--variable", "coding_rate", "--grid-list",
                         "4.0", "--schemes",
                         "relay_avg,direct_matched,direct_weighted",
                         "--metrics", "coding_rate"], capsys)
    assert code == 0
    row = [float(v) for v in out.strip().split("\n")[1].split(",")]
    assert row[1:] == [4.0, 2.0, 4.0]

def test_blocklength_sweep_uses_frozen_trend(capsys):
    code, out = run_cli(["sweep", "--variable", "blocklength", "--grid-list",
                         "100,500,2000", "--eta", "0.1"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    thr = [float(r[1]) for r in rows]
    assert thr == pytest.approx(
        [1.9788615605515691, 2.029190199400366, 2.045185747052965], rel=1e-12)

def test_scenario_file_loads_and_flags_override(capsys, tmp_path):
    from fblrelay.scenario import Scenario, save_scenario, with_overrides
    path = tmp_path / "scn.txt"
    save_scenario(with_overrides(Scenario(), m=800.0), path)
    args = ["sweep", "--variable", "eta", "--grid-list", "0.1",
            "--metrics", "expected_error", "--scenario-file", str(path)]
    _, out_file = run_cli(args, capsys)
    _, out_over = run_cli(args + ["--m", "500"], capsys)
    err_file = float(out_file.strip().split("\n")[1].split(",")[1])
    err_over = float(out_over.strip().split("\n")[1].split(",")[1])
    assert err_file != err_over
    assert err_over == pytest.approx(0.15255714074488147, rel=1e-12)

def test_every_scenario_key_is_a_flag():
    parser = cli._build_parser()
    required = {"sweep": ["--variable", "eta"], "optimize": [],
                "compare": ["--pair", "fbl_vs_outage"]}
    for command, extra in required.items():
        for key in KEYS:
            value = "fixed_gains" if key == "pathloss_model" else "3"
            args = parser.parse_args([command, *extra,
                                      "--" + key.replace("_", "-"), value])
            assert getattr(args, key) == (
                value if key == "pathloss_model" else 3.0), (command, key)

# a non-default value for every scenario key
SCENARIO_VALUES = {
    "d_backhaul": 180.0, "d_relaying": 230.0, "d_direct": 390.0,
    "p_tx_dbm": 27.0, "noise_dbm": -93.0, "f_c": 1.8, "m": 700.0,
    "eta": 0.25, "eps_nominal": 2e-3, "qos_d": 2e4, "qos_p_d": 0.02,
    "ant_gain_db": 16.0, "direct_extra_loss_db": 10.0,
    "g1": 3.0, "g2": 250.0, "g3": 200.0}

@pytest.mark.parametrize("model", ["cost231_hata_urban", "fixed_gains"])
def test_scenario_file_and_flags_agree_byte_for_byte(capsys, tmp_path, model):
    values = {**SCENARIO_VALUES, "pathloss_model": model}
    assert set(values) == set(KEYS)
    path = tmp_path / "scn.txt"
    save_scenario(with_overrides(Scenario(), **values), path)
    sweep = ["sweep", "--variable", "blocklength", "--grid-list", "200,900",
             "--schemes", "relay_avg,direct_weighted", "--metrics",
             "bl_throughput,msdr,expected_error,coding_rate"]
    # the file holds every key; the flags are those the command reads:
    # not m, which the axis supplies, nor the other model's keys
    unread = {"m", *unread_keys(model)}
    flags = [arg for key, value in values.items() if key not in unread
             for arg in ("--" + key.replace("_", "-"), str(value))]
    code_file, from_file = run_cli(sweep + ["--scenario-file", str(path)],
                                   capsys)
    code_flags, from_flags = run_cli(sweep + flags, capsys)
    assert code_file == code_flags == 0
    assert from_file == from_flags
    assert from_file.count("\n") == 3

def test_unreadable_scenario_file_exits_2(capsys, tmp_path):
    # a missing file ended in a FileNotFoundError traceback and exit 1
    for path, reason in ((tmp_path / "missing.txt", errno.ENOENT),
                         (tmp_path, errno.EISDIR)):
        code = cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2",
                         "--scenario-file", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--scenario-file" in captured.err
        assert os.strerror(reason) in captured.err

@pytest.mark.parametrize("content", [b"eta 0.2\n", b"\xff\xfeeta = 0.2\n",
                                     b"bogus = 1\n", b"eta = 5\n"],
                         ids=["malformed", "not_utf8", "unknown_key",
                              "off_domain"])
def test_bad_scenario_file_names_the_flag_and_the_file(capsys, tmp_path,
                                                       content):
    path = tmp_path / "scn.txt"
    path.write_bytes(content)
    code = cli.main(["sweep", "--variable", "coding_rate", "--grid-list", "1",
                     "--scenario-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --scenario-file {path}: ")
    assert captured.err.count(str(path)) == 1

def test_repeated_scenario_key_exits_2_naming_both_lines(capsys, tmp_path):
    # the second line won: this file loaded eta 0.3
    path = tmp_path / "scn.txt"
    path.write_text("eta = 0.1\neta = 0.3\n")
    code = cli.main(["sweep", "--variable", "coding_rate", "--grid-list", "1",
                     "--scenario-file", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (f"error: --scenario-file {path}: "
                                       "line 2: eta already set on line 1\n")

def test_unwritable_output_exits_2(capsys, tmp_path):
    # the sweep ran to its end, then an OSError traceback and exit 1
    path = tmp_path / "missing" / "x.csv"
    code = cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2",
                     "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--output" in captured.err
    assert os.strerror(errno.ENOENT) in captured.err
    assert not path.parent.exists()

def test_failed_command_leaves_its_output_file_alone(capsys, tmp_path):
    # the file is opened only once the command is done
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    code = cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2,-1",
                     "--output", str(path)])
    assert code == 2 and "--grid-list" in capsys.readouterr().err
    assert path.read_text() == "kept\n"

def test_output_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, out = run_cli(["sweep", "--variable", "eta", "--grid-list", "0.2",
                         "--output", str(path)], capsys)
    assert code == 0 and out == ""
    assert path.read_text().startswith("eta[1],")


# ---------------------------------------------------------------------------
# optimize and compare
# ---------------------------------------------------------------------------

def test_optimize_reports_both_objectives(capsys):
    code, out = run_cli(["optimize"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "objective,eta_star,value,flag,iterations"
    bl = lines[1].split(",")
    ms = lines[2].split(",")
    diff = lines[3].split(",")
    assert bl[0] == "bl_throughput" and bl[3] == "converged"
    assert float(bl[1]) == pytest.approx(CLI_CBL_ETA, abs=1e-9)
    assert float(bl[2]) == pytest.approx(CLI_CBL_VAL, rel=1e-12)
    assert ms[0] == "msdr" and ms[3] == "converged"
    assert float(ms[1]) == pytest.approx(CLI_MSDR_ETA, abs=1e-9)
    assert float(ms[2]) == pytest.approx(CLI_MSDR_VAL, rel=1e-12)
    assert float(ms[1]) < float(bl[1])
    assert diff[0] == "difference"
    assert float(diff[1]) == pytest.approx(float(bl[1]) - float(ms[1]))

def test_optimize_evaluates_each_weight_once(capsys):
    # both objectives scan the same 33 points; each distinct eta costs
    # one relay_avg evaluation, and the scan's 33 are one batched call
    with mock.patch.object(cli, "expected_overall_error",
                           wraps=cli.expected_overall_error) as spy:
        code, _ = run_cli(["optimize"], capsys)
    assert code == 0
    # the selected rate rises strictly with eta: one rate per eta
    rates = [r for call in spy.call_args_list
             for r in np.atleast_1d(call.args[0]).tolist()]
    assert len(rates) == len(set(rates)) == 65
    sizes = [np.size(call.args[0]) for call in spy.call_args_list]
    assert sizes == [33] + [1] * 32

def test_optimize_tighter_qos_shrinks_argmax(capsys):
    _, out = run_cli(["optimize", "--objective", "msdr", "--qos-d", "1000",
                      "--qos-p-d", "0.01"], capsys)
    eta_tight = float(out.strip().split("\n")[1].split(",")[1])
    assert eta_tight < CLI_MSDR_ETA

def test_compare_relay_vs_direct_summary(capsys):
    code, out = run_cli(["compare", "--pair", "relay_vs_direct", "--grid",
                         "0.01", str(math.log(2.0)), "25"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    data = [line for line in lines if not line.startswith("#")]
    summary = [line for line in lines if line.startswith("# summary")]
    assert len(data) == 26 and len(summary) == 2
    thr_ratio = float(summary[0].split("min_relay_over_direct=")[1]
                      .split(",")[0])
    msdr_ratio = float(summary[1].split("min_relay_over_direct=")[1]
                       .split(",")[0])
    assert thr_ratio > 1.0 and msdr_ratio > 1.0

def test_compare_fbl_vs_outage_loss_small(capsys):
    code, out = run_cli(["compare", "--pair", "fbl_vs_outage", "--grid",
                         "0.1", str(math.log(2.0)), "25"], capsys)
    assert code == 0
    loss = float(out.strip().split("\n")[-1].split("max_loss_vs_outage=")[1])
    assert 0.0 <= loss < 0.02

def test_compare_fbl_vs_outage_zero_throughput(capsys):
    # relay_avg selects rate 0 on the lowest weights of these faint links,
    # where the outage reference is positive: the loss is unbounded
    code, out = run_cli(["compare", "--pair", "fbl_vs_outage", "--grid",
                         "0.01", "0.69", "50", *FAINT_LINKS], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:-1]]
    assert float(rows[0][1]) == 0.0 and float(rows[0][2]) > 0.0
    assert out.strip().split("\n")[-1] == (
        "# summary,bl_throughput,max_loss_vs_outage=inf")
    assert cli._ratio(0.0, 0.0) == 0.0
    assert cli._ratio(1e-300, 0.0) == math.inf
    assert cli._ratio(-1e-300, 0.0) == -math.inf

def test_compare_relay_vs_direct_without_positive_direct(capsys):
    # direct MSDR is 0 on both weights: no ratio exists, the minimum is inf
    code, out = run_cli(["compare", "--pair", "relay_vs_direct",
                         "--grid-list", "0.2,0.3"], capsys)
    assert code == 0
    summary = out.strip().split("\n")[-2:]
    assert summary[0].startswith("# summary,bl_throughput,"
                                 "min_relay_over_direct=")
    assert float(summary[0].split("=")[1].split(",")[0]) > 1.0
    assert summary[1] == ("# summary,msdr,min_relay_over_direct=inf,"
                          "both_zero_points=0")

def test_compare_avg_vs_perfect_zero_references(capsys):
    # links so faint that relay_avg selects rate 0; the capacity-based
    # references are of order 1e-19, not rounded to 0, so relay_avg's gap
    # to outage is the whole reference and both gaps are finite
    code, out = run_cli(["compare", "--pair", "avg_vs_perfect", "--grid-list",
                         "100,200", "--mc-samples", "100000",
                         "--pathloss-model", "fixed_gains", "--g1", "1e-30",
                         "--g2", "1e-30", "--g3", "1e-30"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:3]]
    assert [row[1] for row in rows] == [0.0, 0.0]
    assert all(0.0 < row[k] < 1e-18 for row in rows for k in (3, 4))
    assert lines[-2] == ("# summary,avg_gap_to_outage,final=1.0,"
                         "first_m_below_2pct=none")
    # per draw, perfect-CSI throughput stays below half the bottleneck
    # capacity, so it stays below the ergodic reference
    assert all(row[2] <= row[3] for row in rows)
    gap = float(lines[-1].split("final=")[1].split(",")[0])
    assert 0.0 < gap < 1.0

def test_compare_avg_vs_perfect_convergence_order(capsys):
    code, out = run_cli(["compare", "--pair", "avg_vs_perfect", "--grid-list",
                         "500,2000", "--mc-samples", "100000"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    avg_line = next(l for l in lines if "avg_gap_to_outage" in l)
    per_line = next(l for l in lines if "perfect_gap_to_ergodic" in l)
    avg_gap = float(avg_line.split("final=")[1].split(",")[0])
    per_gap = float(per_line.split("final=")[1].split(",")[0])
    # average-CSI throughput sits beside the outage reference long before
    # the perfect-CSI curve closes in on the ergodic one
    assert avg_gap < 0.02
    assert per_gap > avg_gap


# ---------------------------------------------------------------------------
# validate and determinism
# ---------------------------------------------------------------------------

def test_validate_battery_passes_and_is_deterministic(capsys):
    args = ["validate", "--points", "3", "--mc-samples", "20000"]
    code, out = run_cli(args, capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 3 * 4
    z = [abs(float(line.split(",")[-1])) for line in lines[1:]]
    assert max(z) < 3.0
    code2, out2 = run_cli(args, capsys)
    assert code2 == 0 and out2 == out

def test_validate_seed_changes_battery(capsys):
    args = ["validate", "--points", "2", "--mc-samples", "10000"]
    _, out_a = run_cli(args, capsys)
    _, out_b = run_cli(args + ["--seed", "7"], capsys)
    assert out_a != out_b

def test_sweep_byte_identical_across_workers(capsys):
    args = ["sweep", "--variable", "eta", "--grid", "0.1", "0.2", "3",
            "--schemes", "relay_avg,relay_perfect", "--metrics",
            "bl_throughput", "--mc-samples", "100000"]
    _, out_1 = run_cli(args + ["--workers", "1"], capsys)
    _, out_4 = run_cli(args + ["--workers", "4"], capsys)
    assert out_1 == out_4

def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "fblrelay.cli", "sweep", "--variable", "eta",
         "--grid-list", "0.2", "--metrics", "coding_rate"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("eta[1],relay_avg.coding_rate")

def test_path_loss_warnings_print_once_as_plain_lines():
    # the reference distances lie below COST-231 Hata's 1 km range: each
    # extrapolated distance is one plain line, not a Python warning with
    # its source line
    proc = subprocess.run(
        [sys.executable, "-m", "fblrelay.cli", "sweep", "--variable", "eta",
         "--grid-list", "0.2,0.3", "--metrics", "coding_rate"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [
        f"warning: COST-231 Hata evaluated outside its validity range "
        f"(d = {d} km, f = 2000 MHz)" for d in ("0.36", "0.2")]

def test_warning_filters_still_apply_inside_main(capsys):
    # the suite makes every RuntimeWarning an error; main must not swallow
    # it into a line
    def overflowing(*args):
        warnings.warn("overflow", RuntimeWarning)
        return 0.0

    with mock.patch.object(cli, "expected_overall_error", overflowing):
        with pytest.raises(RuntimeWarning):
            cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2"])
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        with mock.patch.object(cli, "expected_overall_error", overflowing):
            assert cli.main(["sweep", "--variable", "eta", "--grid-list",
                             "0.2", "--metrics", "coding_rate"]) == 0
    assert "warning: overflow\n" in capsys.readouterr().err

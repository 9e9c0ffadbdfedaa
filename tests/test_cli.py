"""Command-line interface: exit codes, CSV shape, determinism."""

import math
import subprocess
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from fblrelay import cli
from fblrelay.fading import QuadratureNonConvergence

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

def test_sweepspec_rejects_bad_entries():
    good = dict(variable="eta", grid=(0.1,), schemes=("relay_avg",),
                metrics=("bl_throughput",))
    cli.SweepSpec(**good)
    for key, bad in (("variable", "snr"), ("grid", ()), ("schemes", ()),
                     ("metrics", ()), ("schemes", ("relay_avg", "bogus")),
                     ("metrics", ("msdr", "latency"))):
        with pytest.raises(ValueError):
            cli.SweepSpec(**{**good, key: bad})

def test_unknown_scheme_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                       "3", "--schemes", "bogus"], capsys)
    assert code == 2

def test_missing_grid_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta"], capsys)
    assert code == 2

def test_bad_scenario_value_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                       "3", "--m", "50"], capsys)
    assert code == 2

def test_half_qos_pair_exits_2(capsys):
    code, _ = run_cli(["sweep", "--variable", "eta", "--grid", "0.1", "0.3",
                       "3", "--qos-d", "100"], capsys)
    assert code == 2

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

def test_optimize_rejects_monte_carlo_flags(capsys):
    # optimize runs no Monte Carlo, so these flags would be ignored
    for flag in (["--mc-samples", "5"], ["--workers", "9"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["optimize", "--objective", "bl_throughput", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

def test_small_perfect_csi_sample_names_the_flag(capsys):
    code = cli.main(["sweep", "--variable", "eta", "--grid-list", "0.2",
                     "--schemes", "relay_perfect", "--mc-samples", "1000"])
    assert code == 2
    assert "--mc-samples" in capsys.readouterr().err

def test_mc_samples_rejected_without_a_monte_carlo_scheme(capsys):
    # no chosen scheme draws samples, so the flag would be ignored
    for args in (["sweep", "--variable", "eta", "--grid-list", "0.2",
                  "--schemes", "relay_avg", "--mc-samples", "5"],
                 ["compare", "--pair", "relay_vs_direct", "--mc-samples", "3"]):
        with mock.patch.object(cli, "expected_overall_error") as work:
            code = cli.main(args)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--mc-samples" in captured.err
        assert work.call_count == 0

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
    # one relay_avg evaluation
    with mock.patch.object(cli, "expected_overall_error",
                           wraps=cli.expected_overall_error) as spy:
        code, _ = run_cli(["optimize"], capsys)
    assert code == 0
    etas = {call.args[3].eta for call in spy.call_args_list}
    assert spy.call_count == len(etas) == 65

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
    # links so faint that the outage reference and relay_avg are both 0
    code, out = run_cli(["compare", "--pair", "avg_vs_perfect", "--grid-list",
                         "100,200", "--mc-samples", "100000",
                         "--pathloss-model", "fixed_gains", "--g1", "1e-30",
                         "--g2", "1e-30", "--g3", "1e-30"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert [float(line.split(",")[4]) for line in lines[1:3]] == [0.0, 0.0]
    assert lines[-2] == ("# summary,avg_gap_to_outage,final=0.0,"
                         "first_m_below_2pct=100.0")

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

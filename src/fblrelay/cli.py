"""Command-line front end: sweeps, optimization, comparisons, validation.

Data rows go to stdout as CSV with full-precision floats (byte-identical
across runs with the same flags and seed); progress and warnings go to
stderr.  Exit codes: 0 success, 2 validation error, 3 numerical
non-convergence.  Monte Carlo work derives one substream per grid point
from the global seed, so the worker count never changes the output.
"""

import argparse
import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .baselines import ergodic_capacity_relay, outage_prob_relay
from .fading import QuadratureNonConvergence, avg_snr, expected_error_single
from .fbl import LN2, achievable_rate, shannon_c
from .linklayer import QoSPair, msdr, service_stats
from .montecarlo import (
    mc_bl_throughput,
    mc_expected_overall_error,
    mc_service_stats,
)
from .optimize import maximize_unimodal
from .relay import (
    LinkGains,
    SystemParams,
    bl_throughput_perfect_csi,
    bottleneck_snr,
    expected_overall_error,
    select_rate_avg_csi,
)
from .scenario import Scenario, build, load_scenario, with_overrides

VARIABLES = ("coding_rate", "eta", "blocklength")
METRICS = ("bl_throughput", "msdr", "expected_error", "coding_rate")

_UNITS = {"bl_throughput": "bits/use", "msdr": "bits/use",
          "expected_error": "prob", "coding_rate": "bits/use"}
_VAR_UNITS = {"eta": "1", "coding_rate": "bits/use", "blocklength": "symbols"}
_MC_SAMPLES = 1000000   # --mc-samples when not given


# ---------------------------------------------------------------------------
# the scheme table: one evaluator per scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Point:
    """One operating point and what its Monte Carlo schemes need.

    seed is the point's substream root, (global seed, grid index);
    ergodic is the sweep's ergodic-capacity constant.
    """

    gains: LinkGains
    params: SystemParams
    qos: QoSPair
    mc_samples: int = _MC_SAMPLES
    seed: tuple = ()
    ergodic: float = math.nan

def _relay_avg(r, pt):
    g, p = pt.gains, pt.params
    if r is None:
        r = select_rate_avg_csi(g, p)
    err = expected_overall_error(r, p.m, g, p)
    return {"coding_rate": r, "expected_error": err,
            "bl_throughput": 0.5 * r * (1.0 - err),
            "msdr": msdr(r, p.m, err, pt.qos)}

def _relay_perfect(r, pt):
    mean, _ = bl_throughput_perfect_csi(pt.params.m, pt.gains, pt.params,
                                        n_samples=pt.mc_samples,
                                        seed=pt.seed + (1,))
    return {"bl_throughput": mean}

def _direct(r, pt, matched):
    """Direct transmission over the whole 2m-use period.

    matched keeps the payload of relaying: half the relay per-hop rate,
    swept or selected.  Otherwise the swept rate is used as is, or the
    rate is selected from the direct link's own weighted average SNR.
    """
    g, p = pt.gains, pt.params
    if matched:
        r = 0.5 * (select_rate_avg_csi(g, p) if r is None else r)
    elif r is None:
        r = achievable_rate(p.eta * avg_snr(g.g1, p), p.eps_nominal, 2.0 * p.m)
    err = expected_error_single(r, 2.0 * p.m, avg_snr(g.g1, p))
    # direct sends r*2m bits per 2m-symbol period, which is the
    # relay-normalized service law at twice the per-hop rate
    return {"coding_rate": r, "expected_error": err,
            "bl_throughput": r * (1.0 - err),
            "msdr": msdr(2.0 * r, p.m, err, pt.qos)}

def _shannon_ergodic(r, pt):
    return {"bl_throughput": pt.ergodic}

def _outage(r, pt):
    g, p = pt.gains, pt.params
    if r is None:
        r = shannon_c(p.eta * bottleneck_snr(g, p))
    p_out = outage_prob_relay(r, g, p)
    # each hop must sustain r; a payload occupies two hops, so the
    # end-to-end rate is r/2
    return {"coding_rate": 0.5 * r, "expected_error": p_out,
            "bl_throughput": 0.5 * r * (1.0 - p_out)}


@dataclass(frozen=True)
class Scheme:
    """evaluate(r, point) returns every metric in metrics.

    r is the swept per-hop rate, or None for the scheme's own rate.
    """

    evaluate: Callable
    metrics: tuple
    rate_sweep: bool    # defined on a coding_rate sweep
    monte_carlo: bool   # draws Monte Carlo samples

SCHEMES = {
    "relay_avg": Scheme(_relay_avg, METRICS, True, False),
    "relay_perfect": Scheme(_relay_perfect, ("bl_throughput",), False, True),
    "direct_matched": Scheme(functools.partial(_direct, matched=True),
                             METRICS, True, False),
    "direct_weighted": Scheme(functools.partial(_direct, matched=False),
                              METRICS, True, False),
    "shannon_ergodic": Scheme(_shannon_ergodic, ("bl_throughput",), True,
                              True),
    "outage": Scheme(_outage, ("bl_throughput", "expected_error",
                               "coding_rate"), True, False),
}


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: axis, grid, and the (scheme, metric) matrix.

    Every scheme must define every metric, and be defined on the axis.
    """

    variable: str
    grid: tuple
    schemes: tuple
    metrics: tuple

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise ValueError(f"variable must be one of {VARIABLES}")
        if len(self.grid) == 0:
            raise ValueError("grid must not be empty")
        for name, allowed in (("schemes", SCHEMES), ("metrics", METRICS)):
            chosen = getattr(self, name)
            if len(chosen) == 0:
                raise ValueError(f"{name} must not be empty")
            for item in chosen:
                if item not in allowed:
                    raise ValueError(f"unknown entry in {name}: {item!r}")
        for scheme in self.schemes:
            entry = SCHEMES[scheme]
            for metric in self.metrics:
                if metric not in entry.metrics:
                    raise ValueError(f"metric {metric!r} is not defined for "
                                     f"scheme {scheme!r}")
            if self.variable == "coding_rate" and not entry.rate_sweep:
                raise ValueError(f"{scheme} re-optimizes the rate per draw; "
                                 "not defined on a coding_rate sweep")

def _mc_samples(value, schemes):
    """--mc-samples, accepted only when a chosen scheme draws samples."""
    if value is None:
        return _MC_SAMPLES
    if not any(SCHEMES[s].monte_carlo for s in schemes):
        raise ValueError("--mc-samples is given, but none of the schemes "
                         f"{','.join(schemes)} draws Monte Carlo samples")
    return int(value)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _eval_point(spec, base, i, x):
    """One CSV row: the axis value, then every (scheme, metric) cell."""
    params, r = base.params, None
    if spec.variable == "eta":
        params = replace(params, eta=float(x))
    elif spec.variable == "blocklength":
        params = replace(params, m=float(x))
    else:
        r = float(x)
    pt = replace(base, params=params, seed=base.seed + (i,))
    row = [float(x)]
    for scheme in spec.schemes:
        values = SCHEMES[scheme].evaluate(r, pt)
        row.extend(values[metric] for metric in spec.metrics)
    return row

def _run_sweep(spec, scn, args):
    """Header and rows of a sweep, with the run flags of args."""
    mc_samples = _mc_samples(args.mc_samples, spec.schemes)
    seed = args.seed
    gains, params = build(scn)
    ergodic = math.nan
    if "shannon_ergodic" in spec.schemes:
        # constant column: estimated once, before the grid loop
        ergodic, _ = ergodic_capacity_relay(
            gains, params, n_samples=max(mc_samples, 1000000),
            seed=(seed, 10001))
    base = Point(gains, params, scn.qos, mc_samples, (seed,), ergodic)
    points = list(enumerate(spec.grid))
    if args.workers > 1:
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(lambda p: _eval_point(spec, base, *p), points))
    else:
        rows = [_eval_point(spec, base, *p) for p in points]
    header = [f"{spec.variable}[{_VAR_UNITS[spec.variable]}]"]
    header.extend(f"{s}.{m}[{_UNITS[m]}]"
                  for s in spec.schemes for m in spec.metrics)
    return header, rows

def _format_csv(header, rows, summary=()):
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    lines.extend(summary)
    return "\n".join(lines) + "\n"

def _emit(text, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

_SCENARIO_FLAGS = ("d_backhaul", "d_relaying", "d_direct", "p_tx_dbm",
                   "noise_dbm", "f_c", "m", "eta", "eps_nominal",
                   "ant_gain_db", "direct_extra_loss_db", "g1", "g2", "g3")

def _add_scenario(p, monte_carlo=True):
    """Scenario flags, then the run flags of the subcommand."""
    p.add_argument("--scenario-file", help="flat key=value scenario file")
    for name in _SCENARIO_FLAGS:
        p.add_argument("--" + name.replace("_", "-"), type=float, default=None)
    p.add_argument("--qos-d", type=float, default=None)
    p.add_argument("--qos-p-d", type=float, default=None)
    p.add_argument("--pathloss-model", default=None)
    _add_run(p, monte_carlo)

def _add_run(p, monte_carlo=True):
    """--seed and --output; --mc-samples and --workers where MC runs."""
    p.add_argument("--seed", type=int, default=42)
    if monte_carlo:
        # None: 1e6 where a scheme draws samples, and an error if given
        # where none does (see _mc_samples)
        p.add_argument("--mc-samples", type=float, default=None)
        p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", help="write CSV here instead of stdout")

def _scenario_from_args(args):
    scn = load_scenario(args.scenario_file) if args.scenario_file else Scenario()
    over = {}
    for name in _SCENARIO_FLAGS:
        value = getattr(args, name)
        if value is not None:
            over[name] = value
    if args.pathloss_model is not None:
        over["pathloss_model"] = args.pathloss_model
    if (args.qos_d is None) != (args.qos_p_d is None):
        raise ValueError("--qos-d and --qos-p-d must be given together")
    if args.qos_d is not None:
        over["qos"] = QoSPair(d=args.qos_d, p_d=args.qos_p_d)
    return with_overrides(scn, **over) if over else scn

def _grid_from_args(args, default=None):
    if args.grid is not None and args.grid_list is not None:
        raise ValueError("give either --grid or --grid-list, not both")
    if args.grid is not None:
        lo, hi, n = args.grid
        if int(n) < 1 or not lo < hi:
            raise ValueError("--grid needs lo < hi and n >= 1")
        return tuple(np.linspace(lo, hi, int(n)))
    if args.grid_list is not None:
        values = tuple(float(v) for v in args.grid_list.split(",") if v.strip())
        if not values:
            raise ValueError("--grid-list must not be empty")
        return values
    if default is not None:
        return default
    raise ValueError("a grid is required: --grid lo hi n or --grid-list v1,v2,...")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_sweep(args):
    scn = _scenario_from_args(args)
    spec = SweepSpec(variable=args.variable,
                     grid=_grid_from_args(args),
                     schemes=tuple(s for s in args.schemes.split(",") if s),
                     metrics=tuple(m for m in args.metrics.split(",") if m))
    header, rows = _run_sweep(spec, scn, args)
    _emit(_format_csv(header, rows), args.output)
    return 0

def _cmd_optimize(args):
    scn = _scenario_from_args(args)
    gains, params = build(scn)
    base = Point(gains, params, scn.qos)

    # both objectives read one relay_avg evaluation per distinct eta
    @functools.lru_cache(maxsize=None)
    def relay_avg(eta):
        return SCHEMES["relay_avg"].evaluate(
            None, replace(base, params=replace(params, eta=eta)))

    chosen = (["bl_throughput", "msdr"] if args.objective == "both"
              else [args.objective])
    lines = ["objective,eta_star,value,flag,iterations"]
    results = {}
    for name in chosen:
        res = maximize_unimodal(lambda eta: relay_avg(eta)[name], 0.01, LN2,
                                args.tol)
        results[name] = res
        lines.append(f"{name},{res.argmax!r},{res.value!r},{res.flag},"
                     f"{res.iterations}")
    if len(chosen) == 2:
        d_eta = results["bl_throughput"].argmax - results["msdr"].argmax
        d_val = results["bl_throughput"].value - results["msdr"].value
        lines.append(f"difference,{d_eta!r},{d_val!r},,")
    _emit("\n".join(lines) + "\n", args.output)
    return 0

def _ratio(num, den):
    """num/den, with 0/0 = 0 and num/0 = +-inf, so summaries stay total."""
    if den == 0.0:
        return 0.0 if num == 0.0 else math.copysign(math.inf, num)
    return num / den

def _cmd_compare(args):
    scn = _scenario_from_args(args)
    if args.pair == "relay_vs_direct":
        # equal payload per period: direct runs at half the relay rate
        # over twice the per-hop blocklength
        grid = _grid_from_args(args, tuple(np.linspace(0.01, LN2, 100)))
        spec = SweepSpec("eta", grid, ("relay_avg", "direct_matched"),
                         ("bl_throughput", "msdr"))
        header, rows = _run_sweep(spec, scn, args)
        summary = []
        for k, metric in ((1, "bl_throughput"), (2, "msdr")):
            ratios = [row[k] / row[k + 2] for row in rows if row[k + 2] > 0.0]
            vacuous = sum(1 for row in rows if row[k] == 0.0 and row[k + 2] == 0.0)
            summary.append(f"# summary,{metric},min_relay_over_direct="
                           f"{min(ratios, default=math.inf)!r},"
                           f"both_zero_points={vacuous}")
    elif args.pair == "fbl_vs_outage":
        grid = _grid_from_args(args, tuple(np.linspace(0.1, LN2, 100)))
        spec = SweepSpec("eta", grid, ("relay_avg", "outage"),
                         ("bl_throughput",))
        header, rows = _run_sweep(spec, scn, args)
        loss = max(max(0.0, _ratio(row[2] - row[1], row[1])) for row in rows)
        summary = [f"# summary,bl_throughput,max_loss_vs_outage={loss!r}"]
    else:  # avg_vs_perfect
        grid = _grid_from_args(args, (100.0, 200.0, 500.0, 1000.0, 2000.0))
        spec = SweepSpec("blocklength", grid,
                         ("relay_avg", "relay_perfect", "shannon_ergodic",
                          "outage"), ("bl_throughput",))
        header, rows = _run_sweep(spec, scn, args)
        summary = []
        for k, name, ref_k in ((1, "avg_gap_to_outage", 4),
                               (2, "perfect_gap_to_ergodic", 3)):
            gaps = [(row[0], _ratio(row[ref_k] - row[k], row[ref_k]))
                    for row in rows]
            below = [m for m, g in gaps if g < 0.02]
            first = repr(float(min(below))) if below else "none"
            summary.append(f"# summary,{name},final={gaps[-1][1]!r},"
                           f"first_m_below_2pct={first}")
    _emit(_format_csv(header, rows, summary), args.output)
    return 0

def _cmd_validate(args):
    # the battery draws its own parameter points, so it takes no scenario
    n = int(args.mc_samples)
    rng = np.random.default_rng(args.seed)
    lines = ["point,r,m,g1,g2,g3,check,analytic,mc_mean,mc_std_err,z"]
    worst = 0.0
    for i in range(args.points):
        g = LinkGains(*map(float, np.exp(rng.uniform(math.log(0.5),
                                                     math.log(300.0), 3))))
        m = int(rng.integers(100, 2001))
        frac = rng.uniform(0.2, 0.8)
        sub = int(rng.integers(1 << 30))
        p = SystemParams(m=m, p_tx=1.0, sigma2=1.0, eps_nominal=1e-3, eta=0.2)
        r = float(frac * math.log2(1.0 + bottleneck_snr(g, p)))
        err = expected_overall_error(r, m, g, p)
        checks = []
        est = mc_expected_overall_error(r, m, g, p, n=n, seed=(sub, 1),
                                        workers=args.workers)
        checks.append(("expected_error", err, est))
        thr = mc_bl_throughput(r, m, g, p, n=n, seed=(sub, 2),
                               workers=args.workers)
        checks.append(("bl_throughput", 0.5 * r * (1.0 - err), thr))
        stats = mc_service_stats(r, m, g, p, n=n, seed=(sub, 3),
                                 workers=args.workers)
        ana = service_stats(r, m, err)
        checks.append(("service_mean", ana.mean, stats.mean))
        checks.append(("service_variance", ana.variance, stats.variance))
        for name, analytic, estimate in checks:
            z = ((estimate.mean - analytic) / estimate.std_err
                 if estimate.std_err > 0.0 else 0.0)
            worst = max(worst, abs(z))
            lines.append(f"{i},{r!r},{m},{g.g1!r},{g.g2!r},{g.g3!r},{name},"
                         f"{analytic!r},{estimate.mean!r},"
                         f"{estimate.std_err!r},{z!r}")
        print(f"validate: point {i + 1}/{args.points} done", file=sys.stderr)
    _emit("\n".join(lines) + "\n", args.output)
    if worst > 3.0:
        print(f"validate: worst |z| = {worst:.2f} exceeds 3", file=sys.stderr)
        return 3
    print(f"validate: all checks within 3 standard errors "
          f"(worst |z| = {worst:.2f})", file=sys.stderr)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fblrelay",
        description="Finite-blocklength two-hop relaying: sweeps, "
                    "optimization, comparisons, Monte Carlo validation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("sweep", help="evaluate schemes over a grid")
    _add_scenario(p)
    p.add_argument("--variable", required=True, choices=VARIABLES)
    p.add_argument("--grid", nargs=3, type=float, default=None,
                   metavar=("LO", "HI", "N"))
    p.add_argument("--grid-list", default=None)
    p.add_argument("--schemes", default="relay_avg")
    p.add_argument("--metrics", default="bl_throughput")
    p.set_defaults(func=_cmd_sweep)

    p = subs.add_parser("optimize", help="maximize a metric over the weight")
    # quadrature only: no Monte Carlo flags
    _add_scenario(p, monte_carlo=False)
    p.add_argument("--objective", default="both",
                   choices=("bl_throughput", "msdr", "both"))
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("compare", help="paired scheme comparison with summary")
    _add_scenario(p)
    p.add_argument("--pair", required=True,
                   choices=("relay_vs_direct", "avg_vs_perfect",
                            "fbl_vs_outage"))
    p.add_argument("--grid", nargs=3, type=float, default=None,
                   metavar=("LO", "HI", "N"))
    p.add_argument("--grid-list", default=None)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("validate",
                        help="quadrature vs Monte Carlo battery")
    _add_run(p)
    p.add_argument("--points", type=int, default=20)
    p.set_defaults(func=_cmd_validate, mc_samples=_MC_SAMPLES)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureNonConvergence as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: sweeps, optimization, comparisons, validation.

Data rows go to stdout as CSV with full-precision floats (byte-identical
across runs with the same flags and seed on any BLAS kernel; numpy's
exp and log can differ in last digits with and without AVX-512);
progress and warnings go to stderr.  Exit codes: 0 success, 2
validation error, 3 numerical non-convergence.  Monte Carlo work
derives one substream per grid point from the global seed, so the
worker count never changes the output.
"""

import argparse
import functools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .baselines import ergodic_capacity_relay, outage_prob_relay
from .fading import QuadratureNonConvergence, expected_error_single
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
from .scenario import (KEYS, Scenario, build, load_scenario, unread_keys,
                       with_overrides)

VARIABLES = ("coding_rate", "eta", "blocklength")
METRICS = ("bl_throughput", "msdr", "expected_error", "coding_rate")

_UNITS = {"bl_throughput": "bits/use", "msdr": "bits/use",
          "expected_error": "prob", "coding_rate": "bits/use"}
_VAR_UNITS = {"eta": "1", "coding_rate": "bits/use", "blocklength": "symbols"}
# scenario keys an axis replaces; eta and eps_nominal only select a rate
_REPLACED = {"eta": ("eta",), "coding_rate": ("eta", "eps_nominal"),
             "blocklength": ("m",)}
# what schemes and metrics read beyond the link budget, which all read:
_RATE = ("m", "eta", "eps_nominal")   # a scheme's own rate rule
_QOS = ("qos_d", "qos_p_d")           # the msdr metric
_RUN = ("mc_samples", "workers")      # Monte Carlo schemes
_MC_SAMPLES = 1000000   # --mc-samples when not given
_COUNT_CAP = 2.0**53    # floats hold every whole number below this


# ---------------------------------------------------------------------------
# the scheme table: one evaluator per scheme
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Block:
    """A block of operating points and what its Monte Carlo schemes need.

    The points share gains and qos; params.eta or params.m may be an
    array over them, a sweep's whole grid.  index holds their grid
    indices: point i's Monte Carlo substream root is seed + (i,), with
    seed = (global seed,), and the ergodic estimate's is seed + (10001,).
    workers are the threads of the schemes that draw samples.
    """

    gains: LinkGains
    params: SystemParams
    qos: QoSPair
    mc_samples: int = _MC_SAMPLES
    seed: tuple = ()
    index: tuple = ()
    workers: int = 1

def _relay_avg(r, blk):
    g, p = blk.gains, blk.params
    if r is None:
        r = select_rate_avg_csi(g, p)
    err = expected_overall_error(r, p.m, g)
    return {"coding_rate": r, "expected_error": err,
            "bl_throughput": 0.5 * r * (1.0 - err),
            "msdr": msdr(r, p.m, err, blk.qos)}

def _relay_perfect(r, blk):
    m = np.broadcast_to(blk.params.m, (len(blk.index),)).tolist()

    def mean(j):
        return bl_throughput_perfect_csi(m[j], blk.gains,
                                         n_samples=blk.mc_samples,
                                         seed=blk.seed + (blk.index[j], 1))[0]

    with ThreadPoolExecutor(max_workers=blk.workers) as pool:
        return {"bl_throughput": np.array(list(pool.map(mean, range(len(m)))))}

def _direct(r, blk, matched):
    """Direct transmission over the whole 2m-use period.

    matched keeps the payload of relaying: half the relay per-hop rate,
    swept or selected.  Otherwise the swept rate is used as is, or the
    rate is selected from the direct link's own weighted average SNR.
    """
    g, p = blk.gains, blk.params
    if matched:
        r = 0.5 * (select_rate_avg_csi(g, p) if r is None else r)
    elif r is None:
        r = achievable_rate(p.eta * g.g1, p.eps_nominal, _twice(p.m))
    err = expected_error_single(r, _twice(p.m), g.g1)
    # direct sends r*2m bits per 2m-symbol period, which is the
    # relay-normalized service law at twice the per-hop rate
    return {"coding_rate": r, "expected_error": err,
            "bl_throughput": r * (1.0 - err),
            "msdr": msdr(_twice(r), p.m, err, blk.qos)}

def _twice(x):
    """2x, and inf where that overflows, as in float arithmetic."""
    with np.errstate(over="ignore"):
        return 2.0 * x

def _shannon_ergodic(r, blk):
    # a constant column: one estimate serves every point of the block
    return {"bl_throughput": ergodic_capacity_relay(
        blk.gains, max(blk.mc_samples, 1000000), blk.seed + (10001,))[0]}

def _outage(r, blk):
    g, p = blk.gains, blk.params
    if r is None:
        r = shannon_c(p.eta * bottleneck_snr(g))
    p_out = outage_prob_relay(r, g)
    # each hop must sustain r; a payload occupies two hops, so the
    # end-to-end rate is r/2
    return {"coding_rate": 0.5 * r, "expected_error": p_out,
            "bl_throughput": 0.5 * r * (1.0 - p_out)}


@dataclass(frozen=True)
class Scheme:
    """evaluate(r, block) returns every metric in metrics.

    r is the swept per-hop rate at each point of the block, or None for
    the scheme's own rate.  A metric's value broadcasts over the block's
    points: one evaluation serves the whole block.
    """

    evaluate: Callable
    metrics: tuple
    rate_sweep: bool    # defined on a coding_rate sweep
    reads: tuple        # of _RATE and _RUN

SCHEMES = {
    "relay_avg": Scheme(_relay_avg, METRICS, True, _RATE),
    # --workers are the threads over a block's points, each drawing samples
    "relay_perfect": Scheme(_relay_perfect, ("bl_throughput",), False,
                            ("m", "mc_samples", "workers")),
    "direct_matched": Scheme(functools.partial(_direct, matched=True),
                             METRICS, True, _RATE),
    "direct_weighted": Scheme(functools.partial(_direct, matched=False),
                              METRICS, True, _RATE),
    "shannon_ergodic": Scheme(_shannon_ergodic, ("bl_throughput",), True,
                              ("mc_samples",)),
    "outage": Scheme(_outage, ("bl_throughput", "expected_error",
                               "coding_rate"), True, ("eta",)),
}


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _on_axis(variable, params, x):
    """(params, swept rate or None) at axis value x; ValueError off its domain.

    x may be an array of axis values, the points of one evaluation.
    """
    if variable == "eta":
        return replace(params, eta=x), None
    if variable == "blocklength":
        return replace(params, m=x), None
    if not np.all((0.0 <= x) & (x < math.inf)):
        raise ValueError("coding rate must be finite and nonnegative")
    return params, x

def _evaluate(scheme, r, blk, point):
    """SCHEMES[scheme].evaluate(r, blk), with its errors naming the scheme.

    A non-convergence also names its point k of the block, as point(k).
    """
    try:
        return SCHEMES[scheme].evaluate(r, blk)
    except (ValueError, QuadratureNonConvergence) as exc:
        k = getattr(exc, "index", None)
        where = "" if k is None else point(k) + ", "
        raise type(exc)(f"{where}scheme {scheme}: {exc}") from None

def _run_sweep(variable, grid, schemes, metrics, args):
    """Header and rows of a sweep, with the scenario and run flags of args.

    Every scheme is evaluated once, on the whole grid as one block of
    arrays.  A QuadratureNonConvergence names the scheme and its grid
    point, and a ValueError, raised for the whole grid, the scheme.
    """
    # the request first, before the scenario is read
    for flag, chosen, known in (("--schemes", schemes, SCHEMES),
                                ("--metrics", metrics, METRICS)):
        if not chosen:
            raise ValueError(f"{flag} must not be empty")
        for item in chosen:
            if item not in known:
                raise ValueError(f"unknown entry in {flag}: {item!r}")
    for scheme in schemes:
        for metric in metrics:
            if metric not in SCHEMES[scheme].metrics:
                raise ValueError(f"metric {metric!r} is not defined for "
                                 f"scheme {scheme!r}")
        if variable == "coding_rate" and not SCHEMES[scheme].rate_sweep:
            raise ValueError(f"{scheme} re-optimizes the rate per draw; "
                             "not defined on a coding_rate sweep")
    scn = _scenario_from_args(args, variable, schemes, metrics)
    gains, params = build(scn)
    grid = np.array(grid, dtype=float)
    try:
        params, r = _on_axis(variable, params, grid)
    except ValueError:
        # name the first value off the axis's domain
        for x in grid.tolist():
            try:
                _on_axis(variable, params, x)
            except ValueError as exc:
                flag = "--grid" if args.grid is not None else "--grid-list"
                raise ValueError(f"{flag} value {x!r}: {exc}") from None
        raise
    blk = Block(gains, params, scn.qos, args.mc_samples or _MC_SAMPLES,
                (args.seed,), tuple(range(grid.size)), args.workers or 1)
    cells = {}
    # the per-draw solver (the schemes off a rate sweep) runs last: the C
    # allocator keeps much of its freed memory resident, and the ergodic
    # estimate's 24 MB of draws would come on top of it
    for scheme in sorted(schemes, key=lambda s: not SCHEMES[s].rate_sweep):
        values = _evaluate(scheme, r, blk, lambda k: f"grid point {k} "
                           f"({variable} {float(grid[k])!r})")
        cells.update(((scheme, m), values[m]) for m in metrics)
    header = [f"{variable}[{_VAR_UNITS[variable]}]"]
    header.extend(f"{s}.{m}[{_UNITS[m]}]" for s in schemes for m in metrics)
    return header, np.column_stack([grid] + [
        np.broadcast_to(cells[s, m], grid.shape)
        for s in schemes for m in metrics]).tolist()

def _format_csv(header, rows, summary=()):
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    lines.extend(summary)
    return "\n".join(lines) + "\n"

def _emit(text, path):
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"--output {path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_scenario(p):
    """One flag per scenario key, then the run flags."""
    p.add_argument("--scenario-file", help="flat key=value scenario file")
    for key in KEYS:
        p.add_argument("--" + key.replace("_", "-"), default=None,
                       type=None if key == "pathloss_model" else float)
    _add_run(p)

def _add_run(p):
    """--seed and --output; --mc-samples and --workers are None if not given."""
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--mc-samples", type=_count, default=None)
    p.add_argument("--workers", type=_count, default=None)
    p.add_argument("--output", help="write CSV here instead of stdout")

def _positive_finite(text):
    """Type of --tol: a finite number above 0."""
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, "
                                         f"got {text}")
    return value

def _count(text):
    """Type of --mc-samples, --workers and --points: a whole count in [1, 2^53).

    Any float form, such as 1e6, gives an int; inf and nan are not whole.
    """
    value = float(text)
    if not (1.0 <= value < _COUNT_CAP and value.is_integer()):
        raise argparse.ArgumentTypeError(f"must be a whole number of at "
                                         f"least 1 and below 2^53, got {text}")
    return int(value)

def _scenario_from_args(args, variable, schemes, metrics):
    """The scenario file with the scenario flags applied.

    A scenario or Monte Carlo flag that nothing reads is an error naming
    it, before any work: one the axis replaces, one the path-loss model
    ignores, or one that no chosen scheme or metric reads.  A file holds
    every key, so its entries are not.  --seed is exempt, because the
    benchmark's command lists append it to every command.  An error in
    the file names --scenario-file and the path.
    """
    try:
        scn = load_scenario(args.scenario_file) if args.scenario_file else Scenario()
    except (OSError, ValueError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"--scenario-file {args.scenario_file}: {reason}") from None
    flags = {key: getattr(args, key) for key in KEYS
             if getattr(args, key) is not None}
    scn = with_overrides(scn, **flags)
    reads = {key for key in KEYS if key not in _RATE + _QOS}   # link budget
    reads.update(key for s in schemes for key in SCHEMES[s].reads)
    reads.update(_QOS if "msdr" in metrics else ())
    for key in [*flags, *(k for k in _RUN if getattr(args, k) is not None)]:
        if key in _REPLACED[variable]:
            why = f"the {variable} axis replaces it"
        elif key in unread_keys(scn.pathloss_model):
            why = f"the {scn.pathloss_model} path-loss model does not read it"
        elif key not in reads:
            why = (f"no scheme of {','.join(schemes)} or metric of "
                   f"{','.join(metrics)} reads it")
        else:
            continue
        raise ValueError(f"--{key.replace('_', '-')} would be ignored: {why}")
    return scn

def _grid_from_args(args, default=None):
    """Values of --grid or --grid-list, else default; _run_sweep checks each."""
    if args.grid is not None and args.grid_list is not None:
        raise ValueError("give either --grid or --grid-list, not both")
    if args.grid is not None:
        lo, hi, n = args.grid
        if not (-math.inf < lo < hi < math.inf and 1.0 <= n < _COUNT_CAP
                and n.is_integer()):
            raise ValueError("--grid needs finite lo < hi and a whole n "
                             ">= 1 and below 2^53")
        try:
            return np.linspace(lo, hi, int(n))
        except MemoryError:
            raise ValueError(f"--grid: {int(n)} points do not fit in "
                             "memory") from None
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
    header, rows = _run_sweep(args.variable, _grid_from_args(args),
                              tuple(s for s in args.schemes.split(",") if s),
                              tuple(m for m in args.metrics.split(",") if m),
                              args)
    _emit(_format_csv(header, rows), args.output)
    return 0

def _cmd_optimize(args):
    chosen = (["bl_throughput", "msdr"] if args.objective == "both"
              else [args.objective])
    # relay_avg on the weight it searches, with the objectives as metrics
    scn = _scenario_from_args(args, "eta", ("relay_avg",), chosen)
    gains, params = build(scn)
    cells = {}

    def objective(eta, name):
        """name's value at eta, a weight or an array of them.

        Both objectives read one relay_avg evaluation per distinct eta;
        the weights not seen before are evaluated as one block.
        """
        etas = np.atleast_1d(eta).tolist()
        new = [e for e in dict.fromkeys(etas) if e not in cells]
        if new:
            blk = Block(gains, replace(params, eta=np.array(new)), scn.qos)
            values = _evaluate("relay_avg", None, blk,
                               lambda k: f"eta {new[k]!r}")
            for j, e in enumerate(new):
                cells[e] = {k: float(v[j]) for k, v in values.items()}
        out = np.array([cells[e][name] for e in etas])
        return out if np.ndim(eta) else float(out[0])

    lines = ["objective,eta_star,value,flag,iterations"]
    results = {}
    for name in chosen:
        res = maximize_unimodal(functools.partial(objective, name=name), 0.01,
                                LN2, args.tol)
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

# compare's sweep presets: pair -> (axis, default grid, schemes, metrics)
_PAIRS = {
    # equal payload per period: direct runs at half the relay rate
    # over twice the per-hop blocklength
    "relay_vs_direct": ("eta", tuple(np.linspace(0.01, LN2, 100)),
                        ("relay_avg", "direct_matched"),
                        ("bl_throughput", "msdr")),
    "avg_vs_perfect": ("blocklength", (100.0, 200.0, 500.0, 1000.0, 2000.0),
                       ("relay_avg", "relay_perfect", "shannon_ergodic",
                        "outage"), ("bl_throughput",)),
    "fbl_vs_outage": ("eta", tuple(np.linspace(0.1, LN2, 100)),
                      ("relay_avg", "outage"), ("bl_throughput",)),
}

def _cmd_compare(args):
    variable, default, schemes, metrics = _PAIRS[args.pair]
    header, rows = _run_sweep(variable, _grid_from_args(args, default),
                              schemes, metrics, args)
    if args.pair == "relay_vs_direct":
        summary = []
        for k, metric in ((1, "bl_throughput"), (2, "msdr")):
            ratios = [row[k] / row[k + 2] for row in rows if row[k + 2] > 0.0]
            vacuous = sum(1 for row in rows if row[k] == 0.0 and row[k + 2] == 0.0)
            summary.append(f"# summary,{metric},min_relay_over_direct="
                           f"{min(ratios, default=math.inf)!r},"
                           f"both_zero_points={vacuous}")
    elif args.pair == "fbl_vs_outage":
        loss = max(max(0.0, _ratio(row[2] - row[1], row[1])) for row in rows)
        summary = [f"# summary,bl_throughput,max_loss_vs_outage={loss!r}"]
    else:  # avg_vs_perfect
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
    n = args.mc_samples
    rng = np.random.default_rng(args.seed)
    lines = ["point,r,m,g1,g2,g3,check,analytic,mc_mean,mc_std_err,z"]
    worst = 0.0
    for i in range(args.points):
        g = LinkGains(*map(float, np.exp(rng.uniform(math.log(0.5),
                                                     math.log(300.0), 3))))
        m = int(rng.integers(100, 2001))
        frac = rng.uniform(0.2, 0.8)
        sub = int(rng.integers(1 << 30))
        r = float(frac * math.log2(1.0 + bottleneck_snr(g)))
        err = expected_overall_error(r, m, g)
        run = {"n": n, "workers": args.workers}
        est = mc_expected_overall_error(r, m, g, seed=(sub, 1), **run)
        thr = mc_bl_throughput(r, m, g, seed=(sub, 2), **run)
        stats = mc_service_stats(r, m, g, seed=(sub, 3), **run)
        ana = service_stats(r, m, err)
        checks = [("expected_error", err, est),
                  ("bl_throughput", 0.5 * r * (1.0 - err), thr),
                  ("service_mean", ana.mean, stats.mean),
                  ("service_variance", ana.variance, stats.variance)]
        for name, analytic, (mean, se) in checks:
            z = (mean - analytic) / se if se > 0.0 else 0.0
            worst = max(worst, abs(z))
            lines.append(f"{i},{r!r},{m},{g.g1!r},{g.g2!r},{g.g3!r},{name},"
                         f"{analytic!r},{mean!r},{se!r},{z!r}")
        print(f"validate: point {i + 1}/{args.points} done", file=sys.stderr)
    _emit("\n".join(lines) + "\n", args.output)
    if worst > 3.0:
        print(f"validate: worst |z| = {worst:.2f} exceeds 3", file=sys.stderr)
        return 3
    print(f"validate: all checks within 3 standard errors "
          f"(worst |z| = {worst:.2f})", file=sys.stderr)
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as is."""
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
    _add_scenario(p)
    p.add_argument("--objective", default="both",
                   choices=("bl_throughput", "msdr", "both"))
    p.add_argument("--tol", type=_positive_finite, default=1e-4)
    p.set_defaults(func=_cmd_optimize)

    p = subs.add_parser("compare", help="paired scheme comparison with summary")
    _add_scenario(p)
    p.add_argument("--pair", required=True, choices=tuple(_PAIRS))
    p.add_argument("--grid", nargs=3, type=float, default=None,
                   metavar=("LO", "HI", "N"))
    p.add_argument("--grid-list", default=None)
    p.set_defaults(func=_cmd_compare)

    p = subs.add_parser("validate",
                        help="quadrature vs Monte Carlo battery")
    _add_run(p)
    p.add_argument("--points", type=_count, default=20)
    p.set_defaults(func=_cmd_validate, mc_samples=_MC_SAMPLES, workers=1)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except QuadratureNonConvergence as exc:
            print(f"numerical non-convergence: {exc}", file=sys.stderr)
            return 3
    # each distinct warning once, as a plain line (a filter that makes it
    # an error still raises it); a command that fails prints its error alone
    for text in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {text}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

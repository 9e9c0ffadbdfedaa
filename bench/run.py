"""fblrelay benchmark: three study workloads, run as real CLI commands.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload quad_study --seed 42 --seconds 30 --trace 0

One single-threaded process runs a workload's commands as a closed loop
with one client: the next command starts when the previous one exits.
Every command gets ``--seed`` and nothing beyond its own arguments, and
every output is checked against bench/refs (see check.py).

--trace 0 reports the end-to-end metrics:
  setup_s      fresh ``python3 -c "import fblrelay.cli"``
  wall_s       one pass over the commands, each a fresh process
  warm_s       one pass through ``fblrelay.cli.main(argv)`` in this
               process, after one warm-up pass
  peak_rss_mb  largest peak resident set among a cold pass's processes
Times are medians; setup_s, and the times of workloads marked
"calibrate", are in calibrated seconds (see Clock).
--trace 1 reports the per-layer metrics from traced in-process passes
(tracer.py), alternating with untraced passes whose stdout must be
byte-identical, plus import costs from ``python -X importtime``.

The last stdout line is the JSON result; the full record, environment
included, goes to bench/out/.
"""

import argparse
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import scipy
from scipy.special import erfc

from check import Checker, worst_z
from common import OUT, ROOT, SRC, Launcher, child_env, source_hash
from tracer import Tracer, aggregate
from workloads import WORKLOADS, argv

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
# calibration kernel: its input and its time at the reference speed
_CAL_X = np.linspace(-5.0, 5.0, 100_000)
CAL_REF_S = 0.025


class Tally:
    """Attempted and failed ops of one run, with the reason for each failure.

    An op is one command of the workload at the run's seed.  A run
    executes every op many times and checks each execution; an op fails
    when any execution of it fails, and executions of one op that end in
    different states make the run incorrect.  So attempted and failed
    depend only on the code and the seed, not on how many passes fit in
    the run.
    """

    def __init__(self, checker):
        self.checker = checker
        self.status = {}
        self.executions = 0
        self.wrong = []
        self.failures = {}
        self.worst_z = 0.0

    @property
    def attempted(self):
        return len(self.status)

    @property
    def failed(self):
        return sum(status != "ok" for status in self.status.values())

    def record(self, index, command, code, stdout):
        status, detail = self.checker.check(index, command, code, stdout)
        self.executions += 1
        first = self.status.setdefault(index, status)
        if status != first:
            self.wrong.append(f"{' '.join(command)}: {status} on one "
                              f"execution, {first} on another")
        if status != "ok":
            self.status[index] = status
            self.failures[" ".join(command)] = f"{status}: {detail}"
        if status == "wrong":
            self.wrong.append(f"{' '.join(command)}: {detail}")
        if command[0] == "validate" and stdout:
            self.worst_z = max(self.worst_z, worst_z(stdout))


def run_inproc(cli, args):
    """Run ``cli.main(args)`` with stdout and stderr captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def warm_pass(cli, commands, seed, tally):
    """One in-process pass; returns (seconds, [stdout per command]).

    Outputs are checked after the clock stops.
    """
    t0 = time.perf_counter()
    runs = [run_inproc(cli, argv(command, seed)) for command in commands]
    seconds = time.perf_counter() - t0
    for i, (command, (code, out)) in enumerate(zip(commands, runs)):
        tally.record(i, command, code, out)
    return seconds, [out for _, out in runs]


def cold_pass(launcher, clock, commands, seed, tally):
    """One pass of fresh processes, each command timed by the clock.

    Returns (raw seconds, clocked seconds, peak MB, [stdout per command]).
    """
    raw = clocked = rss = 0.0
    outs = []
    for i, command in enumerate(commands):
        (code, out, _, secs, peak), scale = clock.bracket(
            lambda: launcher.run_cli(argv(command, seed)))
        raw += secs
        clocked += secs * scale
        rss = max(rss, peak)
        outs.append(out)
        tally.record(i, command, code, out)
    return raw, clocked, rss, outs


def measure_until(seconds, one_round):
    """Run rounds until the next one would end more than half a round late."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + 0.5 * (now - t0) >= seconds:
            return


class Clock:
    """Scales measured seconds into calibrated seconds, when enabled.

    On a shared host the CPU's speed swings by up to a factor of two in
    phases of seconds to minutes; CPU time swings with wall time, so no
    in-run statistic of raw times removes it.  An enabled clock brackets
    each sample with a fixed kernel of numpy and interpreter work and
    scales it by CAL_REF_S over the kernel's mean time around it: a
    calibrated second is a second at the speed where the kernel takes
    CAL_REF_S.  That tracks samples of under a second of single-threaded
    work; DESIGN.md has the measurements.  A disabled clock scales by 1.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.before = calibrate() if enabled else None

    def bracket(self, action):
        """Run action(); return (its result, the factor for its seconds)."""
        result = action()
        if not self.enabled:
            return result, 1.0
        after = calibrate()
        scale = CAL_REF_S / (0.5 * (self.before + after))
        self.before = after
        return result, scale


def calibrate():
    """Seconds for a fixed mix of numpy ufunc and interpreter work."""
    t0 = time.perf_counter()
    for _ in range(8):
        erfc(_CAL_X)
        np.log1p(np.abs(_CAL_X))
    total = 0
    for i in range(200_000):
        total += i * i
    return time.perf_counter() - t0


class Samples:
    """Each metric's samples; for calibrated times also the raw seconds."""

    def __init__(self):
        self.values = defaultdict(list)
        self.raw = defaultdict(list)

    def add_time(self, name, seconds, scale):
        self.values[name].append(seconds * scale)
        self.raw[name].append(seconds)


def end_to_end(name, seed, seconds, launcher, cli, tally):
    """End-to-end metric values and samples of one run."""
    commands = WORKLOADS[name]["commands"]
    clock = Clock(WORKLOADS[name]["calibrate"])
    setup_clock, samples, rss = Clock(True), Samples(), []
    for _ in range(SETUP_REPEATS):
        (code, _, err, secs, _), scale = setup_clock.bracket(
            lambda: launcher.run(["-c", "import fblrelay.cli"]))
        if code != 0:
            raise SystemExit(f"bench: import fblrelay.cli failed:\n{err}")
        samples.add_time("setup_s", secs, scale)
    warm_pass(cli, commands, seed, tally)  # warm-up: caches and lazy set-up

    def one_round():
        c_raw, c_clocked, c_rss, c_outs = cold_pass(launcher, clock, commands,
                                                    seed, tally)
        samples.add_time("wall_s", c_raw, c_clocked / c_raw)
        rss.append(c_rss)
        spent = 0.0
        while True:
            (w_time, w_outs), scale = clock.bracket(
                lambda: warm_pass(cli, commands, seed, tally))
            samples.add_time("warm_s", w_time, scale)
            spent += w_time
            if w_outs != c_outs:
                tally.wrong.append("in-process stdout differs from the "
                                   "fresh process's")
            if spent + w_time > c_raw:
                break

    measure_until(seconds, one_round)
    samples.values["peak_rss_mb"] = rss
    return {k: statistics.median(v) for k, v in samples.values.items()}, samples


def import_costs(launcher):
    """import.* metrics from ``python -X importtime -c 'import fblrelay.cli'``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, err, _, _ = launcher.run(
            ["-X", "importtime", "-c", "import fblrelay.cli"])
        if code != 0:
            raise SystemExit(f"bench: import fblrelay.cli failed:\n{err}")
        numpy_us = scipy_us = own_us = 0
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, module = int(m[1]), int(m[2]), m[4]
            if module == "numpy":
                numpy_us = cum_us
            elif module == "scipy.special":
                scipy_us = cum_us
            elif module.split(".")[0] == "fblrelay":
                own_us += self_us
        runs.append({"import.numpy_ms": numpy_us / 1e3,
                     "import.scipy_special_ms": scipy_us / 1e3,
                     "import.fblrelay_self_ms": own_us / 1e3})
    return runs


def layer_metrics(agg, busy_ns, wall_ns, workers):
    """Per-layer metrics of one traced pass from the aggregated spans."""
    def get(name, key):
        return agg[name][key] if name in agg else 0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {}
    for name in ("cli.main", "fbl.block_error", "fading.exp_average",
                 "fading.expected_error_mrc", "fading.expected_error_single",
                 "relay.select_rate_avg_csi", "relay.expected_overall_error",
                 "relay.bl_throughput_perfect_csi", "optimize.maximize_unimodal",
                 "linklayer.msdr", "linklayer.service_stats",
                 "baselines.outage_point_relay", "baselines.outage_prob_relay",
                 "baselines.ergodic_capacity_relay", "montecarlo.draw_fading"):
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("cli.main", "fading.exp_average", "optimize.maximize_unimodal",
                 "linklayer.msdr"):
        m[f"{name}.self_ms"] = get(name, "self_ns") / 1e6
    for name in ("fbl.block_error", "fading.expected_error_mrc",
                 "fading.expected_error_single", "relay.expected_overall_error"):
        m[f"{name}.us_per_call"] = ratio(get(name, "total_ns"),
                                         get(name, "calls"), 1e-3)
    for name in ("relay.bl_throughput_perfect_csi",
                 "baselines.ergodic_capacity_relay",
                 "montecarlo.mc_expected_overall_error",
                 "montecarlo.mc_bl_throughput", "montecarlo.mc_service_stats"):
        m[f"{name}.draws_per_s"] = ratio(get(name, "draws"),
                                         get(name, "total_ns"), 1e9)
    m["fbl.block_error.elems"] = get("fbl.block_error", "elems")
    m["fbl.block_error.ns_per_elem"] = ratio(get("fbl.block_error", "total_ns"),
                                             get("fbl.block_error", "elems"))
    m["fading.exp_average.integrand_evals"] = get("fading.exp_average",
                                                  "cb_points")
    m["relay.bl_throughput_perfect_csi.self_s"] = get(
        "relay.bl_throughput_perfect_csi", "self_ns") / 1e9
    m["optimize.maximize_unimodal.objective_evals"] = get(
        "optimize.maximize_unimodal", "cb_calls")
    m["montecarlo.draw_fading.draws"] = get("montecarlo.draw_fading", "draws")
    m["montecarlo.draw_fading.ns_per_draw"] = ratio(
        get("montecarlo.draw_fading", "total_ns"),
        get("montecarlo.draw_fading", "draws"))
    m["threads.busy_over_wall"] = ratio(busy_ns, wall_ns * workers)
    return m


def per_layer(name, seed, seconds, launcher, cli, tally):
    """Per-layer metric values and samples of one run; writes the spans."""
    commands = WORKLOADS[name]["commands"]
    workers = WORKLOADS[name]["workers"]
    imports = import_costs(launcher)
    warm_pass(cli, commands, seed, tally)  # warm-up
    clock, samples, last = Clock(WORKLOADS[name]["calibrate"]), Samples(), {}

    def traced_pass():
        tracer = Tracer()
        tracer.install()
        try:
            secs, outs = warm_pass(cli, commands, seed, tally)
        finally:
            tracer.uninstall()
        agg, busy = aggregate(tracer.spans, tracer.main_thread)
        for k, v in layer_metrics(agg, busy, secs * 1e9, workers).items():
            samples.values[k].append(v)
        last["spans"] = tracer.spans
        return secs, outs

    def untraced_pass():
        return warm_pass(cli, commands, seed, tally)

    def one_round():
        first, second = ((traced_pass, untraced_pass)
                         if len(samples.raw["traced_s"]) % 2
                         else (untraced_pass, traced_pass))
        runs = {}
        for which in (first, second):
            (secs, outs), scale = clock.bracket(which)
            runs[which] = (secs * scale, outs)
            samples.add_time("traced_s" if which is traced_pass
                             else "untraced_s", secs, scale)
        (t_secs, t_outs), (u_secs, u_outs) = runs[traced_pass], runs[untraced_pass]
        if t_outs != u_outs:
            tally.wrong.append("traced stdout differs from the untraced run")
        samples.values["trace.overhead_frac"].append((t_secs - u_secs) / u_secs)

    measure_until(seconds, one_round)
    for run in imports:
        for k, v in run.items():
            samples.values[k].append(v)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        {"fields": ["id", "parent", "name", "thread", "t0_ns", "t1_ns",
                    "counters"], "spans": last["spans"]}, separators=(",", ":")))
    return {k: statistics.median(v) for k, v in samples.values.items()}, samples


def environment(name, seed):
    commit = None  # an exported checkout is not a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    blas_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v, "unset") for v in blas_vars},
        "seed": seed,
        "workload": name,
        "workers": WORKLOADS[name]["workers"],
        "commands": [["fblrelay", *argv(c, seed)]
                     for c in WORKLOADS[name]["commands"]],
        "commit": commit,
        "source_sha256_16": source_hash(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fblrelay" / "cli.py").is_file():
        print(f"bench: no fblrelay sources under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import fblrelay.cli as cli

    tally = Tally(Checker(args.workload, args.seed))
    measure = per_layer if args.trace else end_to_end
    with Launcher(child_env()) as launcher:
        values, samples = measure(args.workload, args.seed, args.seconds,
                                  launcher, cli, tally)
    # BENCHMARK.json lists the metrics each mode reports, with their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": not tally.wrong, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"environment": environment(args.workload, args.seed),
              "failed_frac": tally.failed / tally.attempted,
              "executions": tally.executions,
              "failures": tally.failures, "wrong": tally.wrong,
              "worst_abs_z": tally.worst_z,
              "samples": {k: {"n": len(v), "values": v,
                              "raw_seconds": samples.raw.get(k)}
                          for k, v in samples.values.items()},
              "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print("environment: " + json.dumps(record["environment"]))
    for command, why in tally.failures.items():
        print(f"failed op: {command} -> {why}")
    for why in tally.wrong:
        print(f"WRONG OUTPUT: {why}")
    print(f"failed_frac = {tally.failed}/{tally.attempted} ops = "
          f"{record['failed_frac']:.6g} ({tally.executions} executions)"
          + (f"; worst |z| = {tally.worst_z:.2f}"
             if args.workload == "mc_validate" else ""))
    for k, v in metrics.items():
        raw = samples.raw.get(k)
        print(f"{k} = {v['value']:.6g} {v['unit']} (median of "
              f"{len(samples.values[k])}"
              + (f"; raw median {statistics.median(raw):.6g} s" if raw else "")
              + ")")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

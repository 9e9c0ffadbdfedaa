"""Guards for the benchmark tracer and checker, for which module imports
what, and for public functions that nothing in src/ calls."""

import ast
import importlib.util
import os
import pathlib
import platform
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fblrelay import baselines, cli, fading, montecarlo, relay

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_bench(name):
    """bench/<name>.py as a module, read from its path."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "bench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_tracer_installs_and_traces(capsys):
    # bench/tracer.py patches fblrelay's public functions and the CLI and
    # Monte Carlo thread pools by name, and its draw counters bind
    # parameters by name, so renaming either breaks --trace 1
    tracer_mod = _load_bench("tracer")
    commands = (["sweep", "--variable", "eta", "--grid-list", "0.2,0.4",
                 "--schemes", "relay_avg,relay_perfect,shannon_ergodic",
                 "--mc-samples", "100000", "--workers", "2"],
                ["validate", "--points", "1", "--mc-samples", "10000",
                 "--workers", "2", "--seed", "3"])
    plain = []
    for args in commands:
        assert cli.main(args) == 0
        plain.append(capsys.readouterr().out)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for args in commands:
            assert cli.main(args) == 0
            assert capsys.readouterr().out == plain.pop(0)
    finally:
        tracer.uninstall()
    totals, _ = tracer_mod.aggregate(tracer.spans, tracer.main_thread)
    assert totals["fbl.block_error"]["calls"] > 0
    # one ergodic estimate of 1e6 draws, two perfect-CSI points of 1e5,
    # and three 1e4-draw estimators that each draw one chunk
    draws = {name: totals[name]["draws"] for name in (
        "relay.bl_throughput_perfect_csi", "baselines.ergodic_capacity_relay",
        "montecarlo.draw_fading", "montecarlo.mc_expected_overall_error",
        "montecarlo.mc_bl_throughput", "montecarlo.mc_service_stats")}
    assert draws == {"relay.bl_throughput_perfect_csi": 200000,
                     "baselines.ergodic_capacity_relay": 1000000,
                     "montecarlo.draw_fading": 30000,
                     "montecarlo.mc_expected_overall_error": 10000,
                     "montecarlo.mc_bl_throughput": 10000,
                     "montecarlo.mc_service_stats": 10000}


@pytest.mark.parametrize("workload",
                         ["quad_study", "perfect_csi", "mc_validate"])
def test_benchmark_outputs_pass_the_checker(capsys, monkeypatch, workload):
    # the benchmark refuses a change whose output leaves the tolerances
    # of bench/refs; replay its commands at a stored seed in process
    for name in ("common", "workloads"):
        monkeypatch.setitem(sys.modules, name, _load_bench(name))
    check = _load_bench("check")
    workloads = sys.modules["workloads"]
    checker = check.Checker(workload, 42)
    for index, command in enumerate(workloads.WORKLOADS[workload]["commands"]):
        code = cli.main(workloads.argv(command, 42))
        out = capsys.readouterr().out
        assert checker.check(index, command, code, out) == ("ok", ""), command


def test_per_draw_solver_work_is_bounded(monkeypatch):
    # a count, not a timing, so it repeats exactly: the perfect-CSI solver
    # spends its time in Mills ratios, one pair per Halley step.  From the
    # fitted single-link start most draws of the reference scenario end
    # after one step: 2.05-2.31 per draw, against 4.0-4.8 from the
    # asymptotic start
    evals = []
    mills = relay._mills
    monkeypatch.setattr(relay, "_mills",
                        lambda r, c, s: (evals.append(r.size), mills(r, c, s))[1])
    z = np.random.default_rng(42).standard_exponential((3, 1 << 14))
    snr2 = z[1] * 307.405
    snr_mrc = z[0] * 2.4463 + z[2] * 307.405
    for m in (100, 500, 2000):
        evals.clear()
        relay._maximize_per_draw(snr2, snr_mrc, m)
        assert sum(evals) <= 3 * z.shape[1], m


def test_decode_events_run_the_kernel_on_few_draws(monkeypatch, capsys):
    # a count, not a timing: _successes decides a draw from its table of
    # the error and passes block_error only the table's knots and the
    # draws whose brackets leave them open.  On validate's 8 points at
    # seed 42 that is 0.08% of the 2n decisions, two thirds of it the
    # tables' knots; with both errors of every draw it was 100%
    elements, decisions, running = [], [], []
    successes, block_error = montecarlo._successes, montecarlo.block_error

    def counted_successes(r, m, gains, n, seed, workers):
        decisions.append(2 * n)
        running.append(True)
        try:
            return successes(r, m, gains, n, seed, workers)
        finally:
            running.pop()

    def counted_error(snr, r, m):
        if running:
            elements.append(np.size(snr))
        return block_error(snr, r, m)

    monkeypatch.setattr(montecarlo, "_successes", counted_successes)
    monkeypatch.setattr(montecarlo, "block_error", counted_error)
    assert cli.main(["validate", "--points", "8", "--seed", "42",
                     "--workers", "2"]) == 0
    capsys.readouterr()
    assert len(decisions) == 16
    assert sum(elements) <= 0.01 * sum(decisions)


def test_error_mean_runs_the_kernel_on_few_draws(monkeypatch, capsys):
    # a count, not a timing: mc_expected_overall_error settles a link's
    # error outside the kernel's band and passes block_error only the
    # draws inside it.  On validate's 8 points at seed 42 that was 9.5%
    # of the 2n link draws (2.4-19.7% per point); with both errors of
    # every draw it was 100%
    elements, draws, running = [], [], []
    estimator, block_error = (cli.mc_expected_overall_error,
                              montecarlo.block_error)

    def counted_estimator(r, m, gains, n, seed, workers):
        draws.append(2 * n)
        running.append(True)
        try:
            return estimator(r, m, gains, n=n, seed=seed, workers=workers)
        finally:
            running.pop()

    def counted_error(snr, r, m):
        if running:
            elements.append(np.size(snr))
        return block_error(snr, r, m)

    monkeypatch.setattr(cli, "mc_expected_overall_error", counted_estimator)
    monkeypatch.setattr(montecarlo, "block_error", counted_error)
    assert cli.main(["validate", "--points", "8", "--seed", "42",
                     "--workers", "2"]) == 0
    capsys.readouterr()
    assert len(draws) == 8
    assert sum(elements) <= 0.15 * sum(draws)


def test_decode_events_run_the_kernel_once_per_chunk(monkeypatch):
    # a count, not a timing: _successes runs block_error once for its
    # table and once per chunk, on both links' open draws together, not
    # once per tile or per link, where the kernel's fixed cost per call
    # would dominate its few open draws
    calls = []
    block_error = montecarlo.block_error
    monkeypatch.setattr(montecarlo, "block_error", lambda snr, r, m: (
        calls.append(np.size(snr)), block_error(snr, r, m))[1])
    gains = relay.LinkGains(g1=2.4463, g2=307.405, g3=307.405)
    n = 2 * montecarlo._CHUNK + 1000
    chunks = len(montecarlo._chunk_layout(n, 1)[0])
    for workers in (1, 2):
        calls.clear()
        montecarlo._successes(5.33969938461749, 500, gains, n, 1, workers)
        assert chunks == 3 and 0 < len(calls) <= 1 + chunks


def test_sweep_quadrature_work_is_batched(monkeypatch, capsys):
    # a count, not a timing: a 100-point relay_avg sweep runs each
    # quadrature round over all live points at once, in calls of at most
    # _SLICE nodes.  Point by point it made one error kernel call per
    # average per round, 400 in all; in 64-point blocks it makes 48
    calls, rounds = [], []
    error_at, eval_panels = fading._error_at, fading._eval_panels

    def counted_error(r, c, s):
        calls.append(np.size(c))
        return error_at(r, c, s)

    def counted_round(phi, lo, hi, counts, items):
        before = len(calls)
        out = eval_panels(phi, lo, hi, counts, items)
        rounds.append((lo.size * fading._legendre()[0].size,
                       len(calls) - before))
        return out

    monkeypatch.setattr(fading, "_error_at", counted_error)
    monkeypatch.setattr(fading, "_eval_panels", counted_round)
    assert cli.main(["sweep", "--variable", "eta", "--grid", "0.01", "0.6931",
                     "100"]) == 0
    capsys.readouterr()
    assert rounds and all(n == -(-nodes // fading._SLICE)
                          for nodes, n in rounds)
    assert max(calls) <= fading._SLICE
    assert len(calls) == sum(n for _, n in rounds) <= 50

@pytest.mark.parametrize("argv, name", [
    (["sweep", "--variable", "eta", "--grid", "0.01", "0.6931", "100",
      "--metrics", "bl_throughput,msdr"], "msdr"),
    (["compare", "--pair", "fbl_vs_outage"], "outage_prob_relay"),
])
def test_block_metrics_are_one_call_per_block(monkeypatch, capsys, argv,
                                              name):
    # a count, not a timing: msdr and the outage probability take a
    # block as arrays, and a sweep's block is its grid of 100 points
    calls = []
    fn = getattr(cli, name)

    def counted(*args):
        calls.append(np.shape(args[0]))
        return fn(*args)

    monkeypatch.setattr(cli, name, counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == [(100,)]

def test_per_draw_solver_runs_after_the_other_schemes(monkeypatch, capsys):
    # the solver leaves freed memory resident, so the ergodic estimate's
    # draws run before it, whatever the column order: after it, the
    # cold avg_vs_perfect compare peaked at 75 MB instead of 62 MB on a
    # 2-core x86-64 machine
    calls = []
    for name in ("bl_throughput_perfect_csi", "ergodic_capacity_relay"):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, fn=fn, name=name, **k: (
            calls.append(name), fn(*a, **k))[1])
    assert cli.main(["sweep", "--variable", "blocklength", "--grid-list",
                     "200", "--schemes", "relay_perfect,shannon_ergodic",
                     "--mc-samples", "100000"]) == 0
    capsys.readouterr()
    assert calls == ["ergodic_capacity_relay", "bl_throughput_perfect_csi"]

def test_per_draw_solver_needs_the_steps_its_guard_states(monkeypatch):
    # the _MAX_STEPS comment names the most steps a draw of the totality
    # grid takes; capped there, every draw must end where it ends uncapped
    source = (ROOT / "src" / "fblrelay" / "relay.py").read_text(encoding="utf-8")
    steps = int(re.search(r"_MAX_STEPS = \d+ +# guard only: (\d+) Halley steps",
                          source).group(1))
    rng = np.random.default_rng(7)
    z = rng.standard_exponential((3, 200))
    for m in (100, 1e4, 1e7):
        for mean_snr in (1e-8, 1e-3, 1.0, 1e3, 1e8):
            snr2 = z[1] * mean_snr
            snr_mrc = (0.01 * z[0] + z[2]) * mean_snr
            free = relay._maximize_per_draw(snr2, snr_mrc, m)[0]
            monkeypatch.setattr(relay, "_MAX_STEPS", steps)
            capped = relay._maximize_per_draw(snr2, snr_mrc, m)[0]
            monkeypatch.undo()
            assert np.array_equal(capped, free), (m, mean_snr)


def _traced_peak(fn):
    """Peak bytes that tracemalloc sees during a second call of fn."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

# one float array over a slice of the samplers: 2^15 draws, 0.26 MB
_SLICE_BYTES = montecarlo._SLICE * 8


@pytest.mark.parametrize("estimator", [montecarlo.mc_expected_overall_error,
                                       montecarlo.mc_bl_throughput])
def test_chunk_estimator_works_in_its_draw_buffer(estimator):
    # a chunk draws, maps and settles one (3, 2^15) tile at a time, and
    # keeps only its k values, 2.10 MB, or its two rows of k decisions,
    # 0.52 MB, besides one tile's temporaries.  On a 2-core x86-64
    # machine the estimators traced 3.75 MB and 2.14 MB; holding their
    # (3, 2^18) draws they traced 7.16 MB and 7.93 MB.  So the allowance
    # is k floats and 8 slice-sized arrays (the tile takes 3), 4.19 MB
    gains = relay.LinkGains(g1=2.4463, g2=307.405, g3=307.405)
    k = montecarlo._CHUNK
    peak = _traced_peak(lambda: estimator(5.33969938461749, 500, gains,
                                          n=k, seed=1, workers=1))
    assert peak <= k * 8 + 8 * _SLICE_BYTES

def test_quadrature_memory_is_bounded_by_its_batch():
    # the engine integrates 64 items at a time, whatever the batch, and
    # each item's value is what it is alone.  3000 rates of both averages
    # in one batch traced 80.1 MB on a 2-core x86-64 machine, 3.3 MB in
    # batches of 64
    gains = relay.LinkGains(g1=2.4463, g2=307.405, g3=307.405)
    r = np.linspace(0.0, 8.0, 3000)
    averages = (lambda r: fading.expected_error_single(r, 500.0, gains.g2),
                lambda r: fading.expected_error_mrc(r, 500.0, gains))
    assert _traced_peak(lambda: [f(r) for f in averages]) <= 16e6
    for f in averages:
        in_64 = [f(r[i:i + 64]) for i in range(0, r.size, 64)]
        assert np.array_equal(f(r), np.concatenate(in_64))

def test_sample_mean_works_in_its_draw_buffer():
    # 1e6 draws are a 24 MB buffer; the values overwrite its first row and
    # their deviations the values.  The ergodic estimate traced 25.31 MB
    # on a 2-core x86-64 machine, 1.31 MB over the buffer (40.00 MB when
    # the values and np.std's deviations had arrays of their own), so the
    # allowance is 8 slice-sized arrays, 2.10 MB
    gains = relay.LinkGains(g1=2.4463, g2=307.405, g3=307.405)
    n = 1000000
    peak = _traced_peak(lambda: baselines.ergodic_capacity_relay(gains, n, 1))
    assert peak <= 3 * n * 8 + 8 * _SLICE_BYTES


def _imports(path):
    """Every module name imported by one source file, relative ones bare."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_no_runtime_module_imports_scipy():
    # scipy.special took half of every command's cold start; fbl's numpy
    # kernel replaced it, and scipy stays a test and benchmark dependency
    importers = {path.name for path in (ROOT / "src" / "fblrelay").glob("*.py")
                 if any(name.split(".")[0] == "scipy"
                        for name in _imports(path))}
    assert importers == set()


# BLAS and LAPACK pick their kernels by CPU, and each kernel sums in
# its own order, so a product through them gives other bits elsewhere
_BLAS_NAMES = {"@", "dot", "matmul", "inner", "vdot", "tensordot", "einsum",
               "linalg", "vecdot", "matvec", "vecmat", "polynomial"}


def _blas_uses(path):
    """(top-level name, used name) of each product or LAPACK route in a file."""
    found = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            names = set()
            if isinstance(getattr(node, "op", None), ast.MatMult):
                names = {"@"}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for alias in node.names
                         for part in alias.name.split(".")}
                names.update((getattr(node, "module", None) or "").split("."))
            found.update((owner, name) for name in names & _BLAS_NAMES)
    return found


def test_no_runtime_module_calls_blas():
    # a matrix product or dot product goes through BLAS, whose kernel the
    # CPU selects, so stdout would differ by machine.  The one exception,
    # _legendre's one-time leggauss(16), takes its eigenvalues from LAPACK
    # and refines them with one Newton step: its nodes and weights were
    # the same bytes under the default, Haswell, Sandybridge, Nehalem and
    # Prescott OpenBLAS kernels
    found = {(path.name, *use)
             for path in (ROOT / "src" / "fblrelay").glob("*.py")
             for use in _blas_uses(path)}
    assert found <= {("fading.py", "_legendre", "polynomial")}


def _openblas_on_x86():
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    return platform.machine() in ("x86_64", "AMD64") and "openblas" in blas


@pytest.mark.skipif(not _openblas_on_x86(),
                    reason="OPENBLAS_CORETYPE selects x86 OpenBLAS kernels")
def test_stdout_does_not_depend_on_the_blas_kernel():
    # the same command under three OpenBLAS kernels prints one stdout
    argv = ["sweep", "--variable", "eta", "--grid", "0.01", "0.6931", "20",
            "--schemes", "relay_avg,direct_matched",
            "--metrics", "bl_throughput,expected_error"]
    outs = set()
    for core in (None, "Nehalem", "Sandybridge"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_CORETYPE", None)
        if core:
            env["OPENBLAS_CORETYPE"] = core
        outs.add(subprocess.run([sys.executable, "-m", "fblrelay.cli", *argv],
                                env=env, check=True, capture_output=True,
                                text=True).stdout)
    assert len(outs) == 1


def test_cli_import_loads_no_scipy_module():
    # the static check above misses an import made through another package
    code = ("import sys, fblrelay.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_montecarlo_sits_below_the_schemes():
    # relay and baselines draw their samples through montecarlo, so an
    # import the other way would be a cycle
    names = _imports(ROOT / "src" / "fblrelay" / "montecarlo.py")
    assert not names & {"relay", "baselines", "cli", "fblrelay.relay",
                        "fblrelay.baselines", "fblrelay.cli"}


def test_montecarlo_imports_only_fbl_from_the_package():
    # montecarlo owns the map from fading draws to link SNRs, and fading
    # is quadrature and closed forms: the sampling layer rests on the
    # kernel alone
    modules = {path.stem for path in (ROOT / "src" / "fblrelay").glob("*.py")}
    names = {name.removeprefix("fblrelay.") for name in
             _imports(ROOT / "src" / "fblrelay" / "montecarlo.py")}
    assert names & modules == {"fbl"}


def test_only_band_bisects_the_error_band():
    # montecarlo._band is the one definition of the error's band: the
    # screen's table and the error mean take its edges instead of
    # bisecting them again
    callers = set()
    for path in sorted((ROOT / "src" / "fblrelay").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(isinstance(node, ast.Call)
                   and "_log_snr_at" in (getattr(node.func, "id", None),
                                         getattr(node.func, "attr", None))
                   for node in ast.walk(stmt)):
                callers.add(getattr(stmt, "name",
                                    f"{path.name}:{stmt.lineno}"))
    assert callers == {"_band"}


def test_only_scenario_applies_the_link_budget():
    # scenario.build turns transmit and noise power into mean SNRs; every
    # other module sees a link only through its mean SNR
    found = []
    for path in sorted((ROOT / "src" / "fblrelay").glob("*.py")):
        if path.name == "scenario.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, (ast.arg, ast.keyword)):
                name = node.arg
            else:
                continue
            if name in ("p_tx", "sigma2"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# public functions with no caller in src/, each kept for a documented use
UNCALLED_PUBLIC = {
    "q_func": "the Gaussian tail whose round trip with q_inv README "
              "guarantees",
    "save_scenario": "README's writer of scenario files",
}


def test_every_public_function_has_a_caller_in_src():
    # a function that only tests call is a test helper in src/: a private
    # one moves into tests/, and a public one needs a documented use
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "fblrelay").glob("*.py"))]

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    uncalled = set()
    for tree in trees:
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            # every top-level statement of src/ but the function itself
            if not any(name == fn.name for other in trees
                       for stmt in other.body if stmt is not fn
                       for name in names(stmt)):
                uncalled.add(fn.name)
    assert uncalled == set(UNCALLED_PUBLIC)

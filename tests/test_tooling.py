"""Guards for the benchmark tracer and for which module imports what."""

import ast
import importlib.util
import pathlib

from fblrelay import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_benchmark_tracer_installs_and_traces(capsys):
    # bench/tracer.py patches fblrelay's public functions and the CLI and
    # Monte Carlo thread pools by name, so renaming one breaks --trace 1
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", ROOT / "bench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    args = ["sweep", "--variable", "eta", "--grid-list", "0.2,0.4",
            "--schemes", "relay_avg,relay_perfect", "--mc-samples", "100000",
            "--workers", "2"]
    assert cli.main(args) == 0
    plain = capsys.readouterr().out
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert cli.main(args) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    names = {span[2] for span in tracer.spans}
    assert {"fbl.block_error", "relay.bl_throughput_perfect_csi"} <= names


def _imports(path):
    """Every module name imported by one source file, relative ones bare."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
    return names


def test_only_fbl_imports_scipy():
    importers = {path.name for path in (ROOT / "src" / "fblrelay").glob("*.py")
                 if any(name.split(".")[0] == "scipy"
                        for name in _imports(path))}
    assert importers == {"fbl.py"}


def test_montecarlo_sits_below_the_schemes():
    # relay and baselines draw their samples through montecarlo, so an
    # import the other way would be a cycle
    names = _imports(ROOT / "src" / "fblrelay" / "montecarlo.py")
    assert not names & {"relay", "baselines", "cli", "fblrelay.relay",
                        "fblrelay.baselines", "fblrelay.cli"}

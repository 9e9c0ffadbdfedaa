"""The README's Library example and its fblrelay commands."""

import re
import shlex
from pathlib import Path
from unittest import mock

import pytest

from fblrelay import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_matches_its_comments():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    commented = re.findall(r"^(\w+) = .*#\s*([0-9.]+)", block, re.MULTILINE)
    assert [name for name, _ in commented] == ["r", "err", "thr", "sus"]
    for name, value in commented:
        # the comments carry four decimals
        assert namespace[name] == pytest.approx(float(value), abs=5e-5), name


def _readme_commands():
    """Every fblrelay command of README: code-block lines and table cells."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    lines = [line for block in blocks
             for line in block.replace("\\\n", " ").splitlines()]
    lines += [cell for line in text.splitlines() if line.startswith("|")
              for cell in re.findall(r"`(fblrelay [^`]*)`", line)]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("fblrelay ")]


class _Built(Exception):
    """Raised in place of build: the command passed every flag check."""


def test_every_readme_command_passes_the_flag_checks(capsys):
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"sweep", "optimize", "compare",
                                             "validate"}
    failed = []
    with mock.patch.object(cli, "build", side_effect=_Built):
        for argv in commands:
            if argv[0] == "validate":
                # the battery never builds a scenario: parsing is its check
                cli._build_parser().parse_args(argv)
                continue
            try:
                code = cli.main(argv)
            except _Built:
                continue
            failed.append((argv, code, capsys.readouterr().err))
    assert failed == []

"""The README's Library example runs and prints what its comments say."""

import re
from pathlib import Path

import pytest

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

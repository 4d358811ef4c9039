"""The README examples run and print what the README says they print."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from twodescent.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_block_prints_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    expected = [
        line.split("#", 1)[1].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def test_readme_cli_block_prints_its_lines():
    blocks = re.findall(r"```\n\$ twodescent (.*?)\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    argv, expected = blocks[0]
    assert argv == "descent --a2 0 --a4 17"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(shlex.split(argv)) == 0
    assert out.getvalue().splitlines() == expected.splitlines()

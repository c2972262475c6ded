"""Every `$ echo '...' | trilink X` example in README.md, run through cli.main.

The line after each example is its expected stdout.  Where the README
elides part of it with `…`, the elided part may be any text.
"""

import io
import re
import shlex
from pathlib import Path

import pytest

from trilink import cli

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = re.compile(r"^\$ echo '(?P<stdin>[^']*)' \| trilink (?P<argv>.+)\n(?P<out>.+)$", re.M)
EXAMPLES = [m.groupdict() for m in EXAMPLE.finditer(README.read_text(encoding="utf-8"))]


def test_readme_has_echo_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("example", EXAMPLES, ids=[e["argv"] for e in EXAMPLES])
def test_readme_example(capsys, monkeypatch, example):
    monkeypatch.delenv(cli.ENV_DEGREE_CAP, raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(example["stdin"] + "\n"))
    code = cli.main(shlex.split(example["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    pattern = ".*".join(re.escape(part) for part in example["out"].split("…"))
    assert re.fullmatch(pattern + "\n", out), out

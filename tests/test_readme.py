"""The README's examples: every `$ echo '...' | trilink X` line, run
through cli.main, and the "Library quick tour" Python block, executed.

The line after each command example is its expected stdout.  Where the
README elides part of it with `…`, the elided part may be any text.
When a `trilink` console script is on PATH, each command line also runs
through the shell against it, as a user would type it.
"""

import io
import os
import re
import shlex
import shutil
import subprocess
from pathlib import Path

import pytest

from trilink import cli

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLE = re.compile(r"^\$ echo '(?P<stdin>[^']*)' \| trilink (?P<argv>.+)\n(?P<out>.+)$", re.M)
TEXT = README.read_text(encoding="utf-8")
EXAMPLES = [m.groupdict() for m in EXAMPLE.finditer(TEXT)]
TOUR = re.search(r"^## Library quick tour\n\n```python\n(?P<code>.*?)^```$", TEXT, re.M | re.S)


def expected_stdout(example) -> re.Pattern:
    return re.compile(".*".join(re.escape(part) for part in example["out"].split("…")) + "\n")


def test_readme_has_echo_examples():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("example", EXAMPLES, ids=[e["argv"] for e in EXAMPLES])
def test_readme_example(capsys, monkeypatch, example):
    monkeypatch.delenv(cli.ENV_DEGREE_CAP, raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(example["stdin"] + "\n"))
    code = cli.main(shlex.split(example["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    assert expected_stdout(example).fullmatch(out), out


@pytest.mark.skipif(shutil.which("trilink") is None, reason="no trilink console script on PATH")
@pytest.mark.parametrize("example", EXAMPLES, ids=[e["argv"] for e in EXAMPLES])
def test_readme_example_console_script(example):
    env = {k: v for k, v in os.environ.items() if k != cli.ENV_DEGREE_CAP}
    command = f"echo '{example['stdin']}' | trilink {example['argv']}"
    got = subprocess.run(command, shell=True, capture_output=True, text=True, env=env)
    assert (got.returncode, got.stderr) == (0, "")
    assert expected_stdout(example).fullmatch(got.stdout), got.stdout


def test_readme_library_tour_runs():
    assert TOUR is not None
    exec(compile(TOUR["code"], "README.md (Library quick tour)", "exec"), {})

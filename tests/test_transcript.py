"""Replay the frozen CLI transcript: same exit code and the same stdout bytes.

The transcript (tests/data/cli_transcript.json, written by
tests/freeze_transcript.py) covers all nine subcommands, text output,
--show-series, big-integer strings and exits 2, 3 and 4.
"""

import json
import re
from pathlib import Path

import pytest

from freeze_transcript import OUT, replay

ENTRIES = json.loads(Path(OUT).read_text(encoding="utf-8"))
SUBCOMMANDS = {"mu", "depth", "class", "generator", "metabolizer", "enumerate", "infect",
               "genus-one", "ledger"}


def test_transcript_covers_the_cli():
    assert {e["argv"][0] for e in ENTRIES if e["argv"]} >= SUBCOMMANDS
    assert {e["exit"] for e in ENTRIES} == {0, 2, 3, 4}
    assert any("--show-series" in e["argv"] for e in ENTRIES)
    assert any("text" in e["argv"] for e in ENTRIES)
    assert any(re.search(r'": "-?[0-9]{16,}"', e["stdout"]) for e in ENTRIES)  # 2**53 and up


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{i}-{' '.join(e['argv'])}"
                                                for i, e in enumerate(ENTRIES)])
def test_transcript_replays(entry):
    assert replay(entry) == (entry["exit"], entry["stdout"], "")

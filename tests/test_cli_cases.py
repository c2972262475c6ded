"""CLI cases whose inputs are built by code or whose reply is checked by a
predicate, run through cli.main, each within SECONDS.

When a `trilink` console script is on PATH, these cases and every entry of
the frozen transcript (tests/data/cli_transcript.json) without a patch
also run through it, as a user would call it: the same exit code, the
same stdout and an empty stderr.  Exact cases belong in the transcript's
request list (tests/freeze_transcript.py); a case here is one that would
add more than a few kB to it or that checks part of a reply.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import trilink
from freeze_transcript import OUT, replay
from helpers import UNKNOT_ROWS, unknot_sum_rows

SECONDS = 10  # each case's bound, in process and through the console script
TRILINK = shutil.which("trilink")
ENTRIES = json.loads(OUT.read_text(encoding="utf-8"))

BLOCKED_UNKNOT = [[int(j == i + 3) for j in range(6)] for i in range(3)] + [[0] * 6] * 3
PARAMS_158 = dict(zip(("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2"), range(2, 11)))
WEIGHT3 = "x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1"


def _word(*parts) -> str:
    return " ".join(token for part in parts for token in part)


def _commutator_3000() -> str:
    """[x1^3000, x2^3000], 12,000 letters."""
    return _word(["x1"] * 3000, ["x2"] * 3000, ["x1^-1"] * 3000, ["x2^-1"] * 3000)


def _cancelling() -> str:
    """12,000 letters that cancel to the empty word, in one cascade from the middle."""
    half = [f"x{1 + i % 3}" for i in range(6000)]
    return _word(half, [t + "^-1" for t in reversed(half)])


def _malformed() -> str:
    """A 10,000-letter word whose letter 5,001 is the malformed token x2^-2."""
    letters = ["x1", "x2", "x1^-1", "x2^-1"] * 2500
    letters[5001] = "x2^-2"
    return _word(letters)


def _conjugated_edge() -> str:
    """The MAX_DEPTH_WORK edge at kmax 4: [[x1, x2], x3]^990 conjugated by
    x4 ... x40, 9,974 letters."""
    conj = [f"x{i}" for i in range(4, 41)]
    return _word(conj, [WEIGHT3] * 990, [g + "^-1" for g in reversed(conj)])


def _wide() -> str:
    """x1 ... x256 x1^-1 ... x256^-1 repeated 127 times, 65,024 letters: the
    reducer over 512 codes (more than one byte each) and degree 2 on the
    packed levels."""
    half = [f"x{i}" for i in range(1, 257)]
    return _word((half + [t + "^-1" for t in half]) * 127)


def _reply(pred):
    """A check that stdout is one JSON line whose value meets pred."""
    def check(out: str) -> bool:
        lines = out.splitlines()
        return len(lines) == 1 and pred(json.loads(lines[0]))
    return check


def _genus_one_1000_digits(r) -> bool:
    # genus-one computes only the corner entry and writes the other three from
    # their proofs, and (z, w) pairs with (x, y) to 1
    e = -int("3" * 1000)
    (_, b), (c, d) = r["new_matrix"]["entries"]
    x, y, z, w = (int(r[k]) for k in "xyzw")
    return (b, c, d) == (str(1 - e), str(-e), 0) and z * y - w * x == 1


def _enumerate(entries, bound, count, ordering="interleaved"):
    return (["enumerate"], {"matrix": {"genus": len(entries) // 2, "ordering": ordering,
                                       "entries": entries}, "bound": bound},
            0, _reply(lambda r: r["count"] == count))


def _case(case_id, argv, payload, code, check, env=None) -> dict:
    case = {"id": case_id, "argv": argv, "exit": code, "check": check,
            "stdin": payload if isinstance(payload, str) else json.dumps(payload)}
    if env:
        case["env"] = env
    return case


CASES = [
    _case("enumerate-genus-1", *_enumerate([[0, 1], [0, 0]], 1, 2)),
    # the widest packed box scan: 125 slots per half at the box limit
    _case("enumerate-genus-1-bound-62", *_enumerate([[0, 1], [0, 0]], 62, 2)),
    # the genus-2 unknot at its box cap: 2 of its 320 candidates have a zero top half
    _case("enumerate-genus-2-bound-5", *_enumerate(unknot_sum_rows(2), 5, 42)),
    # tests/data/enumerate_unknot_genus3_bound2.json, then the same surface in
    # blocked ordering: the adjacency applies J by the ordering's curve pairs
    _case("enumerate-unknot-bound-2", *_enumerate(UNKNOT_ROWS, 2, 100)),
    _case("enumerate-blocked-unknot-bound-2", *_enumerate(BLOCKED_UNKNOT, 2, 100, "blocked")),
    # the unknot-like surface a = b = c = 1 of the metabolizer-search benchmark
    _case("enumerate-unknot-bound-1", *_enumerate(UNKNOT_ROWS, 1, 28)),
    # mu and class read degree 2 off the word's codes, by position sums
    _case("mu-commutator-12000", ["mu"], {"longitude3": _commutator_3000()}, 0,
          _reply(lambda r: r["mu123"] == 9_000_000)),
    _case("class-commutator-12000", ["class"], {"word": _commutator_3000()}, 0,
          _reply(lambda r: r["class"] == [9_000_000, 0, 0])),
    _case("class-cancelling-12000", ["class"], {"word": _cancelling()}, 0,
          _reply(lambda r: r["class"] == [0, 0, 0])),
    _case("mu-malformed-letter-5001", ["mu"], {"longitude3": _malformed()}, 2,
          _reply(lambda r: r["error"] == "bad-input" and "x2^-2" in r["detail"])),
    _case("depth-max-depth-work-edge", ["depth"],
          {"rank": 40, "kmax": 4, "word": _conjugated_edge()}, 0,
          _reply(lambda r: r == {"depth": 3})),
    _case("depth-65024-letters", ["depth"], {"rank": 256, "kmax": 3, "word": _wide()}, 0,
          _reply(lambda r: r == {"depth": 2})),
    # the series at the highest degree cap: ([x1, x2] [[x1, x2], x3])^364, 5,096 letters
    _case("mu-series-cap-8", ["mu", "--show-series"],
          {"longitude3": _word([f"x1 x2 x1^-1 x2^-1 {WEIGHT3}"] * 364)}, 0,
          _reply(lambda r: (r["degree_cap"], r["mu123"]) == (8, 364)),
          env={"TRILINK_DEGREE_CAP": "8"}),
    # 1,000-digit d and e sent as decimal strings
    _case("genus-one-1000-digits", ["genus-one"], {"d": "7" * 1000, "e": "-" + "3" * 1000},
          0, _reply(_genus_one_1000_digits)),
    # a negative pass count; the generator of (2, ..., 10) is 1*2*3 - 24 + 30 + 56 + 90 = 158
    _case("ledger-n-minus-3", ["ledger"], {"params": PARAMS_158, "n": -3}, 0,
          _reply(lambda r: r["total"] == -3 * 158)),
    _case("help", ["--help"], "", 0, lambda out: out.startswith("usage: trilink")),
    _case("enumerate-help", ["enumerate", "--help"], "", 0,
          lambda out: out.startswith("usage: trilink enumerate")),
    _case("generator-help", ["generator", "--help"], "", 0,
          lambda out: out.startswith("usage: trilink generator")),
]


def assert_reply(case: dict, code: int, out: str, err: str) -> None:
    """The case's exit code and empty stderr, and its exact stdout or its check."""
    assert (code, err) == (case["exit"], "")
    if "stdout" in case:
        assert out == case["stdout"]
    else:
        assert case["check"](out), out[:500]


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_cli_case(case):
    start = time.perf_counter()
    got = replay(case)
    assert time.perf_counter() - start < SECONDS
    assert_reply(case, *got)


def test_module_entry_point():
    # python -m trilink.cli, as the cli-cold benchmark workload runs it
    src = str(Path(trilink.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "TRILINK_DEGREE_CAP"}
    got = subprocess.run([sys.executable, "-m", "trilink.cli", "genus-one"],
                         input='{"d": 0, "e": 0}', capture_output=True, text=True,
                         env=env | {"PYTHONPATH": src}, timeout=SECONDS)
    assert (got.returncode, got.stderr) == (0, "")
    r = json.loads(got.stdout)
    assert (r["n"], r["x"], r["y"], r["z"], r["w"]) == (1, -1, 0, 0, 1)


SCRIPT_CASES = [dict(e, id=f"transcript-{i}-{' '.join(e['argv'])}")
                for i, e in enumerate(ENTRIES) if "patch" not in e] + CASES


@pytest.mark.skipif(TRILINK is None, reason="no trilink console script on PATH")
@pytest.mark.parametrize("case", SCRIPT_CASES, ids=[c["id"] for c in SCRIPT_CASES])
def test_console_script(case):
    env = {k: v for k, v in os.environ.items() if k != "TRILINK_DEGREE_CAP"}
    got = subprocess.run([TRILINK, *case["argv"]], input=case["stdin"], capture_output=True,
                         text=True, env=env | case.get("env", {}), timeout=SECONDS)
    assert_reply(case, got.returncode, got.stdout, got.stderr)

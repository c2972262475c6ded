"""Freeze the CLI transcript replayed by tests/test_transcript.py.

Each entry is one request through `trilink.cli.main`: argv, stdin text,
optional environment variables, an optional patch that makes a
cross-check fail, and the exit code and exact stdout it produced.  The
file pins the CLI's bytes, so rebuild it only for an intended change of
output:

    PYTHONPATH=src python tests/freeze_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

from helpers import UNKNOT_ROWS as UNKNOT, spread_word, unknot_sum_rows

OUT = Path(__file__).resolve().parent / "data" / "cli_transcript.json"

STANDARD = [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]
DEPENDENT = [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 1, 0, 0]]  # b1, b2, b1 + b2
BIG = 2**60


def _params_matrix(a, b, c, x1, x2, y1, y2, z1, z2):
    return [[0, a, 0, x1, 0, y1], [a - 1, 0, x2, 0, y2, 0], [0, x2, 0, b, 0, z1],
            [x1, 0, b - 1, 0, z2, 0], [0, y2, 0, z2, 0, c], [y1, 0, z1, 0, c - 1, 0]]


def _matrix(entries, ordering="interleaved"):
    return {"genus": len(entries) // 2, "ordering": ordering, "entries": entries}


def _params(*values):
    return dict(zip(("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2"), values))


def _requests():
    """(argv, payload or raw stdin text, env, patch) per entry."""
    comm = "x1 x2 x1^-1 x2^-1"
    weight3 = "x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1"
    weight4 = ("x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1 x1 x3 x1 x2 x1^-1 x2^-1 "
               "x3^-1 x2 x1 x2^-1 x1^-1 x1^-1")
    conj = " ".join(f"x{i}" for i in range(4, 24))
    conj_inv = " ".join(f"x{i}^-1" for i in range(23, 3, -1))
    g2 = [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, -1, 2], [0, 0, 1, 0]]
    gen = _params_matrix(2, 3, 4, 5, 6, 7, 8, 9, 10)
    big_gen = _params_matrix(BIG, 3, -BIG, 5, 6, 7, 8, 9, 10)
    banded = {"mu_J": 3, "alpha": [[1, 2, 0], [0, 1, 3], [2, 0, 1]],
              "beta": [[0, 1, 1], [1, 0, 0], [0, 2, 0]], "mu_L": 4}
    return [
        (["mu"], {"rank": 3, "longitude3": comm}, None, None),
        (["mu"], {"longitude3": weight3 + " " + comm + " " + comm}, None, None),
        (["mu", "--show-series"], {"longitude3": comm}, None, None),
        (["mu", "--show-series"], {"longitude3": weight3}, {"TRILINK_DEGREE_CAP": "5"}, None),
        (["mu", "--output", "text"], {"longitude3": comm}, None, None),
        (["mu"], {"longitude3": "x1 x2"}, None, None),
        (["mu"], {"longitude3": "x1 x1^-1 x3"}, None, None),
        (["mu"], {"rank": 4, "longitude3": comm}, None, None),
        (["mu"], {"longitude3": "x1 y2"}, None, None),
        (["mu", "--show-series"], {"longitude3": comm}, {"TRILINK_DEGREE_CAP": "9"}, None),
        (["depth"], {"rank": 3, "word": comm, "kmax": 3}, None, None),
        (["depth"], {"rank": 3, "word": weight4, "kmax": 6}, None, None),
        (["depth"], {"rank": 3, "word": "x1 x2", "kmax": 8}, None, None),
        (["depth"], {"rank": 5, "word": "", "kmax": 5}, None, None),
        (["depth"], {"rank": 3, "word": comm, "kmax": 9}, None, None),
        (["depth"], {"rank": 3, "word": comm, "kmax": 0}, None, None),
        (["depth"], {"rank": 200, "word": str(spread_word(200)), "kmax": 3}, None, None),
        (["depth"], {"rank": 23, "word": f"{conj} {weight3} {conj_inv}", "kmax": 4},
         None, None),
        (["class"], {"word": "x2 x3 x2^-1 x3^-1"}, None, None),
        (["class", "--output", "text"], {"word": weight3 + " " + comm}, None, None),
        (["class"], {"word": "x3"}, None, None),
        (["generator", "--seed", "11"], {"matrix": _matrix(UNKNOT),
                                         "metabolizer": {"columns": STANDARD}}, None, None),
        (["generator"], {"matrix": _matrix(gen), "metabolizer": {"columns": STANDARD}},
         None, None),
        (["generator", "--seed", "3"], {"matrix": _matrix(big_gen),
                                        "metabolizer": {"columns": STANDARD}}, None, None),
        (["generator"], {"matrix": _matrix(UNKNOT), "metabolizer": {
            "columns": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]}},
         None, None),
        (["generator"], {"matrix": dict(_matrix(UNKNOT), genus=2),
                         "metabolizer": {"columns": STANDARD}}, None, None),
        (["metabolizer"], {"matrix": _matrix(gen), "metabolizer": {"columns": STANDARD}},
         None, None),
        (["metabolizer"], {"matrix": _matrix(UNKNOT), "metabolizer": {
            "columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 2]]}},
         None, None),
        (["metabolizer", "--output", "text"], {"matrix": _matrix(UNKNOT), "metabolizer": {
            "columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 0, 0]]}},
         None, None),
        (["metabolizer"], {"matrix": _matrix(g2), "metabolizer": {
            "columns": [[0, 1, 0, 0], [0, 0, 1, 1]]}}, None, None),
        (["metabolizer"], {"matrix": _matrix(unknot_sum_rows(5)), "metabolizer": {
            "columns": [[(3 * i + 5 * j) % 7 - 3 for i in range(10)] for j in range(5)]}},
         None, None),
        (["enumerate"], {"matrix": _matrix([[0, 1], [0, 0]]), "bound": 2}, None, None),
        (["enumerate"], {"matrix": _matrix(g2), "bound": 1}, None, None),
        (["enumerate"], {"matrix": _matrix(UNKNOT), "bound": 3}, None, None),
        (["infect"], {"mu_J": 2, "N": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "mu_L": -5},
         None, None),
        (["infect"], {"mu_J": "123456789012345678901234567890",
                      "N": [[1, 2, 3], [4, 5, 7], [2, -1, 9]], "mu_L": 1}, None, None),
        (["infect"], banded, None, None),
        (["infect"], banded, None, ["trilink.infection", "band_sum_expansion", 10**9]),
        (["infect"], {"mu_J": 1, "mu_L": 0}, None, None),
        (["genus-one"], {"d": 2, "e": 1}, None, None),
        (["genus-one", "--output", "text"], {"d": 7, "e": -3}, None, None),
        (["genus-one"], {"d": 0, "e": 5}, None, None),
        (["genus-one"], {"d": 12, "e": 4}, None, None),
        (["genus-one"], {"d": -30, "e": 8}, None, None),
        (["genus-one"], {"d": "-98765432109876543210", "e": "12345678901234567891"},
         None, None),
        (["genus-one"], {"d": "1_000", "e": 1}, None, None),
        (["ledger"], {"params": _params(2, 3, 4, 5, 6, 7, 8, 9, 10), "n": 2}, None, None),
        (["ledger", "--output", "text"], {"params": _params(1, -2, 3, 0, 4, -5, 1, 2, -1),
                                          "n": -3}, None, None),
        (["ledger"], {"params": _params(str(10**20), 10**20, 1, 0, 0, 0, 0, 0, 0), "n": 1},
         None, None),
        (["ledger"], {"params": {"b": 1, "x1": 0}, "n": 1}, None, None),
        (["ledger"], {"params": dict(_params(*range(9)), z2=None), "n": 1}, None, None),
        (["mu"], "{not json", None, None),
        (["mu"], "[1, 2]", None, None),
        ([], "{}", None, None),
        (["mu", "--bogus"], "{}", None, None),
        (["generator", "--seed", "abc"], "{}", None, None),
        (["mu", "--input", "no-such-transcript-input.json"], "", None, None),
        # x3 is met before x1, so the codes number the generators out of index order;
        # phi maps each code back to its generator, and the series text sorts
        (["class"], {"word": "x3 x1 x3^-1 x1^-1"}, None, None),
        (["mu", "--show-series"], {"longitude3": "x3 x1 x3^-1 x1^-1"}, None, None),
        # x3 cancels out entirely, or a pair cancels before x3 x1: the codes
        # number the generators left, in order of first appearance
        (["depth"], {"rank": 3, "kmax": 3, "word": "x2 x3 x3^-1 x1 x2^-1 x1^-1"}, None, None),
        (["class"], {"word": "x2 x2^-1 x3 x1 x3^-1 x1^-1"}, None, None),
        # the exponent sums are checked in index order, though x3 comes first
        (["mu"], {"longitude3": "x3 x1 x2"}, None, None),
        (["genus-one"], {"d": 0, "e": 0}, None, None),  # the y = 0 Bezout branch
        # the b-curves b1, b1 + b2, 2 b2 - b3 of the 158 matrix (a det -1 re-basing)
        # keep 158, sign included; an index-2 basis and a dependent one are refused
        (["generator", "--seed", "7"], {"matrix": _matrix(gen), "metabolizer": {
            "columns": [[0, 1, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0], [0, 0, 0, 2, 0, -1]]}},
         None, None),
        (["generator"], {"matrix": _matrix(gen), "metabolizer": {
            "columns": [[0, 2, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]}},
         None, None),
        (["generator"], {"matrix": _matrix(gen), "metabolizer": {"columns": DEPENDENT}},
         None, None),
        # the verdict on a zero column, an index-3 basis and a dependent one
        (["metabolizer"], {"matrix": _matrix(UNKNOT), "metabolizer": {
            "columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0]]}},
         None, None),
        (["metabolizer"], {"matrix": _matrix(UNKNOT), "metabolizer": {
            "columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 3]]}},
         None, None),
        (["metabolizer"], {"matrix": _matrix(gen), "metabolizer": {"columns": DEPENDENT}},
         None, None),
    ]


def request_entries() -> list[dict]:
    """_requests() as the transcript stores them, without exit code and stdout."""
    entries = []
    for argv, payload, env, patch in _requests():
        entry = {"argv": argv,
                 "stdin": payload if isinstance(payload, str) else json.dumps(payload)}
        if env:
            entry["env"] = env
        if patch:
            entry["patch"] = list(patch)
        entries.append(entry)
    return entries


def replay(entry: dict) -> tuple[int, str, str]:
    """Run one entry through cli.main; returns (exit code, stdout, stderr)."""
    from trilink import cli

    env = {k: v for k, v in os.environ.items() if k != "TRILINK_DEGREE_CAP"}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.dict(os.environ, env | entry.get("env", {}), clear=True))
        stack.enter_context(mock.patch("sys.stdin", io.StringIO(entry["stdin"])))
        if "patch" in entry:
            module, name, value = entry["patch"]
            stack.enter_context(mock.patch(f"{module}.{name}", lambda *args: value))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        code = cli.main(entry["argv"])
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    entries = request_entries()
    for entry in entries:
        code, out, err = replay(entry)
        assert err == "", err
        entry["exit"], entry["stdout"] = code, out
    OUT.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"{len(entries)} entries -> {OUT}")


if __name__ == "__main__":
    main()

"""Worst-case accepted input: the largest requests of each subcommand
answer, or exit with their documented code, within a wall-clock budget.

Each case is one request at a limit the README states (the CLI's
4,300-digit integers, words far longer than any other test's, reduced
or cancelling to the empty word, the largest search box of each genus,
or MAX_DEPTH_WORK at the highest degree cap), run through cli.main.
Beside each case is its time through cli.main in a fresh process,
measured on a shared 2-CPU Xeon under Python 3.11.7 (medians of 5), and
in parentheses, for the depth and series rows, the time with the list
levels that the packed ones replaced (helpers.list_levels), for the
word rows, the time with the per-letter degree-2 loop that the read off
the word's codes replaced (helpers.packed_degree_two; the two
cancelling words reduce to the empty word, so their rows time the
reducer), and for the enumerate rows,
the time with the box scan over both signs of every top half that the
one-sign scan replaced; the budgets are upper limits with room for
slower machines, not targets.

Two rows are left out, because their work is not bounded yet:

* `metabolizer` at genus 16 with large entries: the verdict's Smith
  form grows with the entries' digits, to seconds at 200 digits and
  about a minute at 1,000 (ROADMAP item 2).
* `enumerate` with many candidates and wide slots: the genus-3 unknot
  plus one symmetric pair of 4,300-digit entries has 456 candidates at
  bound 2 and takes 1.7-1.8 s (ROADMAP item 9).
"""

import io
import json
import os
import re
import sys
import time
from functools import partial
from random import Random

import pytest

from helpers import form_of_ordering
from trilink import cli
from trilink.words import FreeWord, commutator, generator

DIGITS = 4300  # Python's default int-to-string limit: the longest integer the CLI reads

HAS_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() != 0


def _digits(rng, n):
    """A random n-digit integer of random sign; +-1 keeps it at n digits."""
    return rng.choice((1, -1)) * rng.randrange(10 ** (n - 1) + 1, 10 ** n - 1)


def _generator_case():
    # the signed value is cubic in the parameters: 4,200 digits
    rng = Random(1)
    a, b, c, x1, x2, y1, y2, z1, z2 = (_digits(rng, 1400) for _ in range(9))
    rows = [
        [0, a, 0, x1, 0, y1],
        [a - 1, 0, x2, 0, y2, 0],
        [0, x2, 0, b, 0, z1],
        [x1, 0, b - 1, 0, z2, 0],
        [0, y2, 0, z2, 0, c],
        [y1, 0, z1, 0, c - 1, 0],
    ]
    b_curves = [[int(i == p) for i in range(6)] for p in (1, 3, 5)]
    payload = {"matrix": {"ordering": "interleaved", "entries": [list(map(str, r)) for r in rows]},
               "metabolizer": {"columns": b_curves}}
    signed = (a - 1) * (b - 1) * (c - 1) - a * b * c + x1 * x2 + y1 * y2 + z1 * z2

    def check(code, out):
        assert code == 0
        assert (int(out["generator"]), int(out["signed"])) == (abs(signed), signed)
        assert out["self_check"] == {"seed": 0, "completions_agree": True}

    return ["generator"], payload, check


def _genus_one_case():
    rng = Random(2)
    d = _digits(rng, DIGITS)
    e = rng.randrange(10 ** (DIGITS - 1), 4 * 10 ** (DIGITS - 1))  # 2e - 1 has 4,300 digits too

    def check(code, out):
        assert code == 0
        n, x, y, z, w = (int(out[k]) for k in "nxyzw")
        assert (n * x, n * y, z * y - w * x) == (2 * e - 1, -d, 1)
        assert out["new_matrix"]["entries"][0][1] == str(1 - e)

    return ["genus-one"], {"d": str(d), "e": str(e)}, check


def _ledger_case():
    rng = Random(3)
    names = ("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2")
    payload = {"params": {k: str(_digits(rng, 2000)) for k in names},
               "n": str(_digits(rng, 2000))}

    def check(code, out):  # the terms have about 8,000 digits, past the int-to-string limit
        assert code == 2 and out["error"] == "bad-input" and "limit" in out["detail"]

    return ["ledger"], payload, check


def _enumerate_case(genus, bound, seed):
    # dense 4,300-digit entries at the genus's box cap, M - M^T the interleaved form
    rng = Random(seed)
    j = form_of_ordering(genus, "interleaved")
    rows = [[0] * 2 * genus for _ in range(2 * genus)]
    for r in range(2 * genus):
        for c in range(r, 2 * genus):
            rows[r][c] = _digits(rng, DIGITS)
            rows[c][r] = rows[r][c] - j[r][c]
    payload = {"matrix": {"ordering": "interleaved", "entries": [list(map(str, r)) for r in rows]},
               "bound": bound}

    def check(code, out):
        assert code == 0 and out == {"count": 0, "metabolizers": []}

    return ["enumerate"], payload, check


def _mu_case():
    # [x1^k, x2^k] with k = 50,000: 200,000 letters, mu-bar(123) = k^2
    k = 50_000
    word = " ".join(["x1"] * k + ["x2"] * k + ["x1^-1"] * k + ["x2^-1"] * k)

    def check(code, out):
        assert code == 0 and out == {"mu123": k * k}

    return ["mu"], {"longitude3": word}, check


def _mu_cancelling_case():
    # x1 x2 x3 x1 ... (100,000 letters), then their inverses: 200,000 letters that
    # cancel to the empty word in one cascade from the middle back to letter 0
    head = [f"x{1 + i % 3}" for i in range(100_000)]
    word = " ".join(head + [token + "^-1" for token in reversed(head)])

    def check(code, out):
        assert code == 0 and out == {"mu123": 0}

    return ["mu"], {"longitude3": word}, check


def _class_cancelling_case():
    # (x1 x1^-1)^100,000: an inverse pair at every other letter
    def check(code, out):
        assert code == 0 and out == {"class": [0, 0, 0], "mu123": 0}

    return ["class"], {"word": " ".join(["x1 x1^-1"] * 100_000)}, check


def _text(w):
    return " ".join(f"x{g}" if s == 1 else f"x{g}^-1" for g, s in w.letters)


X1, X2, X3 = (generator(3, i) for i in (1, 2, 3))
CORE = commutator(commutator(X1, X2), X3)  # depth 3


def _depth_work_case():
    # CORE**990 conjugated by x4 ... x40: 9,974 letters over 40 generators, whose
    # degrees 2 and 3 take 9,974 * (41 + 1,641) slot updates, just under MAX_DEPTH_WORK
    c = FreeWord(40, tuple((i, 1) for i in range(4, 41)))
    w = c * FreeWord(40, CORE.letters * 990) * ~c
    assert len(w) == 9974

    def check(code, out):
        assert code == 0 and out == {"depth": 3}

    return ["depth"], {"rank": 40, "kmax": 4, "word": _text(w)}, check


def _depth_weight_eight_case():
    # the 13th power of the weight-8 commutator [[..[x1, x2], x3].., x2]: 4,966 letters, depth 8
    w = commutator(X1, X2)
    for g in (3, 1, 2, 3, 1, 2):
        w = commutator(w, generator(3, g))
    w = FreeWord(3, w.letters * 13)
    assert len(w) == 4966

    def check(code, out):
        assert code == 0 and out == {"depth": 8}

    return ["depth"], {"rank": 3, "kmax": 8, "word": _text(w)}, check


def _mu_series_case():
    # ([x1, x2] CORE)**364: 5,096 letters, 5,096 * 3,280 slot updates at cap 8
    w = FreeWord(3, (commutator(X1, X2) * CORE).letters * 364)
    assert len(w) == 5096

    def check(code, out):
        assert code == 0 and (out["mu123"], out["degree_cap"]) == (364, 8)
        assert out["series"].startswith("1 + 364*a1 a2 ")
        assert max(len(m.split()) for m in re.findall(r"\*([a\d ]+)", out["series"])) == 8

    return ["mu", "--show-series"], {"longitude3": _text(w)}, check


# name: (request builder, budget in seconds)
CASES = {
    "generator-1400-digits": (_generator_case, 0.5),  # measured 0.005 s
    "genus-one-4300-digits": (_genus_one_case, 0.5),  # measured 0.035 s
    "ledger-2000-digits-overflows": (_ledger_case, 0.5),  # measured 0.006 s
    # measured 0.11 s (two-sign scan: 0.23 s)
    "enumerate-dense-4300-digits": (partial(_enumerate_case, 3, 2, 4), 2.0),
    # measured 0.069 s (0.16 s)
    "enumerate-dense-4300-digits-genus-1": (partial(_enumerate_case, 1, 62, 5), 2.0),
    # measured 0.082 s (0.21 s)
    "enumerate-dense-4300-digits-genus-2": (partial(_enumerate_case, 2, 5, 6), 2.0),
    "mu-200000-letters": (_mu_case, 1.0),  # measured 0.019 s (degree-2 loop: 0.031 s)
    "mu-200000-letters-cancelling": (_mu_cancelling_case, 1.0),  # measured 0.019 s (0.019 s)
    "class-200000-letters-cancelling": (_class_cancelling_case, 1.0),  # measured 0.023 s (0.025 s)
    "depth-max-work-9974-letters": (_depth_work_case, 0.5),  # measured 0.031 s (list levels: 0.86 s)
    "depth-weight-8-power-4966-letters": (_depth_weight_eight_case, 0.5),  # measured 0.032 s (0.54 s)
    "mu-series-cap-8-5096-letters": (_mu_series_case, 1.0),  # measured 0.11 s (0.95 s)
}
# environment a case runs under
CASE_ENV = {"mu-series-cap-8-5096-letters": {"TRILINK_DEGREE_CAP": "8"}}


def run_case(name) -> float:
    """Seconds one case spends in cli.main; its check raises on a wrong answer."""
    argv, payload, check = CASES[name][0]()
    env = CASE_ENV.get(name, {})
    saved = {key: os.environ.get(key) for key in env}
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(json.dumps(payload)), io.StringIO()
    os.environ.update(env)
    try:
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        text = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = stdin, stdout
        for key, value in saved.items():
            if value is None:
                del os.environ[key]
            else:
                os.environ[key] = value
    (line,) = text.splitlines()
    check(code, json.loads(line))
    return elapsed


@pytest.mark.parametrize("name", list(CASES))
def test_worst_case_answers_within_budget(name):
    if name.startswith("ledger") and not HAS_INT_LIMIT:
        pytest.skip("this interpreter has no int-to-string digit limit")
    elapsed, budget = run_case(name), CASES[name][1]
    assert elapsed < budget, f"{name} took {elapsed:.2f} s, budget {budget} s"

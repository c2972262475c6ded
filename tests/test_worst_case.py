"""Worst-case accepted input: the largest requests of each subcommand
answer, or exit with their documented code, within a wall-clock budget.

Each case is one request at a limit the README states (the CLI's
4,300-digit integers, words far longer than any other test's, reduced
or cancelling to the empty word, the largest search box of each genus,
the genus cap MAX_GENUS, or MAX_DEPTH_WORK at the highest degree cap,
over two generators, 16 and 256),
run through cli.main.  Beside each case is its time through cli.main in
a fresh process, measured on a shared 2-CPU Xeon under Python 3.11.7
(medians of 5), and in parentheses, for the depth and series rows timed
before the packed levels replaced the list levels, the time with those
(helpers.list_levels), for the word rows, the time with the per-letter
degree-2 loop that the read off the word's codes replaced
(helpers.packed_degree_two; the two cancelling words reduce to the
empty word, so their rows time the reducer), for the enumerate rows,
the time with the box scan over both signs of every top half that the
one-sign scan replaced, and for the metabolizer rows, the time with
the verdict's row Hermite form of V that its minors read replaced
(helpers.hermite_verdict); the budgets are upper limits with room for
slower machines, not targets.

One row is left out, because its work is not bounded yet: `enumerate`
with many candidates and wide slots (ROADMAP item 9).  The comment on
seifert.MAX_SEARCH_BOX describes that request and gives its time.
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

from helpers import form_of_ordering, minors_gcd, unknot_sum_rows
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


def _dense_rows(rng, genus):
    """Dense 4,300-digit entries, M - M^T the interleaved form."""
    j = form_of_ordering(genus, "interleaved")
    rows = [[0] * 2 * genus for _ in range(2 * genus)]
    for r in range(2 * genus):
        for c in range(r, 2 * genus):
            rows[r][c] = _digits(rng, DIGITS)
            rows[c][r] = rows[r][c] - j[r][c]
    return rows


def _strings(rows):
    return [list(map(str, r)) for r in rows]


def _enumerate_case(genus, bound, seed):
    # dense 4,300-digit entries at the genus's box cap
    rows = _dense_rows(Random(seed), genus)
    payload = {"matrix": {"ordering": "interleaved", "entries": _strings(rows)}, "bound": bound}

    def check(code, out):
        assert code == 0 and out == {"count": 0, "metabolizers": []}

    return ["enumerate"], payload, check


def _metabolizer_case(dense, seed):
    # three random 4,300-digit columns at the genus cap, against the unknot sum or
    # against dense 4,300-digit entries: the form does not vanish on them
    rng = Random(seed)
    rows = _dense_rows(rng, 3) if dense else unknot_sum_rows(3)
    cols = [[_digits(rng, DIGITS) for _ in range(6)] for _ in range(3)]
    payload = {"matrix": {"ordering": "interleaved", "entries": _strings(rows)},
               "metabolizer": {"columns": _strings(cols)}}
    primitive = minors_gcd([list(r) for r in zip(*cols)], 3) == 1

    def check(code, out):
        assert code == 0 and out == {"is_metabolizer": False, "form_vanishes": False,
                                     "primitive": primitive, "independent": True}

    return ["metabolizer"], payload, check


def _mu_case():
    # [x1^k, x2^k] with k = 50,000: 200,000 letters, mu-bar(123) = k^2
    k = 50_000
    word = " ".join(["x1"] * k + ["x2"] * k + ["x1^-1"] * k + ["x2^-1"] * k)

    def check(code, out):
        assert code == 0 and out == {"mu123": k * k}

    return ["mu"], {"longitude3": word}, check


def _mu_tab_ended_case():
    # the mu row's word with a tab at its end: the bulk read makes its byte passes
    # over all 200,000 letters, refuses the text, and the coder reads it again
    argv, payload, check = _mu_case()
    return argv, {"longitude3": payload["longitude3"] + "\t"}, check


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


def _depth_two_generators_case():
    # the 189th power of a weight-8 commutator over 2 generators: 67,662 letters,
    # whose degrees 2..7 take 67,662 * 246 slot updates, just under MAX_DEPTH_WORK
    w = commutator(generator(2, 1), generator(2, 2))
    for g in (1, 2, 1, 1, 1, 2):
        w = commutator(w, generator(2, g))
    w = FreeWord(2, w.letters * 189)
    assert len(w) == 67662

    def check(code, out):
        assert code == 0 and out == {"depth": 8}

    return ["depth"], {"rank": 2, "kmax": 8, "word": _text(w)}, check


def _sixteen_generators_payload(power):
    # the power of the weight-5 commutator [[[[x1, x2], x3], x1], x2], conjugated by x4 ... x16
    x1, x2, x3 = (generator(16, i) for i in (1, 2, 3))
    core = commutator(commutator(commutator(commutator(x1, x2), x3), x1), x2)
    c = FreeWord(16, tuple((i, 1) for i in range(4, 17)))
    w = c * FreeWord(16, core.letters * power) * ~c
    assert len(w) == 46 * power + 26
    return {"rank": 16, "kmax": 5, "word": _text(w)}


def _depth_sixteen_generators_case():
    # the 77th power: 3,568 letters over 16 generators, whose degrees 2..4 take
    # 3,568 * (17 + 273 + 4,369) = 16,623,312 slot updates, just under MAX_DEPTH_WORK
    def check(code, out):
        assert code == 0 and out == {"depth": 5}

    return ["depth"], _sixteen_generators_payload(77), check


def _depth_many_generators_case():
    # x1 ... x256 x1^-1 ... x256^-1 repeated 127 times: 65,024 letters whose
    # degree 2 has 256**2 = MAX_DEPTH_TERMS slots and 65,024 * 257 updates
    letters = tuple((i, 1) for i in range(1, 257)) + tuple((i, -1) for i in range(1, 257))
    w = FreeWord(256, letters * 127)
    assert len(w) == 65024

    def check(code, out):
        assert code == 0 and out == {"depth": 2}

    return ["depth"], {"rank": 256, "kmax": 3, "word": _text(w)}, check


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
    # measured 0.11 s (two-sign scan: 0.23 s); three other dense matrices, none with a
    # candidate, 69-71 ms each (medians of 3)
    "enumerate-dense-4300-digits": (partial(_enumerate_case, 3, 2, 4), 2.0),
    # measured 0.069 s (0.16 s)
    "enumerate-dense-4300-digits-genus-1": (partial(_enumerate_case, 1, 62, 5), 2.0),
    # measured 0.082 s (0.21 s); three other dense matrices, none with a candidate,
    # 55-57 ms each (medians of 3)
    "enumerate-dense-4300-digits-genus-2": (partial(_enumerate_case, 2, 5, 6), 2.0),
    # measured 0.021 s (Hermite read: 0.36 s)
    "metabolizer-4300-digit-columns": (partial(_metabolizer_case, False, 1), 0.5),
    # measured 0.041 s (0.40 s)
    "metabolizer-dense-4300-digits": (partial(_metabolizer_case, True, 2), 0.5),
    # the word rows were re-timed on a slower day when parse_word gained its bulk
    # read: "then" is that timing with the bulk read, and "coder" the same day's
    # timing of the split + coder read alone, which every word took before
    # measured 0.019 s (degree-2 loop: 0.031 s); then 0.012 s (coder: 0.029 s)
    "mu-200000-letters": (_mu_case, 1.0),
    # measured 0.042 s (coder alone: 0.041 s); the bulk read's refusal of the
    # 900,000-character text takes 2.9 ms of it (timeit)
    "mu-200000-letters-tab-ended": (_mu_tab_ended_case, 1.0),
    # measured 0.019 s (0.019 s); then 0.013 s (coder: 0.036 s)
    "mu-200000-letters-cancelling": (_mu_cancelling_case, 1.0),
    # measured 0.023 s (0.025 s); then 0.030 s (coder: 0.036 s)
    "class-200000-letters-cancelling": (_class_cancelling_case, 1.0),
    # measured 0.031 s (list levels: 0.86 s); a later timing, also medians of 5, 0.077 s
    "depth-max-work-9974-letters": (_depth_work_case, 0.5),
    # measured 0.032 s (0.54 s); its 26th power (9,932 letters, at MAX_DEPTH_WORK)
    # 0.19 s; the weight-k commutator alone at kmax k (3 * 2**(k-1) - 2 letters)
    # 0.0015 s at k = 7, 0.0062 s at 8 and 0.028 s at 9
    "depth-weight-8-power-4966-letters": (_depth_weight_eight_case, 0.5),
    "depth-two-generators-67662-letters": (_depth_two_generators_case, 2.0),  # measured 0.21 s
    # measured 0.055 s, and 0.088 s in a later timing in which the 256-generator row took 0.078 s
    "depth-16-generators-3568-letters": (_depth_sixteen_generators_case, 0.5),
    "depth-256-generators-65024-letters": (_depth_many_generators_case, 0.5),  # measured 0.047 s
    # measured 0.11 s (0.95 s); a random 5,088-letter word 0.26 s; phi of an 80-letter
    # random word, whose time goes to decoding the 3**cap monomials, 0.013 s at cap 7,
    # 0.040 s at 8, 0.13 s at 9 and 0.27 s at 10
    "mu-series-cap-8-5096-letters": (_mu_series_case, 1.0),
}
# environment a case runs under
CASE_ENV = {"mu-series-cap-8-5096-letters": {"TRILINK_DEGREE_CAP": "8"}}


def run_case(name) -> float:
    """Seconds one case spends in cli.main; its check raises on a wrong answer."""
    argv, payload, check = CASES[name][0]()
    code, out, elapsed = _run(argv, payload, CASE_ENV.get(name, {}))
    check(code, out)
    return elapsed


def _run(argv, payload, env) -> tuple[int, dict, float]:
    """Exit code, reply and seconds of one request through cli.main under env."""
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
    return code, json.loads(line), elapsed


@pytest.mark.parametrize("name", list(CASES))
def test_worst_case_answers_within_budget(name):
    if name.startswith("ledger") and not HAS_INT_LIMIT:
        pytest.skip("this interpreter has no int-to-string digit limit")
    elapsed, budget = run_case(name), CASES[name][1]
    assert elapsed < budget, f"{name} took {elapsed:.2f} s, budget {budget} s"


def test_one_more_power_of_the_sixteen_generator_row_is_refused():
    # the 78th power: 3,614 letters, 16,837,626 slot updates at degrees 2..4
    code, out, _ = _run(["depth"], _sixteen_generators_payload(78), {})
    assert code == 2 and out == {
        "error": "bad-input",
        "detail": "degrees up to 4 of a word with 16 distinct generators take 16837626 "
                  "slot updates, above MAX_DEPTH_WORK = 16777216",
    }

"""Seeded request pools for the four benchmark workloads.

A request is {"argv": [...], "stdin": JSON text, "expect": {...}}.  The
program only ever sees argv and stdin; "expect" stays in the benchmark
and is what perfbench/oracles.py checks the reply against.  The seed
changes the inputs but not the request mix or the sizes, so runs with
different seeds do comparable work.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

from oracles import (generator_poly, genus_one_answer, hermite_rows, ledger_answer,
                     mat_mul, metabolizer_answer, transpose, triple_det)

WORKLOADS = ("magnus-words", "metabolizer-search", "seifert-algebra", "cli-cold")
GOLDEN = Path(__file__).resolve().parent / "golden" / "enumerate.json"
PARAM_NAMES = ("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2")

# magnus-words: mu/class word lengths, log-spaced 10^2..10^4; 774 and 10^4
# appear three times, so that p50 and p90 fall inside groups of requests
# of equal cost.  Then depth caps and the largest commutator weight.
_GRID = [round(100 * 100 ** (i / 9)) for i in range(10)]
WORD_LENGTHS = {"full": _GRID + [_GRID[4]] * 2 + [_GRID[-1]] * 2, "tiny": [100, 300]}
DEPTH_KMAX = {"full": (4, 5, 6, 7), "tiny": (4,)}
MAX_WEIGHT = 6
# seifert-algebra: requests per pass of each kind, and invalid ones
ALGEBRA_MIX = {"full": 40, "tiny": 4}
ALGEBRA_INVALID = {"full": 10, "tiny": 2}


def _request(argv, payload, **expect) -> dict:
    return {"argv": list(argv), "stdin": json.dumps(payload), "expect": expect}


# ------------------------------------------------------------------- words

def _extend(word, letters):
    """Append letters to a reduced word, reducing as we go (in place)."""
    for index, sign in letters:
        if word and word[-1] == (index, -sign):
            word.pop()
        else:
            word.append((index, sign))
    return word


def _inverse(w):
    return [(i, -s) for i, s in reversed(w)]


def _commutator(u, v):
    return _extend(list(u), v + _inverse(u) + _inverse(v))


def _random_letters(rng, n):
    return [(rng.randint(1, 3), rng.choice((1, -1))) for _ in range(n)]


def _text(w) -> str:
    return " ".join(f"x{i}" if s == 1 else f"x{i}^-1" for i, s in w)


def class_word(rng: Random, length: int):
    """Product of conjugated basic commutators [x_i, x_j]^{+-1}.

    The class in F_2/F_3 is the signed count of each basic commutator,
    since conjugation does not change it.
    """
    pairs = ((1, 2), (1, 3), (2, 3))
    word, cls = [], [0, 0, 0]
    while len(word) < length:
        k = rng.randrange(3)
        i, j = pairs[k]
        sign = rng.choice((1, -1))
        c = [(i, 1), (j, 1), (i, -1), (j, -1)]
        u = _random_letters(rng, rng.randint(0, 8))
        _extend(word, u + (c if sign > 0 else _inverse(c)) + _inverse(u))
        cls[k] += sign
    return word, cls


def depth_word(rng: Random, weight: int):
    """A left-normed commutator [..[[g1, g2], g3].., g_weight] of generators.

    With g1 and g2 distinct its Magnus image starts in degree `weight`
    exactly (a nonzero free Lie bracket), so the lower central depth is
    min(weight, kmax).  The generators cycle through a seeded relabelling
    of (1, 2, 3) with a sign pattern fixed per weight, so nothing cancels,
    the length is 3 * 2**(weight-1) - 2, and the Magnus work is the same
    for every seed (it is invariant under relabelling).
    """
    labels = rng.sample((1, 2, 3), 3)
    signs = Random(f"depth-signs/{weight}").choices((1, -1), k=weight)
    w = [(labels[0], signs[0])]
    for j in range(1, weight):
        # g1 returns with its own sign: g1^-1 would cancel at a junction
        w = _commutator(w, [(labels[j % 3], signs[0] if j % 3 == 0 else signs[j])])
    return w


def _mu_request(rng, length):
    w, cls = class_word(rng, length)
    return _request(["mu"], {"rank": 3, "longitude3": _text(w)},
                    kind="exact", answer={"mu123": cls[0]})


def _class_request(rng, length):
    w, cls = class_word(rng, length)
    return _request(["class"], {"word": _text(w)},
                    kind="exact", answer={"class": cls, "mu123": cls[0]})


def _depth_request(rng, kmax, weight):
    w = depth_word(rng, weight)
    return _request(["depth"], {"rank": 3, "word": _text(w), "kmax": kmax},
                    kind="exact", answer={"depth": min(weight, kmax)})


def magnus_words(rng: Random, scale: str) -> list[dict]:
    pool = []
    for length in WORD_LENGTHS[scale]:
        pool.append(_mu_request(rng, length))
        pool.append(_class_request(rng, length))
    for kmax in DEPTH_KMAX[scale]:
        pool.extend(_depth_request(rng, kmax, k) for k in range(2, min(kmax + 1, MAX_WEIGHT) + 1))
    return pool


# ---------------------------------------------------------- Seifert algebra

def random_params(rng: Random, r: int) -> dict:
    return {k: rng.randint(-r, r) for k in PARAM_NAMES}


def params_matrix(p: dict, stars) -> list[list[int]]:
    """The interleaved genus-3 matrix of the nine parameters.

    Its b-curves (positions 1, 3, 5) span a metabolizer whose generator
    is the nine-parameter polynomial.
    """
    s11, s13, s15, s33, s35, s55 = stars
    a, b, c = p["a"], p["b"], p["c"]
    return [
        [s11, a, s13, p["x1"], s15, p["y1"]],
        [a - 1, 0, p["x2"], 0, p["y2"], 0],
        [s13, p["x2"], s33, b, s35, p["z1"]],
        [p["x1"], 0, b - 1, 0, p["z2"], 0],
        [s15, p["y2"], s35, p["z2"], s55, c],
        [p["y1"], 0, p["z1"], 0, c - 1, 0],
    ]


def unit(n, i):
    return [1 if k == i else 0 for k in range(n)]


def random_unimodular(rng: Random, n: int, steps: int = 10):
    m = [unit(n, i) for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        else:
            m[i] = [-x for x in m[i]]
    return m


def mix_columns(cols, u):
    """Columns of (cols as a matrix) * u."""
    return transpose(mat_mul(transpose(cols), u))


def to_blocked(entries, cols):
    """Rewrite an interleaved matrix and columns in blocked ordering."""
    g = len(entries) // 2
    perm = [2 * i for i in range(g)] + [2 * i + 1 for i in range(g)]
    m = [[entries[p][q] for q in perm] for p in perm]
    return m, [[c[p] for p in perm] for c in cols]


def _matrix_json(entries, ordering):
    return {"genus": len(entries) // 2, "ordering": ordering, "entries": entries}


def _generator_request(rng):
    p = random_params(rng, 6)
    entries = params_matrix(p, [rng.randint(-2, 2) for _ in range(6)])
    cols = mix_columns([unit(6, 1), unit(6, 3), unit(6, 5)], random_unimodular(rng, 3))
    ordering = rng.choice(("interleaved", "blocked"))
    if ordering == "blocked":
        entries, cols = to_blocked(entries, cols)
    return _request(["generator"], {"matrix": _matrix_json(entries, ordering),
                                    "metabolizer": {"columns": cols}},
                    kind="generator", generator=abs(generator_poly(p)))


def _metabolizer_request(rng, variant):
    entries = params_matrix(random_params(rng, 4), [rng.randint(-2, 2) for _ in range(6)])
    cols = mix_columns([unit(6, 1), unit(6, 3), unit(6, 5)], random_unimodular(rng, 3))
    if variant == 1:  # a sublattice of index 2
        cols[0] = [2 * x for x in cols[0]]
    elif variant == 2:  # one a-curve in place of a b-curve
        cols[rng.randrange(3)] = unit(6, 2 * rng.randrange(3))
    elif variant == 3:  # dependent columns
        cols[2] = [x + y for x, y in zip(cols[0], cols[1])]
    return _request(["metabolizer"], {"matrix": _matrix_json(entries, "interleaved"),
                                      "metabolizer": {"columns": cols}},
                    kind="exact", answer=metabolizer_answer(entries, cols))


def _ledger_request(rng):
    p = random_params(rng, 20)
    n = rng.randint(-6, 6)
    return _request(["ledger"], {"params": p, "n": n},
                    kind="exact", answer=ledger_answer(p, n))


def _infect_request(rng, banded):
    mu_j, mu_l = rng.randint(-3, 3), rng.randint(-10, 10)
    if not banded:
        n = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        return _request(["infect"], {"mu_J": mu_j, "mu_L": mu_l, "N": n}, kind="exact",
                        answer={"mu": mu_j * triple_det(n) + mu_l, "route": "profile"})
    alpha = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
    beta = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
    net = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(alpha, beta)]
    return _request(["infect"], {"mu_J": mu_j, "mu_L": mu_l, "alpha": alpha, "beta": beta},
                    kind="exact", answer={"mu": mu_j * triple_det(net) + mu_l,
                                          "route": "band-sum", "cross_checked": True})


def _genus_one_request(rng):
    d, e = rng.randint(-40, 40), rng.randint(-40, 40)
    return _request(["genus-one"], {"d": d, "e": e}, kind="exact", answer=genus_one_answer(d, e))


def _invalid_request(rng, variant):
    """Requests the CLI must refuse: exit 2 (bad input) or 3 (precondition)."""
    p = random_params(rng, 5)
    if variant == 0:  # (a1, b1) pair: form(a1, b1) = a and form(b1, a1) = a - 1
        cols = [unit(6, 0), unit(6, 1), unit(6, 3)]
        payload = {"matrix": _matrix_json(params_matrix(p, [0] * 6), "interleaved"),
                   "metabolizer": {"columns": cols}}
        return _request(["generator"], payload, code=3)
    if variant == 1:
        del p[rng.choice(PARAM_NAMES)]
        return _request(["ledger"], {"params": p, "n": 2}, code=2)
    if variant == 2:
        return _request(["genus-one"], {"d": rng.randint(-9, 9), "e": "1.5"}, code=2)
    if variant == 3:
        n = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
        return _request(["infect"], {"mu_J": 1, "mu_L": 0, "N": n}, code=2)
    if variant == 4:  # skew part no longer the intersection form
        entries = params_matrix(p, [0] * 6)
        entries[0][1] += 1
        cols = [unit(6, 1), unit(6, 3), unit(6, 5)]
        return _request(["metabolizer"], {"matrix": _matrix_json(entries, "interleaved"),
                                          "metabolizer": {"columns": cols}}, code=2)
    alpha = [[rng.randint(0, 3) for _ in range(3)] for _ in range(3)]
    alpha[rng.randrange(3)][rng.randrange(3)] = -1
    return _request(["infect"], {"mu_J": 1, "mu_L": 0, "alpha": alpha, "beta": alpha}, code=2)


def seifert_algebra(rng: Random, scale: str) -> list[dict]:
    per_kind, invalid = ALGEBRA_MIX[scale], ALGEBRA_INVALID[scale]
    kinds = [
        lambda i: _generator_request(rng),
        lambda i: _metabolizer_request(rng, i % 4),
        lambda i: _ledger_request(rng),
        lambda i: _infect_request(rng, i % 2 == 1),
        lambda i: _genus_one_request(rng),
    ]
    pool = [make(i) for i in range(per_kind) for make in kinds]
    step = len(pool) // invalid
    for v in range(invalid):  # spread the invalid requests through the pass
        pool.insert(v * (step + 1), _invalid_request(rng, v % 6))
    return pool


# ------------------------------------------------------ metabolizer search

def load_golden() -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


def symplectic_signed_permutation(rng: Random, genus: int, ordering: str):
    """A random signed permutation T with T^T J T = J for the ordering's form.

    It permutes the (a_i, b_i) pairs and applies one of +-I, +-[[0,-1],[1,0]]
    to each, so it maps the coefficient box to itself: the lattices found
    in the box for T^T M T are exactly T^T applied to those of M.
    """
    n = 2 * genus
    blocks = ([[1, 0], [0, 1]], [[-1, 0], [0, -1]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]])
    order = list(range(genus))
    rng.shuffle(order)
    t = [[0] * n for _ in range(n)]
    for new, old in enumerate(order):
        s = rng.choice(blocks)
        for r in range(2):
            for c in range(2):
                t[2 * old + r][2 * new + c] = s[r][c]
    if ordering == "blocked":
        perm = [2 * i for i in range(genus)] + [2 * i + 1 for i in range(genus)]
        t = [[t[r][perm[c]] for c in range(n)] for r in range(n)]
    return t


def enumerate_request(rng: Random, case: dict) -> dict:
    genus = case["genus"]
    ordering = rng.choice(("interleaved", "blocked"))
    t = symplectic_signed_permutation(rng, genus, ordering)
    tt = transpose(t)
    entries = mat_mul(tt, mat_mul(case["entries"], t))
    keys = sorted(hermite_rows(transpose(mat_mul(tt, transpose(cols))))
                  for cols in case["lattices"])
    return _request(["enumerate"], {"matrix": _matrix_json(entries, ordering),
                                    "bound": case["bound"]},
                    kind="enumerate", entries=entries, lattices=keys)


def metabolizer_search(rng: Random, scale: str) -> list[dict]:
    cases = load_golden()
    if scale == "tiny":
        cases = [c for c in cases if c["bound"] == 1 and c["name"] != "unknot-like"]
    return [enumerate_request(rng, c) for c in cases]


# ------------------------------------------------------------------ cli-cold

def cli_cold(rng: Random, scale: str) -> list[dict]:
    """One small request of every subcommand, plus two refusals."""
    genus_two = next(c for c in load_golden() if c["genus"] == 2 and c["bound"] == 1)
    pool = [
        _mu_request(rng, 100),
        _class_request(rng, 300),
        _depth_request(rng, 4, 3),
        _generator_request(rng),
        _metabolizer_request(rng, 0),
        enumerate_request(rng, genus_two),
        _infect_request(rng, False),
        _infect_request(rng, True),
        _genus_one_request(rng),
        _ledger_request(rng),
        _invalid_request(rng, 1),
        _invalid_request(rng, 0),
    ]
    return pool if scale == "full" else pool[::3]


_BUILDERS = {"magnus-words": magnus_words, "metabolizer-search": metabolizer_search,
             "seifert-algebra": seifert_algebra, "cli-cold": cli_cold}


def build(workload: str, seed: int, scale: str = "full") -> list[dict]:
    """The request pool of one pass; the same seed gives the same pool."""
    return _BUILDERS[workload](Random(f"{workload}/{seed}"), scale)


def warmup(workload: str) -> dict:
    """The fixed request a fresh process serves to measure set-up time."""
    if workload == "magnus-words":
        return _request(["mu"], {"rank": 3, "longitude3": "x1 x2 x1^-1 x2^-1"},
                        kind="exact", answer={"mu123": 1})
    if workload == "metabolizer-search":
        entries = [[0, 1], [0, 0]]  # isotropic vectors: the multiples of e1 and e2
        return _request(["enumerate"], {"matrix": _matrix_json(entries, "interleaved"),
                                        "bound": 1},
                        kind="enumerate", entries=entries, lattices=[((0, 1),), ((1, 0),)])
    if workload == "seifert-algebra":
        p = dict(zip(PARAM_NAMES, range(2, 11)))
        return _request(["ledger"], {"params": p, "n": 2}, kind="exact",
                        answer=ledger_answer(p, 2))
    return _request(["genus-one"], {"d": 2, "e": 1}, kind="exact",
                    answer=genus_one_answer(2, 1))

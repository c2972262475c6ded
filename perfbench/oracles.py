"""Independent answer checks for the benchmark.

Nothing here imports trilink.  Determinants are cofactor expansions
(trilink uses Bareiss), lattices are compared through a Hermite form
written here (trilink uses its own row HNF and Smith form), and every
expected value comes from a closed formula or from how the input was
built.  A check returns None when the answer is right and a short
reason otherwise.
"""

from __future__ import annotations

import itertools
import json
from math import gcd

ERROR_KEYS = {2: "bad-input", 3: "precondition", 4: "internal-check"}


def det(m: list[list[int]]) -> int:
    """Laplace expansion along the first row."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * x * det(minor)
    return total


def bilinear(u, m, v) -> int:
    return sum(u[i] * m[i][j] * v[j] for i in range(len(u)) for j in range(len(v)))


def mat_mul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def transpose(m):
    return [list(c) for c in zip(*m)]


def maximal_minors_gcd(cols) -> int:
    """gcd of the k x k minors of the n x k matrix with these k columns."""
    k, n = len(cols), len(cols[0])
    g = 0
    for rows in itertools.combinations(range(n), k):
        g = gcd(g, det([[c[r] for c in cols] for r in rows]))
    return g


def hermite_rows(vectors) -> tuple:
    """Canonical basis of the lattice spanned by independent integer vectors.

    Row-style Hermite form: positive pivots, entries above a pivot
    reduced into [0, pivot).  Two bases span the same lattice iff their
    forms are equal.
    """
    a = [list(v) for v in vectors]
    k, n = len(a), len(a[0])
    top = 0
    for c in range(n):
        if top == k:
            break
        while True:
            live = [i for i in range(top, k) if a[i][c]]
            if not live:
                break
            p = min(live, key=lambda i: abs(a[i][c]))
            a[top], a[p] = a[p], a[top]
            for i in live:
                if i != top and a[i][c]:
                    q = a[i][c] // a[top][c]
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
            if not any(a[i][c] for i in range(top + 1, k)):
                break
        if not a[top][c]:
            continue
        if a[top][c] < 0:
            a[top] = [-x for x in a[top]]
        for i in range(top):
            q = a[i][c] // a[top][c]
            a[i] = [x - q * y for x, y in zip(a[i], a[top])]
        top += 1
    return tuple(tuple(r) for r in a)


def triple_det(rows) -> int:
    return det([list(r) for r in rows])


def generator_poly(p: dict) -> int:
    """(a-1)(b-1)(c-1) - abc + x1*x2 + y1*y2 + z1*z2."""
    a, b, c = p["a"], p["b"], p["c"]
    return ((a - 1) * (b - 1) * (c - 1) - a * b * c
            + p["x1"] * p["x2"] + p["y1"] * p["y2"] + p["z1"] * p["z2"])


def ledger_answer(p: dict, n: int) -> dict:
    """Every field of `trilink ledger` from the four band formulas."""
    a, b, c = p["a"], p["b"], p["c"]
    x1, x2, y1, y2, z1, z2 = (p[k] for k in ("x1", "x2", "y1", "y2", "z1", "z2"))
    terms = {
        "band1_term": n * (a - 1) * (-(c - 1) - b),
        "band3_term": n * x1 * x2,
        "band5_term": n * y1 * y2,
        "residual_term": n * (-b * c + z1 * z2),
    }
    entries = [
        ["band1_pair1_vs_3", -(c - 1)],
        ["band1_pair2_vs_2", b],
        ["band3_pair_vs_2", -x1],
        ["band5_pair_vs_3", y1],
        ["core_first_vs_2", b],
        ["core_first_vs_3", z1],
        ["core_second_vs_2", -z2],
        ["core_second_vs_3", -c],
        ["band1_pair2_vs_2_n", n * b],
        ["core_first_vs_2_n", n * b],
        ["core_first_vs_3_n", n * z1],
        ["core_second_vs_2_n", -(n - 1) * b - z2],
        ["core_second_vs_3_n", -(n - 1) * z1 - c],
    ]
    return {
        **terms,
        "total": sum(terms.values()),
        "n": n,
        "description": {"parallel_copies": n, "wrap_count": n - 2,
                        "inner_alteration_count": n - 1},
        "pushoff_entries": entries,
    }


def genus_one_answer(d: int, e: int) -> dict:
    """`trilink genus-one` from its specification.

    (x, y) = (2e-1, -d) / n with n = gcd; (z, w) solves z*y - w*x = 1
    with |w| minimal, ties toward w <= 0, and z = 0 when y = 0.
    """
    n = gcd(2 * e - 1, d)
    x, y = (2 * e - 1) // n, -d // n
    if y == 0:
        z, w = 0, -x
    else:
        m = abs(y)
        r = (-pow(x, -1, m)) % m  # w is r modulo |y|
        w = min((r, r - m), key=lambda t: (abs(t), t > 0))
        z = (1 + w * x) // y
    top_left = d * z * z + (2 * e - 1) * z * w
    return {
        "n": n, "x": x, "y": y, "z": z, "w": w,
        "normalized_e": e if e >= 1 else 1 - e,
        "new_matrix": {"genus": 1, "ordering": "interleaved",
                       "entries": [[top_left, 1 - e], [-e, 0]]},
    }


def metabolizer_answer(entries, cols) -> dict:
    """`trilink metabolizer` from the form and the maximal minors."""
    vanishes = all(bilinear(u, entries, v) == 0 for u in cols for v in cols)
    g = maximal_minors_gcd(cols)
    return {"is_metabolizer": vanishes and g == 1, "form_vanishes": vanishes,
            "primitive": g == 1, "independent": g != 0}


# ------------------------------------------------------------------ checks

def _one_object(stdout: str):
    if stdout.count("\n") != 1 or not stdout.endswith("\n"):
        return None, "stdout is not exactly one line"
    try:
        obj = json.loads(stdout)
    except ValueError:
        return None, "stdout is not JSON"
    if not isinstance(obj, dict):
        return None, "stdout is not a JSON object"
    return obj, None


def _check_exact(obj, expect):
    return None if obj == expect["answer"] else "answer differs from the oracle"


def _check_generator(obj, expect):
    g = expect["generator"]
    if set(obj) != {"generator", "signed", "meaning", "self_check"}:
        return "unexpected keys"
    if obj["generator"] != g or obj["signed"] not in (g, -g):
        return f"generator {obj['generator']} (signed {obj['signed']}), polynomial gives {g}"
    if obj["self_check"] != {"seed": 0, "completions_agree": True}:
        return "self_check missing or failed"
    if not isinstance(obj["meaning"], str) or f"n*{g}" not in obj["meaning"]:
        return "meaning does not name the generator"
    return None


def _check_enumerate(obj, expect):
    entries = expect["entries"]
    want = {tuple(tuple(r) for r in key) for key in expect["lattices"]}
    if set(obj) != {"count", "metabolizers"}:
        return "unexpected keys"
    bases = obj["metabolizers"]
    if obj["count"] != len(bases) or len(bases) != len(want):
        return f"{obj['count']} metabolizers, golden list has {len(want)}"
    genus = len(entries) // 2
    got = set()
    for item in bases:
        cols = item["columns"]
        if len(cols) != genus or any(len(c) != 2 * genus for c in cols):
            return "basis has the wrong shape"
        if any(bilinear(u, entries, v) for u in cols for v in cols):
            return "form does not vanish on a returned basis"
        if maximal_minors_gcd(cols) != 1:
            return "returned basis does not span a primitive lattice"
        got.add(hermite_rows(cols))
    if got != want:
        return "returned lattices differ from the golden list"
    return None


_CHECKS = {"exact": _check_exact, "generator": _check_generator,
           "enumerate": _check_enumerate}


def check(expect: dict, code, stdout: str, stderr: str):
    """Verdict on one reply: None if correct, else the reason."""
    if code is None:
        return "no exit code (uncaught exception or timeout)"
    if stderr:
        return "wrote to stderr: " + stderr.strip().splitlines()[-1][:120]
    obj, why = _one_object(stdout)
    if why:
        return why
    want_code = expect.get("code", 0)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if want_code:
        ok = obj.get("error") == ERROR_KEYS[want_code] and isinstance(obj.get("detail"), str)
        return None if ok else "malformed error object"
    return _CHECKS[expect["kind"]](obj, expect)

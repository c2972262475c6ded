"""Write perfbench/golden/enumerate.json: the enumerate catalog and its answers.

The catalog is fixed (its own seed, independent of any benchmark seed)
and each case's answer is what `trilink enumerate` printed when the file
was frozen.  The benchmark applies seeded symmetries to these cases and
compares replies with the transformed lists, so regenerate this file
only to fix a documented bug in enumeration.

    PYTHONPATH=src python3 perfbench/freeze_golden.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
from random import Random

from oracles import bilinear
from workloads import GOLDEN, params_matrix, random_params

CATALOG_SEED = 2016
GENUS2_PAIRS = (128, 136)


def orthogonal_pairs(entries, bound: int) -> int:
    """Pairs of isotropic box vectors (up to sign) on which the form vanishes both ways.

    These are the edges of the clique search, and its work grows with them.
    """
    iso = [v for v in itertools.product(range(-bound, bound + 1), repeat=len(entries))
           if next((x for x in v if x), 0) > 0 and bilinear(v, entries, v) == 0]
    return sum(1 for u, v in itertools.combinations(iso, 2)
               if bilinear(u, entries, v) == 0 and bilinear(v, entries, u) == 0)


def catalog() -> list[dict]:
    rng = Random(CATALOG_SEED)
    cases = []

    def add(name, entries, bounds):
        cases.extend({"name": name, "genus": len(entries) // 2, "bound": b, "entries": entries}
                     for b in bounds)

    for _ in range(3):  # genus-one summands [[d, e], [e-1, 0]]
        d, e = rng.randint(-4, 4), rng.randint(-3, 3)
        add("genus1", [[d, e], [e - 1, 0]], (1, 2))
    genus2 = 0
    while genus2 < 6:  # genus 2 with a vanishing b-b block
        a, b, x1, x2 = (rng.randint(-3, 3) for _ in range(4))
        s1, s2, s3 = (rng.randint(-1, 1) for _ in range(3))
        entries = [[s1, a, s2, x1], [a - 1, 0, x2, 0], [s2, x2, s3, b], [x1, 0, b - 1, 0]]
        # equal search work at bound 2, so that p50 falls inside one group
        if GENUS2_PAIRS[0] <= orthogonal_pairs(entries, 2) <= GENUS2_PAIRS[1]:
            add("genus2", entries, (1, 2))
            genus2 += 1
    for _ in range(6):
        stars = [rng.randint(-2, 2) for _ in range(6)]
        add("genus3", params_matrix(random_params(rng, 3), stars), (1,))
    for abc in ((1, 1, 1), (0, 1, 1), (1, 1, 0), (0, 0, 0)):  # equal search work
        p = dict(zip(("a", "b", "c"), abc), x1=0, x2=0, y1=0, y2=0, z1=0, z2=0)
        add("unknot-like", params_matrix(p, (0,) * 6), (1,))
    stars = [rng.choice((-2, -1, 1, 2)) for _ in range(6)]
    add("genus3-generic", params_matrix(random_params(rng, 3), stars), (2,))
    return cases


def main() -> None:
    from trilink import cli

    cases = catalog()
    for case in cases:
        payload = {"matrix": {"genus": case["genus"], "ordering": "interleaved",
                              "entries": case["entries"]}, "bound": case["bound"]}
        out = io.StringIO()
        sys.stdin = io.StringIO(json.dumps(payload))
        with contextlib.redirect_stdout(out):
            code = cli.main(["enumerate"])
        if code != 0:
            raise SystemExit(f"enumerate failed on {case['name']}: {out.getvalue()}")
        case["lattices"] = [m["columns"] for m in json.loads(out.getvalue())["metabolizers"]]
        print(case["name"], case["bound"], len(case["lattices"]), file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"source": "trilink 0.1.0, commit 43d9292", "catalog_seed": CATALOG_SEED,
                   "cases": cases}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact integer equality; the only tolerances are wall
clock budgets, asserted where stated.
"""

import contextlib
import io
import itertools
import json
import time
from random import Random

from helpers import (
    UNKNOT_ROWS,
    brute_force_metabolizer_lattices,
    cofactor_det,
    lattice_keys,
    mixed_b_curves,
    random_commutator_subgroup_word,
    random_word,
    rebased,
    skew_part,
)
from trilink import cli
from trilink.infection import BandSumCounts, IntersectionProfile, band_sum_expansion, infected_mu
from trilink.intlinalg import mat_mul, transpose
from trilink.magnus import mu123, phi
from trilink.nilpotent import class_of, commutator_class
from trilink.realization import GenusThreeParams, ledger
from trilink.seifert import (
    connected_sum,
    enumerate_metabolizers,
    generator_for_metabolizer,
    generator_from_block,
    genus_one_normalize,
    intersection_form,
    metabolizer_verdict,
    normalize_e,
    standard_metabolizer,
    symplectic_complete,
    validate,
)
from trilink.words import FreeWord, commutator, generator

X1, X2, X3 = (generator(3, i) for i in (1, 2, 3))


def report(num: int, desc: str, ok: bool, elapsed: float, budget: float | None = None):
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {num:2d}: {desc} ({elapsed:.2f}s"
    if budget is not None:
        line += f", budget {budget:g}s"
    print(line + ")")
    assert ok, f"criterion {num} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_generator_formula_equivalence():
    rng = Random(1001)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        b = [[rng.randint(-50, 50) for _ in range(3)] for _ in range(3)]
        (pa, x1, y1), (x2, pb, z1), (y2, z2, pc) = b
        expanded = (pa - 1) * (pb - 1) * (pc - 1) - pa * pb * pc + x1 * x2 + y1 * y2 + z1 * z2
        bt_minus = [[b[j][i] - (i == j) for j in range(3)] for i in range(3)]
        via_det = cofactor_det(bt_minus) - cofactor_det(b)
        ok &= expanded == via_det == generator_from_block(b).signed
    elapsed = time.perf_counter() - start
    report(1, "expanded polynomial == det(B^T - I) - det(B), 1000 random B", ok, elapsed, 1.0)


def test_criterion_2_unknot_generator_is_one():
    start = time.perf_counter()
    unknot = validate(UNKNOT_ROWS, "interleaved")
    result = generator_for_metabolizer(unknot, standard_metabolizer(unknot))
    ok = result.generator == 1 and result.signed == 0 * 0 * 0 - 1 * 1 * 1
    report(2, "unknot surface + b-curve metabolizer realizes all of Z", ok,
           time.perf_counter() - start)


def test_criterion_3_genus_one_pipeline():
    start = time.perf_counter()
    ok = True
    grid = range(-10, 11)
    for d, e in itertools.product(grid, grid):
        r = genus_one_normalize(d, e)
        m = [[d, e], [e - 1, 0]]
        zw, xy = (r.z, r.w), (r.x, r.y)
        ident1 = sum(zw[i] * m[i][j] * xy[j] for i in range(2) for j in range(2))
        ident2 = sum(xy[i] * m[i][j] * zw[j] for i in range(2) for j in range(2))
        ident3 = sum(xy[i] * m[i][j] * xy[j] for i in range(2) for j in range(2))
        ok &= (ident1, ident2, ident3) == (1 - e, -e, 0)
    rng = Random(1003)
    for _ in range(150):
        pairs = [(rng.randint(-10, 10), rng.randint(-10, 10)) for _ in range(3)]
        es = [normalize_e(e) for _, e in pairs]
        ok &= all(e >= 1 for e in es)
        summands = [
            validate([[d, e], [e - 1, 0]], "interleaved")
            for (d, _), e in zip(pairs, es)
        ]
        total = connected_sum(*summands)
        got = generator_for_metabolizer(total, standard_metabolizer(total))
        want = (es[0] - 1) * (es[1] - 1) * (es[2] - 1) - es[0] * es[1] * es[2]
        ok &= got.signed == want and want != 0
    elapsed = time.perf_counter() - start
    report(3, "genus-one identities on all 441 pairs + nonzero connected-sum generator",
           ok, elapsed, 5.0)


def test_criterion_4_band_sum_oracle_equivalence():
    rng = Random(1004)
    start = time.perf_counter()
    ok = True
    for _ in range(10000):
        alpha = tuple(tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3))
        beta = tuple(tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(3))
        mu_j, mu_l = rng.randint(0, 4), rng.randint(0, 4)
        counts = BandSumCounts(alpha, beta)
        ok &= band_sum_expansion(mu_j, counts, mu_l) == \
            infected_mu(mu_j, counts.net_profile(), mu_l)
    elapsed = time.perf_counter() - start
    report(4, "band-sum expansion == infection formula on alpha - beta, 10000 trials",
           ok, elapsed, 2.0)


def test_criterion_5_difference_invariance():
    rng = Random(1005)
    start = time.perf_counter()
    ok = True
    for _ in range(10000):
        profile = IntersectionProfile(
            tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(3))
        )
        mu_j = rng.randint(-9, 9)
        m1, m2 = rng.randint(-999, 999), rng.randint(-999, 999)
        ok &= infected_mu(mu_j, profile, m1) - infected_mu(mu_j, profile, m2) == m1 - m2
    report(5, "infection preserves differences of mu-bar, 10000 trials", ok,
           time.perf_counter() - start)


def test_criterion_6_magnus_vs_bilinear_class():
    rng = Random(1006)
    start = time.perf_counter()
    ok = True
    for _ in range(2000):
        w1 = random_word(rng, 3, 6)
        w2 = random_word(rng, 3, 6)
        comm = commutator(w1, w2)
        expect = commutator_class(w1, w2)
        series = phi(comm, 3)
        via_magnus = (
            series.coefficient((1, 2)),
            series.coefficient((1, 3)),
            series.coefficient((2, 3)),
        )
        ok &= via_magnus == tuple(expect)
        ok &= class_of(comm) == expect
    elapsed = time.perf_counter() - start
    report(6, "Magnus degree-2 class == bilinear commutator class, 2000 pairs at cap 3",
           ok, elapsed, 10.0)


def test_criterion_7_mu_engine_ground_truth():
    rng = Random(1007)
    start = time.perf_counter()
    ok = mu123(commutator(X1, X2)) == 1
    ok &= mu123(commutator(X2, X1)) == -1
    for n in range(-5, 6):
        ok &= mu123(commutator(X1, X2) ** n) == n
    for _ in range(2000):
        w = random_commutator_subgroup_word(rng)
        g = random_word(rng, 3, 5)
        conj = g * w * ~g
        mu = mu123(w)
        ok &= mu123(conj) == mu
        ok &= mu123(~w) == -mu
    report(7, "mu-bar ground truths, conjugation invariance, inversion antisymmetry",
           ok, time.perf_counter() - start)


def test_criterion_8_ledger_and_pushoff_entries():
    rng = Random(1008)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        p = GenusThreeParams(*(rng.randint(-9, 9) for _ in range(9)))
        n = rng.randint(-10, 10)
        ok &= ledger(p, n).total == n * generator_from_block(p.block()).signed
    for _ in range(500):
        p = GenusThreeParams(*(rng.randint(-9, 9) for _ in range(9)))
        n = rng.randint(-5, 5)
        entries = dict(ledger(p, n).pushoff_entries)
        closed = {
            "band1_pair1_vs_3": -(p.c - 1),
            "band1_pair2_vs_2": p.b,
            "band3_pair_vs_2": -p.x1,
            "band5_pair_vs_3": p.y1,
            "core_first_vs_2": p.b,
            "core_first_vs_3": p.z1,
            "core_second_vs_2": -p.z2,
            "core_second_vs_3": -p.c,
            "band1_pair2_vs_2_n": n * p.b,
            "core_first_vs_2_n": n * p.b,
            "core_first_vs_3_n": n * p.z1,
            "core_second_vs_2_n": -(n - 1) * p.b - p.z2,
            "core_second_vs_3_n": -(n - 1) * p.z1 - p.c,
        }
        ok &= entries == closed
    elapsed = time.perf_counter() - start
    report(8, "ledger totals n * generator; 13 pushoff values match closed forms",
           ok, elapsed, 2.0)


def test_criterion_9_metabolizer_machinery():
    start = time.perf_counter()
    unknot = validate(UNKNOT_ROWS, "interleaved")
    found = enumerate_metabolizers(unknot, 1)
    ok = lattice_keys([standard_metabolizer(unknot)]) <= lattice_keys(found)
    ok &= all(metabolizer_verdict(unknot, v).is_metabolizer for v in found)

    genus2 = [
        validate([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], "interleaved"),
        validate([[2, 1, 0, 3], [0, 0, 3, 0], [0, 3, -1, 2], [3, 0, 1, 0]], "interleaved"),
    ]
    genus1 = [
        validate([[0, 1], [0, 0]], "interleaved"),
        validate([[1, 1], [0, 1]], "interleaved"),
        validate([[3, 2], [1, 0]], "interleaved"),
    ]
    for m in genus1 + genus2:
        for bound in (1, 2):
            ok &= lattice_keys(enumerate_metabolizers(m, bound)) == \
                brute_force_metabolizer_lattices(m, bound)
    elapsed = time.perf_counter() - start
    report(9, "enumerate finds the standard unknot metabolizer; matches brute force",
           ok, elapsed, 30.0)


def test_criterion_10_symplectic_completion():
    rng = Random(1010)
    start = time.perf_counter()
    ok = True
    blocked = intersection_form(3, "blocked")
    for _ in range(200):
        p = GenusThreeParams(*(rng.randint(-5, 5) for _ in range(9)))
        stars = tuple(rng.randint(-5, 5) for _ in range(6))
        m = p.seifert_matrix(stars)
        v = mixed_b_curves(rng, m)
        t = symplectic_complete(m, v)
        ok &= mat_mul(transpose(t), mat_mul(skew_part(m), t)) == blocked
        r1 = generator_for_metabolizer(m, rebased(rng, v))
        r2 = generator_for_metabolizer(m, rebased(rng, v))
        ok &= r1 == r2 and r1.signed == p.generator()
    report(10, "completions satisfy the symplectic postcondition; generator and sign stable",
           ok, time.perf_counter() - start)


def test_criterion_11_depth_linear_in_word_length(monkeypatch):
    rng = Random(1011)

    def random_word_40(n):
        return FreeWord(40, tuple((rng.randint(1, 40), rng.choice((1, -1))) for _ in range(n)))

    w = commutator(commutator(random_word_40(100), random_word_40(100)), generator(40, 7))
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"rank": 40, "word": str(w), "kmax": 4})))
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(["depth"])
    elapsed = time.perf_counter() - start
    ok = 700 <= len(w) <= 820 and code == 0 and json.loads(out.getvalue()) == {"depth": 3}
    report(11, f"depth 3 of a {len(w)}-letter [[u, v], g] over 40 generators via cli.main",
           ok, elapsed, 0.5)

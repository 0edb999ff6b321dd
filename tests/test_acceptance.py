"""Acceptance suite: the contract this package must satisfy, one test per
criterion, each printing a PASS/FAIL line.  All checks are exact integer
identities; there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import functools
import random

from math import gcd

from mbhomology.chain import homology_at, validate_complex
from mbhomology.corpus import independence_suite, load_entries, load_entry, run_entry
from mbhomology.exactalg import snf
from mbhomology.flowdata import FlowPresentation, build_multicomplex, morse_to_flow
from mbhomology.morse import MorseData, morse_complex, verify_morse_mb
from mbhomology.multicomplex import totalize, validate_multicomplex
from mbhomology.pipeline import homology_table
from mbhomology.simplicial import (
    SimplicialComplexData,
    SimplicialMap,
    chain_complex_of,
    fundamental_cycle,
)

from support import (
    brute_homology,
    chain_to_vector,
    matrix_of_pullback,
    matrix_of_pushforward,
    random_complex,
)
from test_exactalg import check_decomposition, gcd_of_k_minors, random_matrix
from test_simplicial import random_subcomplex


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}")
                raise
            print(f"[PASS] criterion {number}: {title}")
        return run
    return wrap


def betti_row(table, top=3):
    return [(table[k].betti, table[k].torsion) for k in range(top)]


@criterion(1, "constant function on the 2-sphere")
def test_criterion_1_constant_sphere():
    table = run_entry(load_entry("s2-constant")).table
    assert betti_row(table) == [(1, ()), (0, ()), (1, ())]


@criterion(2, "height squared on the 2-sphere, with chain-level images")
def test_criterion_2_z2():
    entry = load_entry("s2-z2")
    mc = entry.build()
    table = homology_table(mc)
    assert betti_row(table) == [(1, ()), (0, ()), (1, ())]
    rim = entry.presentation.crit_at(0).complex
    cycle = chain_to_vector(rim, 1, fundamental_cycle(rim).as_chain())
    d2 = mc.map(2, 0, 2)
    names = mc.labels(0, 2)
    n_img = d2.col(names.index("n"))
    s_img = d2.col(names.index("s"))
    assert n_img == cycle and s_img == tuple(-x for x in cycle)
    # H_1 of the rim is Z, and the rim has no 2-simplices, so H_1 is the
    # kernel of d_1: the images generate it iff the cycle is primitive
    row = chain_complex_of(rim)
    [h1] = homology_at(row, [1])
    assert str(h1) == "Z" and row.rank(2) == 0
    assert row.boundary(1).times_vector(cycle) == (0,) * row.rank(0)
    assert gcd(*cycle) == 1


@criterion(3, "negated height squared on the 2-sphere")
def test_criterion_3_minus_z2():
    entry = load_entry("s2-minus-z2")
    mc = entry.build()
    assert betti_row(homology_table(mc)) == [(1, ()), (0, ()), (1, ())]
    names = mc.labels(0, 0)
    n_row, s_row = names.index("n"), names.index("s")
    d1 = mc.map(1, 0, 1)
    for col in range(d1.cols):
        image = list(d1.col(col))
        assert abs(image[n_row]) == 1
        assert image[s_row] == -image[n_row]
        image[n_row] = image[s_row] = 0
        assert not any(image)


@criterion(4, "torus height function")
def test_criterion_4_torus_height():
    entry = load_entry("t2-height")
    mc = entry.build()
    assert betti_row(homology_table(mc)) == [(1, ()), (2, ()), (1, ())]
    for p in range(0, 2):
        assert mc.map(1, p, 1).is_zero()


@criterion(5, "deformed torus with two point pairs")
def test_criterion_5_deformed_torus():
    entry = load_entry("t2-deformed")
    mc = entry.build()
    assert betti_row(homology_table(mc)) == [(1, ()), (2, ()), (1, ())]
    mid = mc.labels(0, 1)
    top = mc.labels(0, 2)
    d1_mid = mc.map(1, 0, 1)
    assert d1_mid.col(mid.index("p1")) == (1, -1, 0, 0)
    assert d1_mid.col(mid.index("q1")) == (0, 0, -1, 1)
    d1_top = mc.map(1, 0, 2)
    total = [a + b for a, b in zip(d1_top.col(top.index("p2")),
                                   d1_top.col(top.index("q2")))]
    assert not any(total)


@criterion(6, "anticommutation and square-zero totalization on the corpus")
def test_criterion_6_multicomplex_identities():
    for entry in load_entries():
        mc = entry.build()
        assert validate_multicomplex(mc).ok, entry.name
        view = totalize(mc)
        assert validate_complex(view.complex) == [], entry.name
        for k in view.complex.degrees():
            product = view.complex.boundary(k - 1) @ view.complex.boundary(k)
            assert product.is_zero(), (entry.name, k)


@criterion(7, "critical-point complex embeds quasi-isomorphically")
def test_criterion_7_morse_embedding():
    data = [
        MorseData(crit_by_index={0: ("bottom",), 1: ("inner", "outer"),
                                 2: ("top",)}, counts={}),
        MorseData(crit_by_index={0: ("bottom",), 2: ("top",)}, counts={}),
        MorseData(crit_by_index={0: ("bottom",), 1: ("saddle",),
                                 2: ("east", "west")},
                  counts={("east", "saddle"): 1, ("west", "saddle"): -1}),
    ]
    for md in data:
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify_morse_mb(morse_complex(md), mc)
        assert outcome.chain_map_exact
        assert all(r.is_zero() for r in outcome.chain_map_residuals.values())
        assert outcome.odd_components_zero
        assert outcome.is_quasi_iso
        for a, b in zip(outcome.morse_homology, outcome.mb_homology):
            assert a.iso(b)


@criterion(8, "homology independent of the presentation, per manifold")
def test_criterion_8_independence():
    report = independence_suite()
    assert set(report.groups) == {"s2", "t2"}
    assert len(report.groups["s2"]) >= 4
    assert len(report.groups["t2"]) >= 3
    assert report.ok
    for a, b, iso in report.comparisons:
        assert iso, (a, b)


@criterion(9, "randomized property suites, 100 seeds each")
def test_criterion_9_property_suites():
    # Smith normal form: defining equations and gcd-of-minors factors
    for seed in range(100):
        rng = random.Random(seed)
        a = random_matrix(rng)
        dec = snf(a)
        check_decomposition(a, dec)
        prod = 1
        for k, d in enumerate(dec.invariant_factors, start=1):
            prod *= d
            assert prod == gcd_of_k_minors(a, k)

    # homology against the rank/invariant-factor oracle
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        c = random_complex(rng)
        for k, h in zip(c.degrees(), homology_at(c, c.degrees()),
                        strict=True):
            assert (h.betti, h.torsion) == brute_homology(c, k)

    # pushforward and covering pullback are chain maps
    for seed in range(100):
        rng = random.Random(30_000 + seed)
        src = random_subcomplex(rng)
        cs = chain_complex_of(src)
        for _ in range(10):
            image = [rng.randrange(src.vertex_count)
                     for _ in range(src.vertex_count)]
            try:
                f = SimplicialMap(src, src, vertex_image=image)
                break
            except ValueError:
                continue
        else:
            f = SimplicialMap(src, src, list(range(src.vertex_count)))
        for d in range(1, src.top_dim + 1):
            assert cs.boundary(d) @ matrix_of_pushforward(f, d) == \
                matrix_of_pushforward(f, d - 1) @ cs.boundary(d)
        # disjoint covers with a random number of sheets
        sheets = rng.randint(1, 3)
        n = src.vertex_count
        cover = SimplicialComplexData.from_simplices(
            [tuple(v + t * n for v in s) for s in src.all_simplices()
             for t in range(sheets)],
            vertex_count=n * sheets)
        proj = SimplicialMap(cover, src,
                             [v % n for v in range(n * sheets)])
        cc = chain_complex_of(cover)
        for d in range(1, src.top_dim + 1):
            assert cc.boundary(d) @ matrix_of_pullback(proj, d) == \
                matrix_of_pullback(proj, d - 1) @ cs.boundary(d)


@criterion(10, "homology tables stable under raising the column cap")
def test_criterion_10_truncation_stability():
    for entry in load_entries():
        fp = entry.presentation
        base_cap = fp.cap()
        low = homology_table(build_multicomplex(fp))
        raised = FlowPresentation(dim=fp.dim, crit=fp.crit, moduli=fp.moduli,
                                  column_cap=base_cap + 2)
        high = homology_table(build_multicomplex(raised))
        for k in range(0, fp.dim + 1):
            assert low[k].iso(high[k]), (entry.name, k)

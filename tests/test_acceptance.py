"""Acceptance suite: the contract this package must satisfy, one test per
criterion, each printing a PASS/FAIL line.  All checks are exact integer
identities; there are no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import functools
import io
import json
import random

from math import gcd

from mbhomology.chain import homology_at, validate_complex
from mbhomology.cli import EXIT_OK, main
from mbhomology.corpus import entry_names
from mbhomology.exactalg import snf
from mbhomology.flowdata import build_multicomplex, morse_to_flow
from mbhomology.morse import MorseData, morse_complex
from mbhomology.multicomplex import totalize, validate_multicomplex
from mbhomology.pipeline import homology_table
from mbhomology.simplicial import (
    SimplicialComplexData,
    SimplicialMap,
    chain_complex_of,
)

from support import (
    brute_homology,
    chain_to_vector,
    cycle_chain,
    degrees_of,
    full_point_rows,
    matrix_of_pullback,
    matrix_of_pushforward,
    random_complex,
    read_corpus,
    structure_map,
    times_vector,
    verify_morse_mb,
)
from test_cli import SAME_MANIFOLD, corpus_path
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


def built(fp):
    return build_multicomplex(fp, check=False)


@criterion(1, "constant function on the 2-sphere")
def test_criterion_1_constant_sphere():
    table = homology_table(built(read_corpus("s2-constant")[0]))
    assert betti_row(table) == [(1, ()), (0, ()), (1, ())]


@criterion(2, "height squared on the 2-sphere, with chain-level images")
def test_criterion_2_z2():
    fp = read_corpus("s2-z2")[0]
    mc = built(fp)
    table = homology_table(mc)
    assert betti_row(table) == [(1, ()), (0, ()), (1, ())]
    rim = fp.crit_at(0).complex
    cycle = chain_to_vector(rim, 1, cycle_chain(rim))
    sparse = {i: x for i, x in enumerate(cycle) if x}
    d2 = structure_map(mc, 2, 0, 2)
    names = fp.crit_at(2).names
    n_img = d2.columns[names.index("n")]
    s_img = d2.columns[names.index("s")]
    assert n_img == sparse and s_img == {i: -x for i, x in sparse.items()}
    # H_1 of the rim is Z, and the rim has no 2-simplices, so H_1 is the
    # kernel of d_1: the images generate it iff the cycle is primitive
    row = chain_complex_of(rim)
    [h1] = homology_at(row, [1])
    assert str(h1) == "Z" and row.rank(2) == 0
    assert times_vector(row.boundary(1), cycle) == (0,) * row.rank(0)
    assert gcd(*cycle) == 1


@criterion(3, "negated height squared on the 2-sphere")
def test_criterion_3_minus_z2():
    fp = read_corpus("s2-minus-z2")[0]
    mc = built(fp)
    assert betti_row(homology_table(mc)) == [(1, ()), (0, ()), (1, ())]
    names = fp.crit_at(0).names
    n_row, s_row = names.index("n"), names.index("s")
    d1 = structure_map(mc, 1, 0, 1)
    for image in d1.columns:
        assert set(image) == {n_row, s_row}
        assert abs(image[n_row]) == 1
        assert image[s_row] == -image[n_row]


@criterion(4, "torus height function")
def test_criterion_4_torus_height():
    mc = built(read_corpus("t2-height")[0])
    assert betti_row(homology_table(mc)) == [(1, ()), (2, ()), (1, ())]
    for p in range(0, 2):
        assert structure_map(mc, 1, p, 1).is_zero()


@criterion(5, "deformed torus with two point pairs")
def test_criterion_5_deformed_torus():
    fp = read_corpus("t2-deformed")[0]
    mc = built(fp)
    assert betti_row(homology_table(mc)) == [(1, ()), (2, ()), (1, ())]
    mid = fp.crit_at(1).names
    top = fp.crit_at(2).names
    d1_mid = structure_map(mc, 1, 0, 1)
    assert d1_mid.rows == 4
    assert d1_mid.columns[mid.index("p1")] == {0: 1, 1: -1}
    assert d1_mid.columns[mid.index("q1")] == {2: -1, 3: 1}
    d1_top = structure_map(mc, 1, 0, 2)
    p2 = d1_top.columns[top.index("p2")]
    assert d1_top.columns[top.index("q2")] == {i: -x for i, x in p2.items()}


@criterion(6, "anticommutation and square-zero totalization on the corpus")
def test_criterion_6_multicomplex_identities():
    for name in entry_names():
        mc = built(read_corpus(name)[0])
        assert validate_multicomplex(mc).ok, name
        view = totalize(mc)
        assert validate_complex(view.complex) == [], name
        for k in degrees_of(view.complex):
            product = view.complex.boundary(k - 1) @ view.complex.boundary(k)
            assert product.is_zero(), (name, k)


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
        fp = morse_to_flow(md)
        outcome = verify_morse_mb(morse_complex(md), fp,
                                  build_multicomplex(fp))
        assert outcome.chain_map_exact
        assert all(r.is_zero() for r in outcome.chain_map_residuals.values())
        assert outcome.odd_components_zero
        assert outcome.is_quasi_iso
        for a, b in zip(outcome.morse_homology, outcome.mb_homology):
            assert a == b


@criterion(8, "homology independent of the presentation, per manifold")
def test_criterion_8_independence():
    # `compare` of every two shipped files of one manifold: 15 pairs of
    # six s2 files and 3 pairs of three t2 files
    assert len(SAME_MANIFOLD) == 15 + 3
    for a, b in SAME_MANIFOLD:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["compare", corpus_path(a), corpus_path(b),
                         "--json"]) == EXIT_OK, (a, b)
        assert json.loads(out.getvalue())["isomorphic"] is True, (a, b)


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
        for k, h in zip(degrees_of(c), homology_at(c, degrees_of(c)),
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
    for name in entry_names():
        fp = read_corpus(name)[0]
        mc = build_multicomplex(fp)
        low = homology_table(mc)
        # the fat rows of the paper's truncation at the smallest cap a
        # document may declare and at the next one
        for cap in (fp.dim + 2 + fp.dim % 2, fp.dim + 4 + fp.dim % 2):
            high = homology_table(full_point_rows(mc, fp, cap))
            for k in range(0, fp.dim + 1):
                assert low[k] == high[k], (name, cap, k)

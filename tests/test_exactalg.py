import json
import random
from itertools import combinations
from math import gcd

import pytest
from sympy import Matrix as SymMatrix
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sym_invariant_factors

from mbhomology import cli, exactalg
from mbhomology.exactalg import (
    IntMatrix,
    _reduce,
    invariant_factors,
    snf,
)
from mbhomology.flowdata import build_multicomplex
from mbhomology.morse import MorseData
from mbhomology.pipeline import homology_table
from mbhomology.schema import presentation_from_doc

from support import load_file, submatrix_cols, times_vector

workloads = load_file("perfbench/workloads.py")


def det_expansion(mat):
    """Determinant by cofactor expansion; independent of the snf code path."""
    n = mat.rows
    assert n == mat.cols
    if n == 0:
        return 1
    rows = [list(r) for r in mat.data]

    def go(rows, cols):
        if len(cols) == 1:
            return rows[0][cols[0]]
        total = 0
        for k, j in enumerate(cols):
            x = rows[0][j]
            if x:
                rest = cols[:k] + cols[k + 1:]
                total += (-1) ** k * x * go(rows[1:], rest)
        return total

    return go(rows, list(range(n)))


def gcd_of_k_minors(mat, k):
    g = 0
    for rows in combinations(range(mat.rows), k):
        for cols in combinations(range(mat.cols), k):
            sub = IntMatrix(k, k, [[mat.data[i][j] for j in cols]
                                   for i in rows])
            g = gcd(g, det_expansion(sub))
    return abs(g)


def random_matrix(rng, max_dim=6, lo=-9, hi=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return IntMatrix(m, n, [[rng.randint(lo, hi) for _ in range(n)]
                            for _ in range(m)])


def check_decomposition(a, dec):
    assert dec.u @ a @ dec.v == dec.s
    assert abs(det_expansion(dec.u)) == 1
    assert abs(det_expansion(dec.v)) == 1
    d = dec.invariant_factors
    assert all(x > 0 for x in d)
    for i in range(len(d) - 1):
        assert d[i + 1] % d[i] == 0
    # S is the diagonal of the invariant factors padded with zeros
    for i in range(a.rows):
        for j in range(a.cols):
            expect = d[i] if i == j and i < len(d) else 0
            assert dec.s.data[i][j] == expect


def dense(rng, m, n, density):
    """Plain nested lists: the reference the sparse matrix is checked by."""
    return [[rng.randint(-4, 4) if rng.random() < density else 0
             for _ in range(n)] for _ in range(m)]


def columns_of(rows, n, rng):
    """Sparse columns of `rows`, with some explicit zeros thrown in."""
    cols = [{i: row[j] for i, row in enumerate(rows) if row[j]}
            for j in range(n)]
    for j, col in enumerate(cols):
        for i in range(len(rows)):
            if not rows[i][j] and rng.random() < 0.2:
                col[i] = 0
    return cols


def as_tuples(rows):
    return tuple(tuple(row) for row in rows)


def stores_no_zero(mat):
    return all(x for col in mat.columns for x in col.values())


class TestIntMatrix:
    """The sparse-column matrix against plain-list arithmetic."""

    def test_against_dense_reference(self):
        shapes = set()
        for seed in range(320):
            rng = random.Random(5000 + seed)
            m, k, n = (rng.randint(0, 5) for _ in range(3))
            shapes.add((m, n))
            density = rng.choice((0.0, 0.3, 0.7, 1.0))
            ra, rb = dense(rng, m, n, density), dense(rng, m, n, density)
            rc = dense(rng, n, k, rng.choice((0.0, 0.5)))
            a = IntMatrix(m, n, ra)
            b = IntMatrix.from_columns(m, n, columns_of(rb, n, rng))
            c = IntMatrix.from_columns(n, k, columns_of(rc, k, rng))
            same = IntMatrix(m, n, rb)
            assert b == same
            assert a.data == as_tuples(ra) and b.data == as_tuples(rb)
            assert a.is_zero() == (not any(map(any, ra)))
            picks = rng.randint(0, 4) if n else 0
            idx = [rng.randrange(n) for _ in range(picks)]
            results = {
                "add": (a + b, n, [[x + y for x, y in zip(r, s)]
                                   for r, s in zip(ra, rb)]),
                "matmul": (a @ c, k, [[sum(ra[i][t] * rc[t][j]
                                           for t in range(n))
                                       for j in range(k)] for i in range(m)]),
                "submatrix_cols": (submatrix_cols(a, idx), len(idx),
                                   [[r[j] for j in idx] for r in ra]),
            }
            for factor in (-2, 0, 3):
                results[f"scaled {factor}"] = (
                    a.scaled(factor), n, [[factor * x for x in r] for r in ra])
            for name, (got, cols, want) in results.items():
                assert got.shape == (m, cols), (seed, name)
                assert got == IntMatrix(m, cols, want), (seed, name)
                assert stores_no_zero(got), (seed, name)
                assert got.data == as_tuples(want), (seed, name)
            v = [rng.randint(-3, 3) for _ in range(n)]
            assert times_vector(a, v) == tuple(sum(x * y for x, y in zip(r, v))
                                              for r in ra)
        assert {(0, 3), (3, 0), (0, 0)} <= shapes

    def test_explicit_zeros_are_not_stored(self):
        zero = IntMatrix.zeros(2, 3)
        full = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        for mat in (IntMatrix(2, 3, [[0, 0, 0], [0, 0, 0]]),
                    IntMatrix.from_columns(2, 3, [{0: 0}, {}, {1: 0}]),
                    full.scaled(0), full + full.scaled(-1)):
            assert mat == zero
            assert mat.is_zero() and stores_no_zero(mat)

    @pytest.mark.parametrize("build", [
        lambda: IntMatrix(2, 2, [[1, 2], [3]]),
        lambda: IntMatrix(2, 2, [[1, 2]]),
        lambda: IntMatrix.from_columns(2, 2, [{0: 1}]),
        lambda: IntMatrix.from_columns(2, 1, [{2: 1}]),
        lambda: IntMatrix.from_columns(2, 1, [{-1: 1}]),
    ])
    def test_constructors_reject_bad_shapes(self, build):
        with pytest.raises(ValueError, match="entries do not fill a 2x"):
            build()


def sym_factors(a):
    """Nonzero invariant factors of `a`, by sympy."""
    if a.rows == 0 or a.cols == 0:
        return ()
    factors = sym_invariant_factors(SymMatrix(
        a.rows, a.cols, [x for row in a.data for x in row]), domain=ZZ)
    return tuple(abs(int(x)) for x in factors if int(x) != 0)


class TestSnf:
    def test_identity(self):
        dec = snf(IntMatrix.identity(2))
        assert dec.s == IntMatrix.identity(2)
        assert dec.invariant_factors == (1, 1)

    def test_zero(self):
        dec = snf(IntMatrix.zeros(2, 2))
        assert dec.s == IntMatrix.zeros(2, 2)
        assert dec.invariant_factors == ()

    def test_2x2_derived(self):
        # Oracle: d1 = gcd of entries = 2, d1*d2 = |det| = |16 - 24| = 8.
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        dec = snf(a)
        assert dec.invariant_factors == (2, 4)
        check_decomposition(a, dec)

    def test_empty_shapes(self):
        for shape in [(0, 0), (0, 3), (3, 0)]:
            a = IntMatrix.zeros(*shape)
            dec = snf(a)
            check_decomposition(a, dec)
            assert dec.invariant_factors == ()

    def test_deterministic(self):
        a = IntMatrix.from_rows([[3, 1, -2], [0, 4, 1], [5, -1, 2]])
        d1 = snf(a)
        d2 = snf(a)
        assert (d1.u, d1.s, d1.v) == (d2.u, d2.s, d2.v)

    def test_properties_randomized(self):
        for seed in range(100):
            rng = random.Random(seed)
            a = random_matrix(rng)
            dec = snf(a)
            check_decomposition(a, dec)
            # cross-check the factor chain against gcds of k x k minors
            d = dec.invariant_factors
            prod = 1
            for k in range(1, len(d) + 1):
                prod *= d[k - 1]
                assert prod == gcd_of_k_minors(a, k)

    def test_transforms_read_late_are_the_same(self):
        # U and V are replayed from the recorded operations on first read:
        # reading them twice, or V before U, gives the same matrices
        for seed in range(60):
            a = random_matrix(random.Random(3000 + seed))
            first = snf(a)
            u, v = first.u, first.v
            assert (first.u, first.v) == (u, v)
            second = snf(a)
            assert (second.v, second.u) == (v, u)
            check_decomposition(a, second)

    def test_against_sympy(self):
        for seed in range(100):
            rng = random.Random(1000 + seed)
            a = random_matrix(rng, max_dim=5)
            assert snf(a).invariant_factors == sym_factors(a)


def sparse_matrix(rng, pool, max_dim=12, density=0.3):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return IntMatrix(m, n, [[rng.choice(pool) if rng.random() < density
                             else 0 for _ in range(n)] for _ in range(m)])


class TestInvariantFactors:
    def test_matches_snf_randomized(self):
        pools = [(1, -1), (1, -1, 2), (2, -2, 3, 4, 6), (1, -3, 5, 7)]
        no_units = 0
        for seed in range(600):
            rng = random.Random(4000 + seed)
            pool = pools[seed % len(pools)]
            if seed % 3:
                a = sparse_matrix(rng, pool, density=rng.choice((0.2, 0.5)))
            else:
                a = random_matrix(rng, lo=-3, hi=3)
            if not any(x in (1, -1) for row in a.data for x in row):
                no_units += 1
            assert invariant_factors(a) == snf(a).invariant_factors, seed
        # the dense core runs on matrices with no unit entry at all
        assert no_units > 100

    def test_core_after_unit_pivots(self):
        # one unit pivot leaves the core diag(2, 4), which has no unit
        a = IntMatrix.from_rows([[1, 1, 0],
                                 [2, 4, 0],
                                 [0, 0, 4]])
        assert invariant_factors(a) == snf(a).invariant_factors == (1, 2, 4)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0), (3, 5), (5, 3)])
    def test_empty_and_zero(self, shape):
        assert invariant_factors(IntMatrix.zeros(*shape)) == ()


def shuffled(rng, a):
    """`a` with its rows and columns permuted and some columns negated."""
    rows, cols = list(range(a.rows)), list(range(a.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    signs = [rng.choice((1, -1)) for _ in cols]
    return IntMatrix(a.rows, a.cols, [[sign * a.data[i][j]
                                       for j, sign in zip(cols, signs)]
                                      for i in rows])


class TestUnitSweep:
    """The column sweep of `_reduce` against sympy, and its invariance
    under the labels its order depends on."""

    @staticmethod
    def family():
        for seed in range(240):
            rng = random.Random(9000 + seed)
            yield rng, sparse_matrix(rng, (1, -1, 2, -2),
                                     density=rng.choice((0.15, 0.25, 0.4)))

    def test_matches_sympy(self):
        cores = 0
        for seed, (_, a) in enumerate(self.family()):
            factors, pivots = _reduce(a)
            assert factors == invariant_factors(a) == sym_factors(a), seed
            # a core is left when snf contributes a factor
            cores += len(factors) > len(pivots)
        assert cores >= 50

    def test_order_invariance(self):
        moved = moved_cores = 0
        for seed, (rng, a) in enumerate(self.family()):
            b = shuffled(rng, a)
            factors, pivots = _reduce(b)
            assert factors == invariant_factors(a), seed
            moved += b != a
            moved_cores += b != a and len(factors) > len(pivots)
        assert moved >= 180 and moved_cores >= 50


class TestTransformsAreNotBuilt:
    def test_program_reads_no_transform(self, monkeypatch, tmp_path,
                                        capsys):
        # homology and morse reduce boundaries whose cores reach snf, and
        # never build U or V: replaying the operations refuses here
        def refuse(n, ops):
            raise AssertionError("a Smith transform was built")

        cores = []
        real_snf = exactalg.snf

        def counted_snf(a):
            cores.append(a.shape)
            return real_snf(a)

        monkeypatch.setattr(exactalg, "_replay", refuse)
        monkeypatch.setattr(exactalg, "snf", counted_snf)
        doc = workloads.make("bott-twist", 1, 0)[0]
        table = homology_table(build_multicomplex(presentation_from_doc(doc)))
        assert [str(g) for g in table] == ["Z", "Z^2", "Z ⊕ Z/2", "0", "0"]
        assert (18, 1) in cores

        def run(command, name, doc):
            path = tmp_path / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            cores.clear()
            assert cli.main([command, str(path), "--json"]) == cli.EXIT_OK
            assert cores
            return json.loads(capsys.readouterr().out)

        out = run("homology", "bott-twist.json", doc)
        assert [entry["torsion"] for entry in out["homology"]] == \
            [[], [], [2], []]
        # the projective plane: d(c) = 2 b, so H_1 = Z/2
        md = MorseData(crit_by_index={0: ("a",), 1: ("b",), 2: ("c",)},
                       counts={("c", "b"): 2})
        out = run("morse", "rp2.json",
                  load_file("scripts/make_corpus.py").morse_to_doc(md))
        assert out["ok"] is True
        assert [entry["torsion"] for entry in out["mb_homology"]] == \
            [[], [2], []]

import random

import pytest

from mbhomology import chain
from mbhomology.chain import (
    ChainComplex,
    HomologyGroup,
    homology_at,
    validate_complex,
)
from mbhomology.exactalg import IntMatrix, _reduce, invariant_factors
from mbhomology.simplicial import SimplicialComplexData, chain_complex_of

from support import (
    ChainMap,
    brute_homology,
    chain_map_residuals,
    closed,
    degrees_of,
    from_blocks,
    mapping_cone,
    quasi_iso,
    random_complex,
    times_vector,
)


def point_complex():
    return ChainComplex(ranks={0: 1}, boundaries={})


def circle_complex():
    # 2 vertices, 2 parallel edges v0 -> v1
    d1 = IntMatrix.from_rows([[-1, -1], [1, 1]])
    return ChainComplex(ranks={0: 2, 1: 2}, boundaries={1: d1})


def times_two_complex():
    return ChainComplex(ranks={0: 1, 1: 1},
                        boundaries={1: IntMatrix.from_rows([[2]])})


class TestValidate:
    def test_point_valid(self):
        assert validate_complex(point_complex()) == []

    def test_two_term_valid(self):
        assert validate_complex(times_two_complex()) == []

    def test_nonzero_square(self):
        c = ChainComplex(ranks={0: 1, 1: 1, 2: 1},
                         boundaries={1: IntMatrix.from_rows([[1]]),
                                     2: IntMatrix.from_rows([[1]])})
        report = validate_complex(c)
        assert any("degree 2" in line for line in report)

    def test_shape_mismatch(self):
        # refused by the constructor: validate_complex checks only d o d
        with pytest.raises(ValueError, match=r"^degree 1: boundary shape "
                           r"\(1, 1\), expected \(2, 1\)$"):
            ChainComplex(ranks={0: 2, 1: 1},
                             boundaries={1: IntMatrix.from_rows([[1]])})

    def test_negative_rank(self):
        with pytest.raises(ValueError, match="^degree 1: negative rank -1$"):
            ChainComplex(ranks={0: 1, 1: -1}, boundaries={})


class TestHomologyGroup:
    def test_equal_groups_compare_and_hash_equal(self):
        a, b = HomologyGroup(1, (2,)), HomologyGroup(1, (2,))
        assert a == b and hash(a) == hash(b)
        assert a != HomologyGroup(1, ()) and a != HomologyGroup(0, (2,))
        assert a != (1, (2,))
        assert len({a, b, HomologyGroup(0, (2,))}) == 2

    def test_str(self):
        shown = [str(HomologyGroup(b, t)) for b, t in
                 ((0, ()), (1, ()), (3, ()), (0, (3,)), (2, (2, 4)))]
        assert shown == ["0", "Z", "Z^3", "Z/3", "Z^2 ⊕ Z/2 ⊕ Z/4"]

    def test_immutable(self):
        h = HomologyGroup(1, ())
        with pytest.raises(AttributeError):
            h.betti = 2
        with pytest.raises(AttributeError):
            del h.torsion
        with pytest.raises(AttributeError):
            h.rank = 1
        assert h == HomologyGroup(1, ())


class TestHomology:
    def test_point(self):
        c = point_complex()
        below, h0, h1 = homology_at(c, range(-1, 2))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(0, ())
        assert below == HomologyGroup(0, ())

    def test_circle(self):
        c = circle_complex()
        h0, h1 = homology_at(c, range(2))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(1, ())

    def test_times_two(self):
        c = times_two_complex()
        h0, h1 = homology_at(c, range(2))
        assert h0 == HomologyGroup(0, (2,))
        assert h1 == HomologyGroup(0, ())

    def test_torsion_order(self):
        d1 = IntMatrix.from_rows([[4, 0], [0, 2]])
        c = ChainComplex(ranks={0: 2, 1: 2}, boundaries={1: d1})
        [h0] = homology_at(c, [0])
        assert h0.torsion == (2, 4)

    def test_generators_are_cycles_with_unit_classes(self):
        # the loop a - b is a cycle whose class generates H_1 = Z: the map
        # from Z in degree 1 that picks it out is an isomorphism on H_1,
        # so its mapping cone has no homology in degrees 1 and 2, while
        # H_0 of the circle, which the map misses, survives in degree 0
        c = circle_complex()
        loop = (1, -1)
        assert times_vector(c.boundary(1), loop) == (0, 0)
        line = ChainComplex(ranks={1: 1}, boundaries={})
        pick = ChainMap(source=line, target=c,
                        components={1: IntMatrix.from_rows([[1], [-1]])})
        cone = mapping_cone(pick)
        assert [str(h) for h in homology_at(cone, range(3))] == \
            ["Z", "0", "0"]
        # twice the loop is a cycle too, but not a generator
        twice = ChainMap(source=line, target=c,
                         components={1: IntMatrix.from_rows([[2], [-2]])})
        [h1] = homology_at(mapping_cone(twice), [1])
        assert str(h1) == "Z/2"

    def test_brute_force_randomized(self):
        # one pass over the stored degrees and the one on either side
        for seed in range(100):
            rng = random.Random(seed)
            c = random_complex(rng)
            assert validate_complex(c) == []
            lo, hi = c.degree_range
            degrees = range(lo - 1, hi + 2)
            for k, h in zip(degrees, homology_at(c, degrees), strict=True):
                betti, torsion = brute_homology(c, k)
                assert (h.betti, h.torsion) == (betti, torsion), (seed, k)

    def test_rejects_nonzero_square(self):
        # homology_at takes its argument to be a chain complex; for a
        # hand-built one, validate_complex is the check that refuses it
        c = ChainComplex(ranks={0: 1, 1: 1, 2: 1},
                         boundaries={1: IntMatrix.from_rows([[1]]),
                                     2: IntMatrix.from_rows([[1]])})
        assert validate_complex(c) == ["degree 2: d o d != 0"]

    def test_makes_no_boundary_product(self, monkeypatch):
        # d o d = 0 is the caller's to check, so homology_at multiplies no
        # matrices at all
        def refused(self, other):
            raise AssertionError("homology_at multiplied two matrices")

        monkeypatch.setattr(IntMatrix, "__matmul__", refused)
        for seed in range(100):
            c = random_complex(random.Random(seed))
            lo, hi = c.degree_range
            assert len(homology_at(c, range(lo - 1, hi + 2))) == hi - lo + 3

    def test_groups_take_two_smith_forms(self, monkeypatch):
        # each group reads the invariant factors of d_k and d_{k+1}, and
        # nothing else: chain does not import snf at all.  Over a degree
        # range the groups share them, so each stored one of d_{hi+1} ..
        # d_lo is reduced exactly once, from the top down, each d_k without
        # the columns that the unit pivots of d_{k+1} cleared; an absent
        # d_k is zero, has no invariant factors and is not reduced
        seen = []

        def counted(a, cleared=()):
            seen.append((a, set(cleared)))
            return _reduce(a, cleared)

        monkeypatch.setattr(chain, "_reduce", counted)
        assert not hasattr(chain, "snf")
        c = random_complex(random.Random(3), max_total_rank=20)
        lo, hi = c.degree_range
        assert hi > lo and hi + 1 not in c.boundaries
        homology_at(c, degrees_of(c))
        stored = [k for k in range(hi + 1, lo - 1, -1) if k in c.boundaries]
        assert [a for a, _ in seen] == [c.boundaries[k] for k in stored]
        for k, (_, cleared) in zip(stored, seen):
            above = c.boundaries.get(k + 1)
            assert cleared == (set() if above is None
                               else set(_reduce(above)[1]))
        assert any(cleared for _, cleared in seen)

    def test_torus_d1_sees_only_uncleared_columns(self, monkeypatch):
        # every pivot of the torus d_2 is a unit, one per triangle but one:
        # d_1 is reduced on the edges those pivots did not clear
        n = 4
        tris = []
        for i in range(n):
            for j in range(n):
                a, b = i * n + j, ((i + 1) % n) * n + j
                c, d = i * n + (j + 1) % n, ((i + 1) % n) * n + (j + 1) % n
                tris += [(a, b, d), (a, c, d)]
        c = chain_complex_of(
            SimplicialComplexData.from_simplices(closed(tris)))
        seen = {}

        def counted(a, cleared=()):
            seen[a.cols] = set(cleared)
            return _reduce(a, cleared)

        monkeypatch.setattr(chain, "_reduce", counted)
        groups = homology_at(c, range(3))
        assert [str(h) for h in groups] == ["Z", "Z^2", "Z"]
        factors, pivots = _reduce(c.boundary(2))
        assert factors == (1,) * (2 * n * n - 1) == (1,) * len(pivots)
        cleared = seen[c.rank(1)]
        assert cleared == set(pivots)
        assert c.rank(1) - len(cleared) == n * n + 1

    def test_clearing_changes_no_invariant_factor(self):
        # each d_k without the columns cleared by d_{k+1} has the invariant
        # factors of the whole d_k, and the groups match the oracle
        for seed in range(300):
            c = random_complex(random.Random(5000 + seed),
                               max_total_rank=12 if seed % 2 else 24)
            lo, hi = c.degree_range
            for k in range(lo, hi + 1):
                _, pivots = _reduce(c.boundary(k + 1))
                assert _reduce(c.boundary(k), set(pivots))[0] == \
                    invariant_factors(c.boundary(k)), (seed, k)
            degrees = range(lo - 1, hi + 2)
            for k, h in zip(degrees, homology_at(c, degrees), strict=True):
                assert (h.betti, h.torsion) == brute_homology(c, k), (seed, k)

    def test_matches_presentation_randomized(self):
        # the groups path against the sympy oracle; every other seed draws
        # a larger complex, so more torsion pieces get mixed
        for seed in range(500):
            rng = random.Random(9000 + seed)
            c = random_complex(rng, max_total_rank=12 if seed % 2 else 30)
            lo, hi = c.degree_range
            degrees = range(lo - 1, hi + 2)
            for k, h in zip(degrees, homology_at(c, degrees), strict=True):
                assert (h.betti, h.torsion) == brute_homology(c, k), (seed, k)

    def test_basis_permutation_invariance(self):
        for seed in range(30):
            rng = random.Random(7000 + seed)
            c = random_complex(rng)
            ranks = dict(c.ranks)
            bnds = dict(c.boundaries)
            c2 = ChainComplex(ranks=ranks, boundaries=bnds)
            from support import scramble_basis
            scramble_basis(rng, c2, steps=10)
            lo, hi = c.degree_range
            degrees = range(lo - 1, hi + 2)
            for k, h, h2 in zip(degrees, homology_at(c, degrees),
                                homology_at(c2, degrees), strict=True):
                assert h == h2, (seed, k)
                assert (h2.betti, h2.torsion) == brute_homology(c, k), \
                    (seed, k)


def identity_map(c):
    return ChainMap(source=c, target=c,
                    components={k: IntMatrix.identity(c.rank(k))
                                for k in degrees_of(c)})


def is_chain_map(f):
    return all(r.is_zero() for r in chain_map_residuals(f).values())


class TestInducedMap:
    """Isomorphism on homology, read through the mapping cone."""

    def test_identity(self):
        assert quasi_iso(identity_map(circle_complex()))

    def test_zero(self):
        c = circle_complex()
        assert not quasi_iso(ChainMap(source=c, target=c, components={}))

    def test_degree_two_self_map(self):
        # wrap the circle twice: each edge maps to the full loop a - b,
        # vertices collapse to v0; the fundamental cycle a - b goes to twice
        # itself, so the cone keeps the cokernel Z/2 of H_1 and nothing of
        # H_0, where the map is the identity
        c = circle_complex()
        f0 = IntMatrix.from_rows([[1, 1], [0, 0]])
        f1 = IntMatrix.from_rows([[1, -1], [-1, 1]])
        f = ChainMap(source=c, target=c, components={0: f0, 1: f1})
        assert is_chain_map(f)
        cone = mapping_cone(f)
        h0, h1, h2 = homology_at(cone, range(3))
        assert h1 == HomologyGroup(0, (2,))
        assert h0 == HomologyGroup(0, ())
        assert h2 == HomologyGroup(0, ())
        assert not quasi_iso(f)

    def test_rejects_non_chain_map(self):
        c = circle_complex()
        bad = ChainMap(source=c, target=c,
                       components={1: IntMatrix.from_rows([[1, 0], [0, 0]])})
        with pytest.raises(ValueError, match="not a chain map"):
            quasi_iso(bad)


class TestCone:
    def test_from_blocks_against_dense_reference(self):
        # the block assembly behind every cone boundary, against plain
        # nested lists
        for seed in range(60):
            rng = random.Random(6000 + seed)
            row_sizes = [rng.randint(0, 3) for _ in range(2)]
            col_sizes = [rng.randint(0, 3) for _ in range(3)]
            blocks = [[None if rng.random() < 0.3 else
                       [[rng.randint(-4, 4) if rng.random() < 0.5 else 0
                         for _ in range(c)] for _ in range(r)]
                       for c in col_sizes]
                      for r in row_sizes]
            want = [[0] * sum(col_sizes) for _ in range(sum(row_sizes))]
            r0 = 0
            for bi, r in enumerate(row_sizes):
                c0 = 0
                for bj, c in enumerate(col_sizes):
                    for i, row in enumerate(blocks[bi][bj] or ()):
                        want[r0 + i][c0:c0 + c] = row
                    c0 += c
                r0 += r
            got = from_blocks(
                [[None if blk is None else IntMatrix(len(blk), c, blk)
                  for blk, c in zip(row, col_sizes)] for row in blocks],
                row_sizes, col_sizes)
            assert got.data == tuple(tuple(row) for row in want)
            assert got == IntMatrix(sum(row_sizes), sum(col_sizes), want)
            assert all(x for col in got.columns for x in col.values())

    def test_identity_cone_acyclic(self):
        c = circle_complex()
        assert quasi_iso(identity_map(c))

    def test_zero_map_between_acyclic(self):
        c = ChainComplex(ranks={0: 1, 1: 1},
                         boundaries={1: IntMatrix.from_rows([[1]])})
        f = ChainMap(source=c, target=c, components={})
        assert quasi_iso(f)

    def test_point_into_circle(self):
        pt = point_complex()
        c = circle_complex()
        incl = ChainMap(source=pt, target=c,
                        components={0: IntMatrix.from_rows([[1], [0]])})
        assert is_chain_map(incl)
        cone = mapping_cone(incl)
        assert validate_complex(cone) == []
        assert not quasi_iso(incl)

    def test_torsion_counterexample(self):
        # doubling on degree 1 of (Z --2--> Z): H_0 groups agree but the
        # induced map on Z/2 is zero
        c = times_two_complex()
        f = ChainMap(source=c, target=c,
                     components={0: IntMatrix.identity(1),
                                 1: IntMatrix.from_rows([[2]])})
        # not a chain map: d(2x) = 4x != 2x. Use the valid one: multiply
        # both degrees by 2.
        f = ChainMap(source=c, target=c,
                     components={0: IntMatrix.from_rows([[2]]),
                                 1: IntMatrix.from_rows([[2]])})
        assert is_chain_map(f)
        assert not quasi_iso(f)
        # the map is zero on H_0 = Z/2, so the cone keeps its kernel and
        # its cokernel
        cone = mapping_cone(f)
        assert brute_homology(cone, 0) == (0, (2,))
        assert brute_homology(cone, 1) == (0, (2,))

    def test_quasi_iso_matches_induced_iso_randomized(self):
        # the answer is known by construction: the identity and its
        # homotopy perturbations are quasi-isomorphisms, and the zero map
        # is one exactly when the complex has no homology
        for seed in range(100):
            rng = random.Random(5000 + seed)
            c = random_complex(rng, max_total_rank=8)
            kind = rng.random()
            want = True
            if kind < 0.35:
                f = identity_map(c)
            elif kind < 0.7:
                # homotopy perturbation of the identity: id + d h + h d
                comps = {}
                h = {k: IntMatrix(c.rank(k + 1), c.rank(k),
                                  [[rng.randint(-1, 1)
                                    for _ in range(c.rank(k))]
                                   for _ in range(c.rank(k + 1))])
                     for k in degrees_of(c)}
                for k in degrees_of(c):
                    hk = h[k]
                    hk1 = h.get(k - 1, IntMatrix.zeros(c.rank(k), c.rank(k - 1)))
                    comps[k] = (IntMatrix.identity(c.rank(k))
                                + c.boundary(k + 1) @ hk
                                + hk1 @ c.boundary(k))
                f = ChainMap(source=c, target=c, components=comps)
            else:
                f = ChainMap(source=c, target=c, components={})
                want = all(brute_homology(c, k) == (0, ())
                           for k in degrees_of(c))
            assert is_chain_map(f), seed
            assert quasi_iso(f) == want, seed

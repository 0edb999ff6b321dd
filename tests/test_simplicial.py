import json
import random
from itertools import combinations

import pytest

from mbhomology.chain import HomologyGroup, homology_at, validate_complex
from mbhomology.exactalg import IntMatrix
from mbhomology.simplicial import (
    CoveringError,
    NoFundamentalCycle,
    SimplicialComplexData,
    SimplicialMap,
    chain_complex_of,
    check_covering,
    fundamental_cycle,
)

from support import (
    chain_to_vector,
    closed,
    count_walks,
    covering_lifts,
    covering_pullback,
    cycle_chain,
    facet_table,
    formed_faces,
    image_simplex,
    index_of,
    listed_by_dim,
    load_file,
    matrix_of_pullback,
    matrix_of_pushforward,
    pushforward,
    times_vector,
)


def triangle_circle():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1), (1, 2), (0, 2)]))


def hexagon_circle():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]))


def full_2_simplex():
    return SimplicialComplexData.from_simplices(closed([(0, 1, 2)]))


# the six-vertex real projective plane and a six-triangle annulus
RP2 = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
       (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]
ANNULUS = [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]


def top_components(tops):
    """A label per top simplex, equal for simplices joined by a chain of
    shared ridges."""
    label = list(range(len(tops)))

    def find(t):
        while label[t] != t:
            t = label[t]
        return t

    sharing = {}
    for t, s in enumerate(tops):
        for ridge in combinations(s, len(s) - 1):
            sharing.setdefault(ridge, []).append(t)
    for first, *rest in sharing.values():
        for t in rest:
            label[find(t)] = find(first)
    return [find(t) for t in range(len(tops))]


def sphere_bd3():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]))


def boundary_of(k, d, chain):
    """The boundary of a degree-d sparse chain on k, as a dense vector in
    the lexicographic basis of degree d - 1."""
    return times_vector(chain_complex_of(k).boundary(d),
                        chain_to_vector(k, d, chain))


def sheets(f):
    """Number of lifts over each target simplex of a covering."""
    counts = {len(up) for up in covering_lifts(f).values()}
    assert len(counts) == 1
    return counts.pop()


def hexagon_to_triangle():
    return SimplicialMap(hexagon_circle(), triangle_circle(),
                         vertex_image=[0, 1, 2, 0, 1, 2])


class TestChainComplexOf:
    def test_full_2_simplex_contractible(self):
        c = chain_complex_of(full_2_simplex())
        assert validate_complex(c) == []
        h0, h1, h2 = homology_at(c, range(3))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(0, ())
        assert h2 == HomologyGroup(0, ())

    def test_triangle_circle(self):
        c = chain_complex_of(triangle_circle())
        assert c.rank(0) == 3 and c.rank(1) == 3
        assert validate_complex(c) == []
        h0, h1 = homology_at(c, range(2))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(1, ())

    def test_sphere(self):
        c = chain_complex_of(sphere_bd3())
        assert validate_complex(c) == []
        # Euler characteristic 4 - 6 + 4 = 2 and connectivity pin the rest
        h0, h1, h2 = homology_at(c, range(3))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(0, ())
        assert h2 == HomologyGroup(1, ())

    def test_rejects_malformed(self):
        # the constructor refuses a listing not closed under faces, so no
        # complex that reaches chain_complex_of misses a face; a vertex
        # outside the range is refused
        for build in (SimplicialComplexData,
                      lambda n, listed: SimplicialComplexData.from_simplices(
                          listed, vertex_count=n)):
            with pytest.raises(ValueError) as err:
                build(3, [(0, 1)])
            assert str(err.value) == \
                "malformed complex: face (0,) is not listed"
        k = SimplicialComplexData(3, [(0, 1), (1,), (0,)])
        assert list(k.all_simplices()) == [(0,), (1,), (0, 1)]
        assert k == SimplicialComplexData.from_simplices(
            closed([(0, 1)]), vertex_count=3)
        for vertex in (3, -1):
            with pytest.raises(ValueError, match="outside range"):
                SimplicialComplexData(3, [(0, vertex)])
            with pytest.raises(ValueError, match="outside range"):
                SimplicialComplexData.from_simplices([(0, vertex)],
                                                     vertex_count=3)


class TestFundamentalCycle:
    def test_triangle(self):
        k = triangle_circle()
        # the three coherence equations force this up to global sign, and
        # the lowest edge is normalized to +1; the circle has no boundary
        assert fundamental_cycle(k) == ((1, -1, 1), ())
        assert cycle_chain(k) == {(0, 1): 1, (1, 2): 1, (0, 2): -1}
        assert not any(boundary_of(k, 1, cycle_chain(k)))

    def test_single_vertex(self):
        k = SimplicialComplexData.from_simplices([(0,)])
        assert fundamental_cycle(k) == ((1,), ())

    def test_interval_relative(self):
        k = SimplicialComplexData.from_simplices(closed([(0, 1), (1, 2)]))
        assert fundamental_cycle(k) == ((1, 1), ((0,), (2,)))
        assert boundary_of(k, 1, cycle_chain(k)) == \
            chain_to_vector(k, 0, {(0,): -1, (2,): 1})

    def test_sphere_closed(self):
        k = sphere_bd3()
        coefficients, boundary = fundamental_cycle(k)
        assert not any(boundary_of(k, 2, cycle_chain(k)))
        assert set(coefficients) <= {1, -1} and boundary == ()

    def test_relative_boundary_is_sum_of_face_cycles(self):
        # boundary of the relative cycle = signed fundamental cycles of the
        # boundary components
        k = full_2_simplex()
        bdry = boundary_of(k, 2, cycle_chain(k))
        rim = chain_to_vector(k, 1, cycle_chain(triangle_circle()))
        assert bdry == rim or bdry == tuple(-c for c in rim)

    def test_projective_plane_not_orientable(self):
        rp2 = SimplicialComplexData.from_simplices(closed(RP2))
        # sanity: closed and has the Z/2 in H_1 that witnesses
        # non-orientability
        [h1] = homology_at(chain_complex_of(rp2), [1])
        assert h1.torsion == (2,)
        with pytest.raises(NoFundamentalCycle):
            fundamental_cycle(rp2)

    def test_annulus_relative_cycle(self):
        annulus = SimplicialComplexData.from_simplices(closed(ANNULUS))
        bdry = boundary_of(annulus, 2, cycle_chain(annulus))
        assert tuple(s for s, c in zip(annulus.simplices_of_dim(1), bdry)
                     if c) == fundamental_cycle(annulus)[1]
        assert not any(
            times_vector(chain_complex_of(annulus).boundary(1), bdry))

    def test_non_pseudomanifold(self):
        k = SimplicialComplexData.from_simplices(
            closed([(0, 1), (1, 2), (1, 3)]))
        with pytest.raises(NoFundamentalCycle):
            fundamental_cycle(k)

    def test_relabelling_changes_each_sign_by_its_sort(self):
        # a vertex permutation sends top simplex s to sorted(perm(s)); the
        # coefficient there is that of s times the sign of the sort, times
        # one sign per connected component (each component's first top
        # simplex is +1 in either labelling).  The boundary ridges go onto
        # the relabelled ones, and RP^2 stays not orientable.  The shapes
        # are the benchmark's grid tori, the annulus, and the annulus beside
        # the boundary of a tetrahedron (two components)
        tori = [load_file("perfbench/workloads.py").torus_triangles(n)
                for n in range(3, 7)]
        tetrahedron = list(combinations(range(6, 10), 3))
        shapes = [*tori, ANNULUS, ANNULUS + tetrahedron]
        seen = set()
        for seed in range(60):
            rng = random.Random(seed)
            tops = shapes[seed % len(shapes)]
            k = SimplicialComplexData.from_simplices(closed(tops))
            perm = rng.sample(range(k.vertex_count), k.vertex_count)
            moved = SimplicialComplexData.from_simplices(
                closed([[perm[v] for v in s] for s in tops]), k.vertex_count)
            coefficients, boundary = fundamental_cycle(k)
            moved_coefficients, moved_boundary = fundamental_cycle(moved)
            component = top_components(k.simplices_of_dim(k.top_dim))
            signs = {}
            for s, c, label in zip(k.simplices_of_dim(k.top_dim),
                                   coefficients, component):
                image = [perm[v] for v in s]
                inversions = sum(a > b for i, a in enumerate(image)
                                 for b in image[i + 1:])
                t = index_of(moved, sorted(image))
                sign = moved_coefficients[t] * (-1) ** inversions * c
                assert signs.setdefault(label, sign) == sign, seed
            seen.update(signs.values())
            if len(set(signs.values())) > 1:
                seen.add("components differ")
            assert moved_boundary == tuple(sorted(
                tuple(sorted(perm[v] for v in r)) for r in boundary)), seed
            relabel = rng.sample(range(6), 6)
            rp2 = SimplicialComplexData.from_simplices(
                closed([[relabel[v] for v in s] for s in RP2]))
            with pytest.raises(NoFundamentalCycle, match="not orientable"):
                fundamental_cycle(rp2)
        assert seen == {1, -1, "components differ"}

    def test_kept_on_the_complex_and_errors_are_not(self, monkeypatch):
        # one walk per complex object, however often it is asked; an equal
        # complex is a second object and is walked again, and a refusal is
        # raised again on every call
        walks = count_walks(monkeypatch)
        k = sphere_bd3()
        first = fundamental_cycle(k)
        assert fundamental_cycle(k) is first and walks == [k]
        assert fundamental_cycle(sphere_bd3()) == first and len(walks) == 2
        bad = SimplicialComplexData.from_simplices(
            closed([(0, 1), (1, 2), (1, 3)]))
        for _ in range(2):
            with pytest.raises(NoFundamentalCycle, match="lies in 3 top"):
                fundamental_cycle(bad)
        assert walks[2:] == [bad, bad]


class TestSimplicialMap:
    def test_vertex_image_becomes_a_tuple(self):
        f = SimplicialMap(hexagon_circle(), triangle_circle(),
                          vertex_image=[0, 1, 2, 0, 1, 2])
        assert f.vertex_image == (0, 1, 2, 0, 1, 2)

    @pytest.mark.parametrize("image, message", [
        ([0, 1], "vertex map covers 2 of 3 vertices"),
        ([0, 1, 3], "image vertex 3 outside target"),
    ])
    def test_rejects_bad_vertex_image(self, image, message):
        with pytest.raises(ValueError, match=message):
            SimplicialMap(triangle_circle(), triangle_circle(), image)

    def test_rejects_image_off_the_target(self):
        edge = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        apart = SimplicialComplexData.from_simplices([(0,), (1,)])
        with pytest.raises(ValueError, match="is not a simplex"):
            SimplicialMap(edge, apart, [0, 1])

    def test_image_simplex_matches_brute_force(self):
        # increasing, decreasing, constant, relabelling and arbitrary
        # vertex maps between random complexes, the target listing made to
        # hold every image half of the time: a simplex whose image repeats
        # a vertex collapses to (None, 0), any other maps to its sorted
        # image with the parity of the image's inversions, and the first
        # image off the target is refused by name
        seen = set()
        for seed in range(400):
            rng = random.Random(seed)
            source = SimplicialComplexData.from_simplices(
                closed(random_listed(rng)))
            n = source.vertex_count
            m = rng.randint(n, n + 3)
            kind = rng.choice(("increasing", "decreasing", "constant",
                               "relabelling", "arbitrary"))
            image = {
                "increasing": lambda: sorted(rng.sample(range(m), n)),
                "decreasing": lambda: sorted(rng.sample(range(m), n))[::-1],
                "constant": lambda: [rng.randrange(m)] * n,
                "relabelling": lambda: rng.sample(range(m), n),
                "arbitrary": lambda: [rng.randrange(m) for _ in range(n)],
            }[kind]()
            listed = closed(random_listed(rng, m))
            if rng.random() < 0.5:
                listed += [[image[v] for v in s]
                           for s in source.all_simplices()]
            target = SimplicialComplexData.from_simplices(listed, m)
            want = {}
            for s in source.all_simplices():
                spanned = tuple(sorted({image[v] for v in s}))
                if spanned not in target.simplices_of_dim(len(spanned) - 1):
                    want = (f"image {spanned} of {s} is not a simplex of "
                            "the target")
                    break
                if len(spanned) < len(s):
                    want[s] = (None, 0)
                else:
                    inversions = sum(image[a] > image[b] for i, a in
                                     enumerate(s) for b in s[i + 1:])
                    want[s] = (spanned, (-1) ** inversions)
            if isinstance(want, str):
                with pytest.raises(ValueError) as err:
                    SimplicialMap(source, target, image)
                assert str(err.value) == want, seed
                seen.add("refused")
                continue
            f = SimplicialMap(source, target, image)
            assert {s: image_simplex(f, s) for s in want} == want, seed
            seen.add(kind)
            seen.update(sign for _, sign in want.values())
        assert seen == {"increasing", "decreasing", "constant",
                        "relabelling", "arbitrary", "refused", 1, -1, 0}


class TestPushforward:
    def test_identity(self):
        k = triangle_circle()
        f = SimplicialMap(k, k, vertex_image=[0, 1, 2])
        chain = {(0, 1): 3, (0, 2): -1}
        assert pushforward(f, chain) == chain

    def test_constant_collapses_edge(self):
        k = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        pt = SimplicialComplexData.from_simplices([(0,)])
        f = SimplicialMap(k, pt, vertex_image=[0, 0])
        assert pushforward(f, {(0, 1): 1}) == {}

    def test_hexagon_double_cover(self):
        f = hexagon_to_triangle()
        doubled = pushforward(f, cycle_chain(hexagon_circle()))
        base = cycle_chain(triangle_circle())
        assert doubled == {s: 2 * c for s, c in base.items()}

    def test_orientation_sign(self):
        k = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        m = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        f = SimplicialMap(k, m, vertex_image=[1, 0])
        assert pushforward(f, {(0, 1): 1}) == {(0, 1): -1}


class TestCoveringPullback:
    def test_identity(self):
        k = triangle_circle()
        f = SimplicialMap(k, k, vertex_image=[0, 1, 2])
        assert sheets(f) == 1
        chain = {(0, 1): 2, (1, 2): -5}
        assert covering_pullback(f, chain) == chain

    def test_hexagon_edge_lifts(self):
        f = hexagon_to_triangle()
        assert sheets(f) == 2
        lifted = covering_pullback(f, {(0, 1): 1})
        assert lifted == {(0, 1): 1, (3, 4): 1}
        # a lift hitting a descending edge picks up the sorting sign
        lifted = covering_pullback(f, {(0, 2): 1})
        assert lifted == {(2, 3): -1, (0, 5): 1}

    def test_disjoint_double(self):
        two = SimplicialComplexData.from_simplices(
            closed([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
        f = SimplicialMap(two, triangle_circle(),
                          vertex_image=[0, 1, 2, 0, 1, 2])
        assert sheets(f) == 2
        base = cycle_chain(triangle_circle())
        lifted = covering_pullback(f, base)
        assert lifted == cycle_chain(two)

    def test_rejects_collapse(self):
        k = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        pt = SimplicialComplexData.from_simplices([(0,)])
        f = SimplicialMap(k, pt, vertex_image=[0, 0])
        with pytest.raises(CoveringError):
            covering_pullback(f, {(0,): 1})

    def test_rejects_uneven_sheets(self):
        # two edges glued over one: vertex counts match but lifting fails
        src = SimplicialComplexData.from_simplices(closed([(0, 1), (0, 2)]))
        tgt = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        f = SimplicialMap(src, tgt, vertex_image=[0, 1, 1])
        with pytest.raises(CoveringError) as err:
            covering_lifts(f)
        assert err.value.witness is not None

    def test_pushforward_of_pullback_scales_by_sheets(self):
        f = hexagon_to_triangle()
        base = cycle_chain(triangle_circle())
        assert pushforward(f, covering_pullback(f, base)) == \
            {s: 2 * c for s, c in base.items()}


def random_subcomplex(rng, max_vertices=5):
    n = rng.randint(1, max_vertices)
    candidates = []
    for size in (2, 3):
        from itertools import combinations
        candidates.extend(combinations(range(n), size))
    picked = [s for s in candidates if rng.random() < 0.5]
    picked.extend((v,) for v in range(n))
    return SimplicialComplexData.from_simplices(closed(picked))


class TestChainMapProperties:
    def test_pushforward_commutes_with_boundary_randomized(self):
        for seed in range(100):
            rng = random.Random(seed)
            src = random_subcomplex(rng)
            # random simplicial self-map: monotone relabel attempts,
            # filtered by validity
            for _ in range(10):
                image = [rng.randrange(src.vertex_count)
                         for _ in range(src.vertex_count)]
                try:
                    f = SimplicialMap(src, src, vertex_image=image)
                    break
                except ValueError:
                    continue
            else:
                f = SimplicialMap(src, src,
                                  vertex_image=list(range(src.vertex_count)))
            cs = chain_complex_of(src)
            for d in range(1, src.top_dim + 1):
                lhs = cs.boundary(d) @ matrix_of_pushforward(f, d)
                rhs = matrix_of_pushforward(f, d - 1) @ cs.boundary(d)
                assert lhs == rhs, (seed, d)

    def test_pullback_commutes_with_boundary(self):
        f = hexagon_to_triangle()
        csrc = chain_complex_of(f.source)
        ctgt = chain_complex_of(f.target)
        assert csrc.boundary(1) @ matrix_of_pullback(f, 1) == \
            matrix_of_pullback(f, 0) @ ctgt.boundary(1)

    def test_degree_d_circle_map_scales_fundamental_cycle(self):
        f = hexagon_to_triangle()
        # collapsing hexagon onto triangle is degree 2: push the hexagon
        # cycle and compare against twice the target cycle (covered above);
        # here check a degree-1 simplicial circle map
        tri = triangle_circle()
        g = SimplicialMap(tri, tri, vertex_image=[1, 2, 0])
        pushed = pushforward(g, cycle_chain(tri))
        target = cycle_chain(tri)
        assert pushed in (target, {s: -c for s, c in target.items()})


class TestVectorHelpers:
    def test_chain_to_vector_roundtrip(self):
        k = triangle_circle()
        vec = chain_to_vector(k, 1, cycle_chain(k))
        assert vec == (1, -1, 1)  # edges sorted (0,1), (0,2), (1,2)

    def test_pushforward_matrix_shapes(self):
        f = hexagon_to_triangle()
        m = matrix_of_pushforward(f, 1)
        assert m.shape == (3, 6)
        m = matrix_of_pullback(f, 1)
        assert m.shape == (6, 3)


def random_listed(rng, max_vertices=7):
    """Random simplices of up to four vertices on 0..n-1, at least one."""
    n = rng.randint(1, max_vertices)
    picked = [s for size in (1, 2, 3, 4) for s in combinations(range(n), size)
              if rng.random() < 0.15]
    return picked or [(0,)]


class TestFacetTable:
    def test_closure_and_facets_match_combinations(self):
        # a listing closed under faces is the complex, and facet i of a
        # simplex omits vertex i: combinations lists the same faces,
        # omitting the last vertex first.  The same complex, index and facet
        # table come from the listing shuffled, with each simplex reversed,
        # or with repeats
        for seed in range(300):
            rng = random.Random(seed)
            listed = closed(random_listed(rng))
            k = SimplicialComplexData.from_simplices(listed)
            assert list(k.all_simplices()) == listed, seed
            assert set(k._facets) == set(range(1, k.top_dim + 1))
            for d, table in k._facets.items():
                below = k.simplices_of_dim(d - 1)
                for s, facets in zip(k.simplices_of_dim(d), table,
                                     strict=True):
                    assert [below[f] for f in facets] == \
                        list(combinations(s, d))[::-1], (seed, s)
            shuffled = rng.sample(listed, len(listed))
            repeated = listed + rng.choices(listed, k=len(listed))
            for variant in (shuffled, [s[::-1] for s in listed], repeated):
                other = SimplicialComplexData(k.vertex_count, variant)
                assert other == k, (seed, variant)
                assert other._index == k._index, (seed, variant)
                assert other._facets == k._facets, (seed, variant)

    def test_listings_normalize_as_the_reference_loop(self):
        # the C-level passes give the complex that support.listed_by_dim
        # reads, with every vertex an int, or refuse with its exception and
        # text, on tuples, lists and listings that only int() accepts.  A
        # random listing mostly misses a face, and its face closure is
        # accepted
        listings = []
        for seed in range(100):
            listed = random_listed(random.Random(seed))
            n = 1 + max(map(max, listed))
            listings += [(n, listed), (n, closed(listed)),
                         (n, [list(s) for s in closed(listed)]),
                         (n, tuple(map(list, listed))),
                         (n - 1, closed(listed))]
        listings += [
            (3, [[True, False], [True]]), (3, [(0, 2), [False, 1]]),
            (3, [["0", "2"], ["1", " 2 "]]), (4, [[0.0, 2.9], [3.5, 1.0]]),
            (3, [range(3), {1, 0}]), (3, ((0, 1), (1, 2), (2, 0))),
            (3, [[], [-1]]), (3, [[-1], [5]]), (3, [[5], ["x"]]),
            (3, [[0], [None]]), (3, [[0], 1]), (3, [[0], []]),
            (3, [[0, 1], [1.5, -2]]), (0, []), (2, [[1, 1, 0], (0, 0)]),
            (2, [[1, 1, 0], (0, 0), [1], (0, 1, 1)]), (3, [[2, 1], [2]]),
            (3, [[0, 1, 2], [0, 1], [0, 2], [0], [1], [2]]),
        ]
        outcomes = set()
        for n, listing in listings:
            try:
                by_dim = listed_by_dim(n, listing)
            except (TypeError, ValueError) as err:
                with pytest.raises(type(err)) as got:
                    SimplicialComplexData(n, listing)
                assert str(got.value) == str(err), listing
                outcomes.add(str(err).split(" ")[-1])
                continue
            k = SimplicialComplexData(n, listing)
            assert set(k.all_simplices()) == set().union(
                *by_dim.values()), listing
            assert {type(v) for s in k.all_simplices() for v in s} <= {int}
            outcomes.add("accepted")
        assert {"accepted", "listed", "range", "simplex"} <= outcomes
        for n, listing, message in (
                (3, [[], [-1]], "empty simplex"),
                (3, [[-1], [5]], "malformed complex: (-1,) uses vertices "
                 "outside range"),
                # a vertex outside the range before a missing face, and the
                # missing face of the lowest dimension first, whatever the
                # listing order
                (3, [[0, 1], [0, 5]], "malformed complex: (5,) uses "
                 "vertices outside range"),
                (3, [[0, 1, 2], [1, 2]], "malformed complex: face (1,) is "
                 "not listed"),
                (3, [[0, 1, 2], [0, 1], [0], [1], [2]], "malformed "
                 "complex: face (0, 2) is not listed"),
                # every vertex is converted before the empty simplex is
                # refused, where the reference loop stops at the empty one
                (3, [[], ["x"]], "invalid literal for int() with base 10: "
                 "'x'")):
            with pytest.raises(ValueError) as err:
                SimplicialComplexData(n, listing)
            assert str(err.value) == message

    @staticmethod
    def assert_as_reference(n, listing):
        """The constructor gives the complex of support.listed_by_dim, and
        the index and facet table that support.facet_table builds from it
        with `combinations`, or refuses with the reference's exception."""
        try:
            by_dim = listed_by_dim(n, listing)
        except (TypeError, ValueError) as err:
            with pytest.raises(type(err)) as got:
                SimplicialComplexData(n, listing)
            assert str(got.value) == str(err), listing
            return str(err)
        k = SimplicialComplexData(n, listing)
        index, facets = facet_table(by_dim)
        assert k.simplices_by_dim == {d: tuple(sorted(by_dim[d]))
                                      for d in sorted(by_dim)}, listing
        assert list(k.simplices_by_dim) == sorted(by_dim), listing
        assert k._index == index and k._facets == facets, listing
        assert k.top_dim == max(by_dim, default=-1), listing
        return "accepted"

    def test_each_level_path_matches_the_references(self):
        # a level taken as listed, one sorted, one read again simplex by
        # simplex, and a refusal whose witness is not the first face that
        # the column-wise lookups miss
        outcomes = set()
        for seed in range(200):
            rng = random.Random(seed)
            listed = closed(random_listed(rng))
            n = 1 + max(map(max, listed))
            top = [s for s in listed if len(s) == len(listed[-1])]
            unsorted = list(listed)
            s = rng.choice(top)
            unsorted[unsorted.index(s)] = s[::-1]
            repeated = list(listed) + rng.choices(listed, k=3)
            s = rng.choice(listed)
            padded = list(listed) + [s + s[:1], s[::-1] + s]
            for listing in (listed, rng.sample(listed, len(listed)),
                            unsorted, repeated, padded,
                            [list(s) for s in reversed(listed)],
                            listed[:-1], rng.sample(listed, len(listed) - 1)):
                outcomes.add(self.assert_as_reference(n, listing))
        assert "accepted" in outcomes and len(outcomes) > 2
        # the lookups of the column omitting the last vertex meet (0, 3),
        # of (0, 1, 3), first; the walk meets (1, 2), of (0, 1, 2), first
        listing = [[0], [1], [2], [3], [0, 1], [0, 2], [1, 3], [0, 1, 2],
                   [0, 1, 3]]
        assert self.assert_as_reference(4, listing) == (
            "malformed complex: face (1, 2) is not listed")
        assert self.assert_as_reference(4, listing[::-1]) == (
            "malformed complex: face (1, 2) is not listed")

    @pytest.mark.parametrize("workload, size", [
        ("torus-grid", 5), ("torus-grid", 20), ("bott-twist", 3),
        ("dim-padded", 55)])
    def test_workload_listings_match_the_references(self, workload, size):
        # every listing of a benchmark document as json.loads returns it,
        # seeded as the benchmark seeds it
        wl = load_file("perfbench/workloads.py")
        for call in range(6 if workload == "dim-padded" else 2):
            doc = json.loads(json.dumps(wl.make(workload, 1, call, size)[0]))
            listings = [entry["complex"] for entry in doc["critical"]
                        if "complex" in entry]
            listings += [comp["domain"] for comp in doc.get("moduli", [])]
            assert listings
            for data in listings:
                assert self.assert_as_reference(
                    data["vertices"], data["simplices"]) == "accepted"

    def test_top_dim_is_stored_by_the_constructor(self):
        # -1 for an empty complex, otherwise the highest dimension listed,
        # held in a slot rather than derived on every read
        assert "top_dim" in SimplicialComplexData.__slots__
        assert SimplicialComplexData(0, []).top_dim == -1
        assert SimplicialComplexData(4, []).top_dim == -1
        for seed in range(100):
            listed = closed(random_listed(random.Random(seed)))
            k = SimplicialComplexData.from_simplices(listed)
            assert k.top_dim == max(len(s) for s in listed) - 1, seed
            assert k.top_dim == max(k.simplices_by_dim), seed

    def test_chain_complex_matches_brute_force(self):
        # the boundary read from the facet table against one summed face
        # by face, with the sign of the omitted vertex's position
        for seed in range(300):
            k = SimplicialComplexData.from_simplices(
                closed(random_listed(random.Random(seed))))
            c = chain_complex_of(k)
            for d in range(1, k.top_dim + 1):
                below = list(k.simplices_of_dim(d - 1))
                rows = [[0] * c.rank(d) for _ in below]
                for j, s in enumerate(k.simplices_of_dim(d)):
                    for i in range(d + 1):
                        face = tuple(v for t, v in enumerate(s) if t != i)
                        rows[below.index(face)][j] += (-1) ** i
                assert c.boundary(d) == IntMatrix(len(below), c.rank(d),
                                                  rows), (seed, d)

    @pytest.mark.parametrize("size", [20, 40])
    def test_vertices_outside_range_refused_before_closing(
            self, monkeypatch, size):
        # the constructor forms no face but the facets of the listed
        # simplices, each once, so its work follows the listing: closing an
        # n-vertex simplex would make 2^n - 1 faces.  A vertex outside the
        # range is refused before any face is formed, the lowest named; an
        # n-vertex simplex, or its n facets, after one face, the missing one
        formed = formed_faces(monkeypatch)
        top = tuple(range(size))
        for build in (SimplicialComplexData,
                      lambda n, listed: SimplicialComplexData.from_simplices(
                          listed, vertex_count=n)):
            for listing, message in (
                    ([range(size)], "(3,) uses vertices outside range"),
                    ([(0, 1), range(-2, size - 2)],
                     "(-2,) uses vertices outside range")):
                with pytest.raises(ValueError) as err:
                    build(3, listing)
                assert str(err.value) == f"malformed complex: {message}"
                assert formed == []
            for listing in ([top], list(combinations(top, size - 1))):
                s = listing[0]
                with pytest.raises(ValueError) as err:
                    build(size, listing)
                assert str(err.value) == (f"malformed complex: face {s[:-1]} "
                                          "is not listed")
                assert formed == [(s, s[:-1])]
                formed.clear()
        outcomes = set()
        for seed in range(300):
            rng = random.Random(seed)
            listed = random_listed(rng)
            if rng.random() < 0.5:
                listed = closed(listed)
            facets = sum(len(s) for s in listed if len(s) > 1)
            try:
                SimplicialComplexData.from_simplices(listed)
            except ValueError:
                outcomes.add("refused")
                assert len(formed) <= facets, seed
            else:
                outcomes.add("accepted")
                assert len(formed) == facets, seed
            assert all(s in listed and len(face) == len(s) - 1
                       and set(face) < set(s) for s, face in formed), seed
            formed.clear()
        assert outcomes == {"accepted", "refused"}

    def test_names_a_maximal_simplex(self):
        # of the simplices outside the faces of the tops, the first one in
        # the highest dimension is named, and it is maximal
        k = SimplicialComplexData.from_simplices(
            closed([(0, 1, 2, 3), (4, 5, 6), (7, 8)]))
        with pytest.raises(NoFundamentalCycle, match=r"\(4, 5, 6\) is "
                           "maximal below dimension 3"):
            fundamental_cycle(k)


def reference_lifts(f):
    """covering_lifts by the definition: images computed from the vertex
    map, and unique lifting judged by vertex sets."""
    lifts = {}
    for s in f.source.all_simplices():
        image = [f.vertex_image[v] for v in s]
        if len(set(image)) < len(image):
            return f"simplex {s} collapses under the map", s
        sign = (-1) ** sum(a > b for i, a in enumerate(image)
                           for b in image[i + 1:])
        lifts.setdefault(tuple(sorted(image)), []).append((s, sign))
    counts = [len(lifts.get(s, [])) for s in f.target.all_simplices()]
    for s, n in zip(f.target.all_simplices(), counts):
        if n != max(counts):
            return (f"target simplex {s} has {n} lifts while others have "
                    f"{max(counts)}", s)
    for s in f.target.all_simplices():
        for face in reversed(list(combinations(s, len(s) - 1))):
            for face_lift, _ in lifts.get(face, []) if face else ():
                n = sum(set(face_lift) <= set(up) for up, _ in lifts[s])
                if n != 1:
                    return (f"lift {face_lift} of {face} extends to {n} "
                            f"lifts of {s}", face)
    return lifts


class TestCoveringLiftsReference:
    def test_random_sheets_match_the_definition(self):
        # k copies of a random complex, some simplices lifted across the
        # copies, and now and then a vertex sent elsewhere: the build's
        # check by counts refuses with the first failure and its witness
        # that the definition gives, and accepts exactly the coverings,
        # whose lifts the reference by simplices and faces finds
        outcomes = set()
        for seed in range(600):
            rng = random.Random(seed)
            n = rng.randint(2, 6)
            target = SimplicialComplexData.from_simplices(closed(
                [(v,) for v in range(n)]
                + [s for size in (2, 3) for s in combinations(range(n), size)
                   if rng.random() < 0.4]))
            k = rng.randint(1, 3)
            listed = [tuple(sorted(v + (rng.randrange(k) if rng.random() < 0.2
                                        else c) * n for v in s))
                      for s in target.all_simplices() for c in range(k)]
            source = SimplicialComplexData.from_simplices(closed(listed),
                                                          vertex_count=k * n)
            image = [v % n for v in range(k * n)]
            if rng.random() < 0.1:
                image[rng.randrange(k * n)] = rng.randrange(n)
            try:
                f = SimplicialMap(source, target, image)
            except ValueError:
                continue
            want = reference_lifts(f)
            try:
                check_covering(f)
            except CoveringError as err:
                got = (str(err), err.witness)
                outcomes.update(word for word in ("collapses", "while",
                                                   "extends")
                                if word in str(err))
            else:
                got = covering_lifts(f)
                outcomes.add("covering")
            assert got == want, seed
            try:
                lifts = covering_lifts(f)
            except CoveringError as err:
                lifts = (str(err), err.witness)
            assert lifts == want, seed
        assert outcomes == {"covering", "collapses", "while", "extends"}

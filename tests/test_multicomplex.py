import copy
import random
import sys
from pathlib import Path

import pytest

from mbhomology.chain import HomologyGroup, homology_at, validate_complex
from mbhomology.cli import morse_from_doc, presentation_from_doc
from mbhomology.exactalg import IntMatrix
from mbhomology.flowdata import (
    CritModel,
    FlowPresentation,
    ModuliComponentModel,
    build_multicomplex,
    morse_to_flow,
)
from mbhomology.multicomplex import (
    InvalidMulticomplex,
    MBSMulticomplex,
    totalize,
    validate_multicomplex,
)
from mbhomology.pipeline import homology_table
from mbhomology.simplicial import (
    SimplicialComplexData,
    SimplicialMap,
    chain_complex_of,
)

from support import (
    closed,
    corpus_names,
    degrees_of,
    full_point_rows,
    read_corpus,
    structure_map,
    submatrix_cols,
    total_residuals,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def triangle():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1), (1, 2), (0, 2)]))


def sphere_model():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]))


def single_row_mc(model, ambient_dim):
    """Multicomplex with one simplicial row at index 0."""
    row = chain_complex_of(model)
    ranks = {}
    maps = {}
    for p in degrees_of(row):
        ranks[(p, 0)] = row.rank(p)
    for p in range(1, row.degree_range[1] + 1):
        d = row.boundary(p)
        if not d.is_zero():
            maps[(0, p, 0)] = d.scaled(-1 if p % 2 else 1)
    return MBSMulticomplex(ambient_dim=ambient_dim, row_ranks=ranks,
                           maps=maps)


def s2_z2_presentation():
    """Height-squared on the sphere: a circle of minima and two maxima."""
    tri = triangle()
    poles = CritModel(index=2, names=("n", "s"))
    rim = CritModel(index=0, complex=tri)
    comps = []
    for vertex, sign in ((0, 1), (1, -1)):
        comps.append(ModuliComponentModel(
            from_index=2, to_index=0,
            domain=tri,
            ev_minus=SimplicialMap(tri, poles.model_complex(),
                                   vertex_image=[vertex] * 3),
            ev_plus=SimplicialMap(tri, tri, vertex_image=[0, 1, 2]),
            sign=sign,
        ))
    return FlowPresentation(dim=2, crit=(rim, poles), moduli=tuple(comps))


class TestValidate:
    def test_rows_only_valid(self):
        mc = single_row_mc(sphere_model(), ambient_dim=2)
        assert validate_multicomplex(mc).ok

    def test_z2_instance_valid(self):
        mc = build_multicomplex(s2_z2_presentation())
        assert validate_multicomplex(mc).ok

    def test_sign_mutation_fails_at_j2(self):
        mc = build_multicomplex(s2_z2_presentation())
        d2 = mc.maps[(2, 0, 2)]
        rows = [list(r) for r in d2.data]
        rows[0][0] = -rows[0][0]
        mutated = MBSMulticomplex(
            ambient_dim=mc.ambient_dim, row_ranks=dict(mc.row_ranks),
            maps={**mc.maps, (2, 0, 2): IntMatrix(d2.rows, d2.cols, rows)},
        )
        report = validate_multicomplex(mutated)
        assert not report.ok
        spots = [(j, p, i) for (j, p, i, _) in report.identity_failures]
        assert (2, 0, 2) in spots
        # hand oracle: the residual is d[0] o d[2] on the mutated column,
        # i.e. -boundary of the mutated cycle
        _, _, _, residual = report.identity_failures[0]
        expected = (structure_map(mutated, 0, 1, 0)
                    @ structure_map(mutated, 2, 0, 2))
        assert residual == expected

    def test_shape_problem_refused_at_construction(self):
        # a mis-shaped map never reaches the validator, which checks only
        # the anticommutation identity
        mc = build_multicomplex(s2_z2_presentation())
        with pytest.raises(ValueError, match=r"^d\[2\] at \(p=0, i=2\) has "
                           r"shape \(1, 1\), expected \(3, 2\)$"):
            MBSMulticomplex(
                ambient_dim=mc.ambient_dim, row_ranks=dict(mc.row_ranks),
                maps={**mc.maps, (2, 0, 2): IntMatrix.zeros(1, 1)},
            )

    def test_maps_and_ranks_are_read_only_copies(self):
        # the total complex is laid out once, so what it was built from
        # cannot change under it
        ranks = {(0, 0): 1, (0, 1): 1}
        maps = {(1, 0, 1): IntMatrix.from_rows([[2]])}
        mc = MBSMulticomplex(ambient_dim=1, row_ranks=ranks, maps=maps)
        with pytest.raises(TypeError):
            mc.maps[(1, 0, 1)] = IntMatrix.from_rows([[3]])
        with pytest.raises(TypeError):
            mc.row_ranks[(1, 0)] = 1
        maps[(1, 0, 1)] = IntMatrix.from_rows([[3]])
        ranks[(1, 0)] = 1
        assert structure_map(mc, 1, 0, 1) == IntMatrix.from_rows([[2]])
        assert mc.complex.ranks == {0: 1, 1: 1}
        assert mc.complex.boundary(1) == IntMatrix.from_rows([[2]])

    def test_a_build_forms_only_the_pairs_of_identities_from_j_2(
            self, monkeypatch):
        # identities j <= 1 hold on every build (multicomplex docstring), so
        # a build forms d[q] o d[a] only where a + q >= 2: never on one
        # simplicial row or on bott-twist, whose maps have j <= 1, but on
        # t2-deformed, which has a d[2].  A hand-built copy forms one product
        # per composable pair of nonzero stored maps.
        products = []
        matmul = IntMatrix.__matmul__

        def counted(a, b):
            products.append(a.shape)
            return matmul(a, b)

        def pairs(mc, start):
            nonzero = {key for key, mat in mc.maps.items()
                       if not mat.is_zero()}
            return sum((q, p + a - 1, i - a) in nonzero
                       for a, p, i in nonzero
                       for q in range(max(start - a, 0), mc.ambient_dim + 1))

        monkeypatch.setattr(IntMatrix, "__matmul__", counted)
        builds = {name: build_multicomplex(presentation_from_doc(
                      workloads.make(name, 1, 0)[0]), check=False)
                  for name in ("torus-grid", "bott-twist")}
        builds["t2-deformed"] = build_multicomplex(
            read_corpus("t2-deformed")[0], check=False)
        formed = {}
        for name, mc in builds.items():
            hand = MBSMulticomplex(mc.ambient_dim, mc.row_ranks, mc.maps)
            for m, want in ((mc, pairs(mc, 2)), (hand, pairs(hand, 0))):
                products.clear()
                assert validate_multicomplex(m).ok
                assert len(products) == want, name
            formed[name] = pairs(mc, 2), pairs(hand, 0)
        assert formed["torus-grid"][0] == formed["bott-twist"][0] == 0
        assert formed["t2-deformed"][0] > 0
        assert min(whole for _, whole in formed.values()) > 0

    def test_hand_built_d0_square_is_still_checked(self):
        # only a build's d[0] is known to square to zero: a hand-built
        # multicomplex whose one failure is a d[0] o d[0] block reports it
        # with its residual
        mc = single_row_mc(sphere_model(), ambient_dim=2)
        d0 = mc.maps[(0, 2, 0)]
        rows = [list(r) for r in d0.data]
        rows[0][0] = -rows[0][0]
        bad = MBSMulticomplex(
            ambient_dim=2, row_ranks=dict(mc.row_ranks),
            maps={**mc.maps, (0, 2, 0): IntMatrix(d0.rows, d0.cols, rows)})
        [(j, p, i, residual)] = validate_multicomplex(bad).identity_failures
        assert (j, p, i) == (0, 2, 0)
        assert residual == (structure_map(bad, 0, 1, 0)
                            @ structure_map(bad, 0, 2, 0))
        assert not residual.is_zero()

    def test_hand_built_d1_relation_is_still_checked(self):
        # identity 1 holds on a build by construction, so only a hand-built
        # copy forms it: bott-twist's maps pass, and with the sign of the
        # covering block out of (p=1, i=1) flipped they fail identity 1
        # alone, at the two sources whose pairs read that block, each with
        # residual d[0] o d[1] + d[1] o d[0]
        doc = workloads.make("bott-twist", 1, 0)[0]
        mc = build_multicomplex(presentation_from_doc(doc), check=False)
        hand = MBSMulticomplex(mc.ambient_dim, mc.row_ranks, mc.maps)
        assert validate_multicomplex(hand).ok
        bad = MBSMulticomplex(mc.ambient_dim, mc.row_ranks, {
            **mc.maps, (1, 1, 1): mc.maps[(1, 1, 1)].scaled(-1)})
        failures = validate_multicomplex(bad).identity_failures
        assert [(j, p, i) for j, p, i, _ in failures] == [(1, 1, 1),
                                                          (1, 2, 1)]
        for _, p, i, residual in failures:
            assert not residual.is_zero()
            assert residual == (
                structure_map(bad, 0, p, i - 1) @ structure_map(bad, 1, p, i)
                + structure_map(bad, 1, p - 1, i)
                @ structure_map(bad, 0, p, i))

    def test_rejects_j_above_row(self):
        with pytest.raises(ValueError):
            MBSMulticomplex(ambient_dim=2, row_ranks={(0, 0): 1},
                            maps={(1, 0, 0): IntMatrix.zeros(0, 1)})


def perturbed(mc, rng):
    """`mc` with one or two of its stored d[0], d[1] or d[2] blocks
    changed: one entry set to another value in -2..2, or, one time in four,
    the whole block made zero."""
    maps = dict(mc.maps)
    keys = sorted(k for k in maps if k[0] <= 2)
    for key in rng.sample(keys, rng.choice((1, 1, 2))):
        mat = maps[key]
        if rng.random() < 0.25:
            maps[key] = IntMatrix.zeros(*mat.shape)
            continue
        r, c = rng.randrange(mat.rows), rng.randrange(mat.cols)
        cols = [dict(col) for col in mat.columns]
        cols[c][r] = rng.choice([x for x in range(-2, 3)
                                 if x != cols[c].get(r, 0)])
        maps[key] = IntMatrix.from_columns(mat.rows, mat.cols, cols)
    return MBSMulticomplex(ambient_dim=mc.ambient_dim, row_ranks=mc.row_ranks,
                           maps=maps)


class TestReadBack:
    """validate_multicomplex sums the identities pair by pair over the
    stored maps; the reference forms D o D on the total complex and reads
    it back by block.  The paper's two forms of the condition must give the
    same failures, in the same order, with equal residual matrices."""

    def test_corpus_with_each_sign_flipped(self):
        failing = 0
        for name in corpus_names("flow"):
            fp = read_corpus(name)[0]
            for t, comp in enumerate(fp.moduli):
                flip = ModuliComponentModel(
                    comp.from_index, comp.to_index, comp.domain,
                    comp.ev_minus, comp.ev_plus, sign=-comp.sign,
                    multiplicity=comp.multiplicity)
                moduli = fp.moduli[:t] + (flip,) + fp.moduli[t + 1:]
                mc = build_multicomplex(
                    FlowPresentation(fp.dim, fp.crit, moduli),
                    check=False)
                want = total_residuals(mc)
                assert validate_multicomplex(mc).identity_failures == want, \
                    (name, t)
                failing += bool(want)
        assert failing > 5

    def test_perturbed_workload_documents(self):
        seen = {"cases": 0, "failing": 0, "several": 0, "absent": 0,
                "zeroed": 0}
        for workload in ("bott-twist", "morse-random"):
            for call in range(6):
                doc, _, _ = workloads.make(workload, 5, call)
                fp = morse_to_flow(morse_from_doc(doc)) \
                    if doc["kind"] == "morse" else presentation_from_doc(doc)
                mc = build_multicomplex(fp, check=False)
                assert validate_multicomplex(mc).ok
                rng = random.Random(f"{workload}:{call}")
                for _ in range(10):
                    bad = perturbed(mc, rng)
                    want = total_residuals(bad)
                    got = validate_multicomplex(bad).identity_failures
                    assert got == want, (workload, call)
                    seen["cases"] += 1
                    seen["failing"] += bool(want)
                    seen["several"] += len(want) > 1
                    # a failing identity whose own d[j] is an empty block
                    seen["absent"] += any(
                        (j, p, i) not in bad.maps or bad.maps[j, p, i]
                        .is_zero() for j, p, i, _ in want)
                    seen["zeroed"] += any(m.is_zero()
                                          for m in bad.maps.values())
        assert seen["cases"] == 120
        assert min(seen.values()) > 10, seen


class TestTotalize:
    def test_single_row_alternating_sign(self):
        mc = single_row_mc(sphere_model(), ambient_dim=2)
        row = chain_complex_of(sphere_model())
        view = totalize(mc)
        assert validate_complex(view.complex) == []
        for k in range(1, 3):
            expected = row.boundary(k).scaled(-1 if k % 2 else 1)
            assert view.complex.boundary(k) == expected
        # a build lays out the same signed row, at an even and an odd index
        for i, model in ((0, sphere_model()), (1, triangle())):
            built = build_multicomplex(FlowPresentation(
                2, (CritModel(i, complex=model),)))
            row = chain_complex_of(model)
            assert dict(built.maps) == {
                (0, p, i): row.boundary(p).scaled((-1) ** (p + i))
                for p in range(1, model.top_dim + 1)}

    def test_two_point_rows_block_assembly(self):
        # two full point rows joined by a single flow-line count: the total
        # boundary in low degrees is the hand-assembled block matrix
        fat = {p: 1 for p in range(5)}
        ranks = {}
        maps = {}
        for i in (0, 1):
            for p in range(5):
                ranks[(p, i)] = 1
            for p in (2, 4):
                maps[(0, p, i)] = IntMatrix.from_rows(
                    [[1 if (p + i) % 2 == 0 else -1]])
        maps[(1, 0, 1)] = IntMatrix.from_rows([[3]])
        mc = MBSMulticomplex(ambient_dim=1, row_ranks=ranks, maps=maps)
        assert validate_multicomplex(mc).ok
        view = totalize(mc)
        assert validate_complex(view.complex) == []
        # degree 1 = (0,1) + (1,0); degree 0 = (0,0)
        assert view.complex.boundary(1) == IntMatrix.from_rows([[3, 0]])
        # degree 2 = (1,1) + (2,0) -> degree 1 = (0,1) + (1,0)
        assert view.complex.boundary(2) == IntMatrix.from_rows(
            [[0, 0], [0, 1]])
        table = homology_table(mc)
        assert table[0] == HomologyGroup(0, (3,))
        assert table[1] == HomologyGroup(0, ())

    def test_empty_rows_contribute_nothing(self):
        mc = single_row_mc(triangle(), ambient_dim=2)
        view = totalize(mc)
        assert view.complex.rank(0) == 3
        assert view.complex.rank(1) == 3
        assert view.complex.rank(2) == 0

    def test_cost_follows_stored_bidegrees(self):
        # 10^6 declared rows with two bidegrees stored: validation and
        # totalization visit only what is stored
        big = 10 ** 6
        mc = MBSMulticomplex(ambient_dim=big,
                             row_ranks={(0, 0): 1, (0, 1): 1},
                             maps={(1, 0, 1): IntMatrix.from_rows([[2]])})
        assert validate_multicomplex(mc).ok
        view = totalize(mc)
        assert view.complex.ranks == {0: 1, 1: 1}
        assert view.block_offsets == {(0, 0): 0, (0, 1): 0}
        h0, h1 = homology_at(view.complex, range(2))
        assert h0 == HomologyGroup(0, (2,))
        assert h1 == HomologyGroup(0, ())


class TestHomologyTable:
    def test_constant_function_sphere(self):
        mc = single_row_mc(sphere_model(), ambient_dim=2)
        table = homology_table(mc)
        assert table[0] == HomologyGroup(1, ())
        assert table[1] == HomologyGroup(0, ())
        assert table[2] == HomologyGroup(1, ())
        assert table[3] == HomologyGroup(0, ())

    def test_z2_sphere(self):
        table = homology_table(build_multicomplex(s2_z2_presentation()))
        assert [h.betti for h in table[:3]] == [1, 0, 1]
        assert all(not h.torsion for h in table[:3])

    def test_maps_and_boundaries_unchanged_by_a_table(self):
        # a degree whose one map has its full shape shares that matrix as
        # its total boundary, so nothing downstream may mutate either
        shared = 0
        for workload in ("torus-grid", "morse-random", "bott-twist",
                         "dim-padded"):
            for call in range(3):
                doc = workloads.make(workload, 2, call)[0]
                fp = morse_to_flow(morse_from_doc(doc)) \
                    if doc["kind"] == "morse" else presentation_from_doc(doc)
                mc = build_multicomplex(fp, check=False)
                maps = copy.deepcopy(dict(mc.maps))
                boundaries = copy.deepcopy(mc.complex.boundaries)
                shared += sum(any(b is m for m in mc.maps.values())
                              for b in mc.complex.boundaries.values())
                homology_table(mc)
                assert dict(mc.maps) == maps, (workload, call)
                assert mc.complex.boundaries == boundaries, (workload, call)
        assert shared > 10

    def test_invalid_rejected(self):
        mc = build_multicomplex(s2_z2_presentation())
        d2 = mc.maps[(2, 0, 2)]
        rows = [list(r) for r in d2.data]
        rows[0][0] += 1
        bad = MBSMulticomplex(
            ambient_dim=mc.ambient_dim, row_ranks=dict(mc.row_ranks),
            maps={**mc.maps, (2, 0, 2): IntMatrix(d2.rows, d2.cols, rows)},
        )
        with pytest.raises(InvalidMulticomplex):
            homology_table(bad)


class TestInvariants:
    def test_total_square_zero_on_instances(self):
        instances = [
            single_row_mc(sphere_model(), ambient_dim=2),
            single_row_mc(triangle(), ambient_dim=2),
            build_multicomplex(s2_z2_presentation()),
        ]
        for mc in instances:
            view = totalize(mc)
            assert validate_complex(view.complex) == []

    def test_label_permutation_invariance(self):
        # the fat rows reach column 4, where row 2's d[0] is permuted too
        fp = s2_z2_presentation()
        base = full_point_rows(build_multicomplex(fp), fp, 4)
        rng = random.Random(11)
        perm = [1, 0]  # swap the two poles in every column of row 2
        maps = dict(base.maps)
        for p in (2, 4):
            mat = structure_map(base, 0, p, 2)
            maps[(0, p, 2)] = IntMatrix(
                2, 2, [[mat.data[perm[r]][perm[c]] for c in range(2)]
                       for r in range(2)])
        d2 = structure_map(base, 2, 0, 2)
        maps[(2, 0, 2)] = submatrix_cols(d2, perm)
        shuffled = MBSMulticomplex(
            ambient_dim=base.ambient_dim, row_ranks=dict(base.row_ranks),
            maps=maps,
        )
        assert validate_multicomplex(shuffled).ok
        for a, b in zip(homology_table(base), homology_table(shuffled)):
            assert a == b

    def test_truncation_stability(self):
        fp = s2_z2_presentation()
        low = homology_table(build_multicomplex(fp))
        # the paper's truncation at cap 6: point rows run on to column 6
        fat = homology_table(full_point_rows(build_multicomplex(fp), fp, 6))
        for k in range(0, 3):
            assert low[k] == fat[k]

    def test_single_row_table_equals_row_homology(self):
        model = sphere_model()
        mc = single_row_mc(model, ambient_dim=2)
        row = chain_complex_of(model)
        table = homology_table(mc)
        for group, want in zip(table, homology_at(row, range(len(table))),
                               strict=True):
            assert group == want

"""The top degree of a simplicial row, reduced along its orientation walk.

`build_multicomplex` marks each closed simplicial row whose ridge block no
d[j] with j >= 1 reaches, and `homology_table` hands the walk's spanning
forest of that row to `homology_at`: a factor 1 per forest pair, one
column D z per component, and the ridges as clearing rows.  Every table
must be the one the plain reduction of the same total complex gives, and
the sympy oracle's.
"""

import pytest

from mbhomology import chain, pipeline
from mbhomology.chain import homology_at
from mbhomology.corpus import entry_names
from mbhomology.exactalg import _reduce
from mbhomology.flowdata import (
    CritModel,
    FlowPresentation,
    ModuliComponentModel,
    build_multicomplex,
)
from mbhomology.pipeline import homology_table
from mbhomology.schema import presentation_from_doc
from mbhomology.simplicial import SimplicialComplexData, SimplicialMap
from support import (
    brute_homology,
    closed,
    count_walks,
    linear_twists,
    load_file,
    read_corpus,
    twist_doc,
)
from test_pipeline import relabeled_torus

workloads = load_file("perfbench/workloads.py")

SPHERE = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
RP2 = [(0, 1, 3), (1, 2, 3), (0, 2, 4), (2, 3, 4), (0, 3, 5), (1, 4, 5),
       (3, 4, 5), (0, 1, 4), (1, 2, 5), (0, 2, 5)]


def torus(n, offset=0):
    """Top simplices of the n x n grid torus on vertices offset + i n + j;
    the swap of i and j is an automorphism that reverses its orientation."""
    return [tuple(offset + v for v in tri)
            for tri in workloads.torus_triangles(n)]


def model(tops):
    return SimplicialComplexData.from_simplices(closed(tops))


def one_row(tops):
    return FlowPresentation(dim=2, crit=(CritModel(0, complex=model(tops)),))


def covered(upper, plus, sign):
    """Rows 1 (the model `upper`) and 0 (a 3 x 3 torus), and one component
    from the upper model onto the lower one: ev_minus the identity, a
    covering, and ev_plus the vertex map `plus`.  Row 0's ridge block
    receives the covering's d[1] out of column 1, so only row 1 has a
    forest, and its components give the columns D z = d[1] z."""
    k, lower = model(upper), model(torus(3))
    component = ModuliComponentModel(
        1, 0, k, SimplicialMap(k, k, range(k.vertex_count)),
        SimplicialMap(k, lower, plus), sign=sign)
    return FlowPresentation(dim=3, crit=(CritModel(0, complex=lower),
                                         CritModel(1, complex=k)),
                            moduli=(component,))


# two tori onto one: the first as it is, the second by the swap, which
# reverses the orientation
TWO_TORI = torus(3) + torus(3, 9)
TWO_ONTO_ONE = list(range(9)) + [workloads.swap(3, v) for v in range(9)]
# a torus onto the torus, and a sphere onto a vertex of it
TORUS_SPHERE = torus(3) + [tuple(v + 9 for v in s) for s in SPHERE]


def hand_built():
    """(name, presentation, forest rows) of the hand-built cases."""
    yield "two tori", one_row(torus(3) + torus(3, 9)), {0}
    yield "sphere and torus", one_row(SPHERE + torus(3, 4)), {0}
    yield "relabeled torus", relabeled_torus(4, 3), {0}
    for sign in (1, -1):
        yield f"two tori covered {sign}", covered(
            TWO_TORI, TWO_ONTO_ONE, sign), {1}
        yield f"torus and sphere covered {sign}", covered(
            TORUS_SPHERE, list(range(9)) + [0] * 4, sign), {1}
    # a model the walk cannot orient, and one with boundary, are hand-built
    # only, and are reduced as the plain path reduces them
    yield "projective plane", one_row(RP2), set()
    yield "disk", one_row([(0, 1, 2), (0, 2, 3)]), set()


def seeded():
    for workload in ("torus-grid", "bott-twist", "dim-padded"):
        for call in range(3):
            doc = workloads.make(workload, 7, call)[0]
            yield f"{workload} {call}", presentation_from_doc(doc)


def twists():
    for phi in linear_twists():
        yield f"twist {phi}", presentation_from_doc(twist_doc(3, phi))


HAND_BUILT = list(hand_built())
DOCUMENTS = [*seeded(), *twists()]


def assert_split_is_exact(mc, oracle=True):
    """The table with forests against the plain reduction and sympy, each
    block's factors against the plain ones, and the forest ridges (alone,
    and with the remainder's pivots after them) as clearing rows of the
    degree below."""
    c = mc.complex
    degrees = range(mc.ambient_dim + 2)
    table = homology_table(mc, degrees)
    assert table == homology_at(c, degrees)
    if oracle:
        assert [(h.betti, h.torsion) for h in table] == \
            [brute_homology(c, k) for k in degrees]
    for k, blocks in pipeline._forests(mc).items():
        factors, pivots = chain._reduce_split(c.boundaries[k], (), blocks)
        assert factors == _reduce(c.boundaries[k])[0], k
        ridges = [r for _, rows, _ in blocks for r in rows]
        assert pivots[:len(ridges)] == ridges and ridges, k
        below = c.boundaries.get(k - 1)
        if below is not None:
            plain = _reduce(below)[0]
            assert _reduce(below, set(ridges))[0] == plain, k
            assert _reduce(below, set(pivots))[0] == plain, k


class TestForestRows:
    def test_corpus(self):
        marked = set()
        for name in entry_names():
            mc = build_multicomplex(read_corpus(name)[0], check=False)
            assert_split_is_exact(mc)
            if mc._forests:
                marked.add(name)
        assert marked == {"s2-constant", "s2-minus-z2", "s2-z2", "t2-height"}

    @pytest.mark.parametrize("fp, rows", [case[1:] for case in HAND_BUILT],
                             ids=[case[0] for case in HAND_BUILT])
    def test_hand_built(self, fp, rows):
        mc = build_multicomplex(fp)
        assert set(mc._forests) == rows
        assert_split_is_exact(mc)

    def test_covered_rows_give_nonzero_cycles(self):
        # the covering reaches row 0's ridge block, so row 0 keeps its plain
        # reduction; each torus of row 1 pushes its cycle onto row 0, with
        # opposite orientations
        for sign in (1, -1):
            mc = build_multicomplex(covered(TWO_TORI, TWO_ONTO_ONE, sign))
            [(tops, ridges, cycles)] = pipeline._forests(mc)[3]
            assert len(tops) == 36 and len(ridges) == 34
            assert len(cycles) == 2 and all(cycles)

    @pytest.mark.parametrize("name, fp", DOCUMENTS,
                             ids=[name for name, _ in DOCUMENTS])
    def test_workload_documents(self, name, fp):
        mc = build_multicomplex(fp, check=False)
        # a padded s2-round or t2-deformed has no forest row
        assert mc._forests or name.startswith("dim-padded")
        assert_split_is_exact(mc, oracle=not name.startswith("dim-padded"))

    def test_clearing_reaches_a_forest_block(self, monkeypatch):
        # on s2-z2 the point row 2 sends d[2] into row 0's top block, so
        # the unit pivots of D_2 clear top-block columns of D_1, the degree
        # of row 0's forest: those columns stay, replaced by the forest
        mc = build_multicomplex(read_corpus("s2-z2")[0], check=False)
        [(tops, _, _)] = pipeline._forests(mc)[1]
        seen = []

        def split(a, cleared, blocks):
            seen.append(set(cleared))
            return real(a, cleared, blocks)

        real = chain._reduce_split
        monkeypatch.setattr(chain, "_reduce_split", split)
        assert_split_is_exact(mc)
        assert seen and seen[0] & set(tops)


class TestForestCost:
    def test_one_walk_per_complex(self, monkeypatch):
        # the reader's walk is the forest: the reduction walks no complex,
        # and the read and the build walk each complex object once (a
        # hand-built model, and a Morse document's point domain, by the
        # build)
        walks = count_walks(monkeypatch)
        built = [build_multicomplex(fp) for _, fp, _ in hand_built()]
        built += [build_multicomplex(read_corpus(name)[0], check=False)
                  for name in entry_names()]
        assert len(set(map(id, walks))) == len(walks)
        walked = len(walks)
        for mc in built:
            homology_table(mc)
        assert len(walks) == walked

    def test_torus_grid_reduces_no_top_column(self, monkeypatch):
        # the triangles of torus-grid's one row are all split off: the
        # only matrix reduced is D_1, on the edges the ridges did not clear
        seen = []

        def counted(a, cleared=()):
            seen.append((a, set(cleared)))
            return _reduce(a, cleared)

        monkeypatch.setattr(chain, "_reduce", counted)
        for seed in range(11, 15):
            doc = workloads.make("torus-grid", seed, 0)
            mc = build_multicomplex(presentation_from_doc(doc[0]),
                                    check=False)
            seen.clear()
            homology_table(mc)
            tops = {id(col) for col in mc.complex.boundaries[2].columns}
            assert [a for a, _ in seen] == [mc.complex.boundaries[1]]
            assert not any(id(col) in tops for a, _ in seen
                           for col in a.columns)
            edges = mc.complex.rank(1)
            triangles = mc.complex.rank(2)
            assert len(seen[0][1]) == triangles - 1 < edges

import json
import random
import sys
from itertools import combinations
from pathlib import Path

import pytest

from mbhomology import cli, flowdata, schema
from mbhomology.chain import homology_at
from mbhomology.exactalg import IntMatrix
from mbhomology.flowdata import (
    CritModel,
    FlowPresentation,
    ModuliComponentModel,
    build_multicomplex,
    morse_to_flow,
)
from mbhomology.corpus import data_dir, entry_names
from mbhomology.morse import MorseData
from mbhomology.multicomplex import (
    InvalidMulticomplex,
    MBSMulticomplex,
    validate_multicomplex,
)
from mbhomology.pipeline import homology_table
from mbhomology.schema import morse_from_doc, presentation_from_doc
from mbhomology.simplicial import (
    CoveringError,
    SimplicialComplexData,
    SimplicialMap,
    check_covering,
)

from support import (
    chain_to_vector,
    closed,
    corpus_names,
    count_walks,
    cycle_chain,
    full_point_rows,
    linear_twists,
    matrix_of_pullback,
    matrix_of_pushforward,
    read_corpus,
    structure_map,
    twist_doc,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def triangle():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1), (1, 2), (0, 2)]))


def with_moduli(fp, moduli):
    return FlowPresentation(dim=fp.dim, crit=fp.crit, moduli=moduli)


def with_multiplicity(comp, multiplicity):
    return ModuliComponentModel(
        from_index=comp.from_index, to_index=comp.to_index,
        domain=comp.domain, ev_minus=comp.ev_minus, ev_plus=comp.ev_plus,
        sign=comp.sign, multiplicity=multiplicity)


def minus_z2_presentation():
    """-z^2 on the sphere: circle of maxima over two minima."""
    tri = triangle()
    rim = CritModel(index=1, complex=tri)
    poles = CritModel(index=0, names=("n", "s"))
    comps = []
    for vertex, sign in ((0, 1), (1, -1)):
        comps.append(ModuliComponentModel(
            from_index=1, to_index=0,
            domain=tri,
            ev_minus=SimplicialMap(tri, tri, vertex_image=[0, 1, 2]),
            ev_plus=SimplicialMap(tri, poles.model_complex(),
                                  vertex_image=[vertex] * 3),
            sign=sign,
        ))
    return FlowPresentation(dim=2, crit=(poles, rim), moduli=tuple(comps))


def torus_height_presentation():
    tri_top = triangle()
    tri_bot = triangle()
    upper = CritModel(index=1, complex=tri_top)
    lower = CritModel(index=0, complex=tri_bot)
    comps = []
    for sign in (1, -1):
        comps.append(ModuliComponentModel(
            from_index=1, to_index=0,
            domain=tri_top,
            ev_minus=SimplicialMap(tri_top, tri_top, vertex_image=[0, 1, 2]),
            ev_plus=SimplicialMap(tri_top, tri_bot, vertex_image=[0, 1, 2]),
            sign=sign,
        ))
    return FlowPresentation(dim=2, crit=(lower, upper), moduli=tuple(comps))


class TestFlowPresentation:
    def test_stores_models_and_components_as_tuples(self):
        fp = minus_z2_presentation()
        again = FlowPresentation(dim=2, crit=list(fp.crit),
                                 moduli=iter(fp.moduli))
        assert again.crit == fp.crit and isinstance(again.crit, tuple)
        assert again.moduli == fp.moduli and isinstance(again.moduli, tuple)
        bare = FlowPresentation(dim=0, crit=[])
        assert (bare.crit, bare.moduli) == ((), ())

    def test_points_model_complex_is_built_once(self):
        model = CritModel(index=2, names=("p", "q", "r"))
        k = model.model_complex()
        assert k is model.model_complex()
        assert k == SimplicialComplexData(3, [(v,) for v in range(3)])
        assert (model.is_points, model.dimension) == (True, 0)
        tri = triangle()
        rim = CritModel(index=0, complex=tri)
        assert rim.model_complex() is tri
        assert (rim.is_points, rim.dimension) == (False, 1)

    def test_default_cap(self):
        # a presentation holds no cap; the build's column_cap, which only
        # the benchmark's grid_yield probe reads, is the old default
        for dim, cap in ((2, 4), (1, 4), (4, 6)):
            fp = FlowPresentation(dim=dim, crit=())
            assert build_multicomplex(fp).column_cap == cap


class TestBuild:
    def test_minus_z2_column_zero_map(self):
        mc = build_multicomplex(minus_z2_presentation())
        d1 = structure_map(mc, 1, 0, 1)
        # every vertex of the rim maps to n - s
        assert d1 == IntMatrix.from_rows([[1, 1, 1], [-1, -1, -1]])
        table = homology_table(mc)
        assert [h.betti for h in table[:3]] == [1, 0, 1]
        assert all(not h.torsion for h in table[:3])

    def test_minus_z2_higher_columns_land_in_point_row(self):
        mc = build_multicomplex(minus_z2_presentation())
        d1 = structure_map(mc, 1, 1, 1)
        # edges push to constant degenerate chains on each pole
        assert d1 == IntMatrix.from_rows([[1, 1, 1], [-1, -1, -1]])

    def test_torus_height_vanishing_interaction(self):
        mc = build_multicomplex(torus_height_presentation())
        for p in range(0, 2):
            assert structure_map(mc, 1, p, 1).is_zero()
        table = homology_table(mc)
        assert [h.betti for h in table[:3]] == [1, 2, 1]

    def test_covering_checked_once_per_component(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return check_covering(f)

        monkeypatch.setattr(flowdata, "check_covering", counted)
        fp = torus_height_presentation()
        build_multicomplex(fp)
        assert calls == [comp.ev_minus for comp in fp.moduli]

    def test_point_source_contributes_fundamental_cycle(self):
        # z^2 sphere: the two columns of d[2] are opposite rim cycles
        from test_multicomplex import s2_z2_presentation
        fp = s2_z2_presentation()
        mc = build_multicomplex(fp)
        rim = fp.crit_at(0).complex
        cycle = chain_to_vector(rim, 1, cycle_chain(rim))
        sparse = {i: x for i, x in enumerate(cycle) if x}
        d2 = structure_map(mc, 2, 0, 2)
        assert d2.columns[0] == sparse
        assert d2.columns[1] == {i: -x for i, x in sparse.items()}

    def test_rejects_non_covering_ev_minus(self):
        # collapse the rim model onto an edge: not a covering of the circle
        tri = triangle()
        seg = SimplicialComplexData.from_simplices(closed([(0, 1)]))
        rim = CritModel(index=1, complex=tri)
        poles = CritModel(index=0, names=("n", "s"))
        comp = ModuliComponentModel(
            from_index=1, to_index=0, domain=tri,
            ev_minus=SimplicialMap(tri, tri, vertex_image=[0, 1, 0]),
            ev_plus=SimplicialMap(tri, poles.model_complex(),
                                  vertex_image=[0, 0, 0]),
            sign=1)
        fp = FlowPresentation(dim=2, crit=(poles, rim), moduli=(comp,))
        with pytest.raises(CoveringError):
            build_multicomplex(fp)


class TestMorseToFlow:
    def test_torus_no_flow_lines(self):
        md = MorseData(crit_by_index={0: ("bottom",),
                                      1: ("inner", "outer"),
                                      2: ("top",)},
                       counts={})
        mc = build_multicomplex(morse_to_flow(md))
        assert structure_map(mc, 1, 0, 1).is_zero()
        table = homology_table(mc)
        assert [h.betti for h in table[:3]] == [1, 2, 1]
        assert all(not h.torsion for h in table[:3])

    def test_sphere_two_points(self):
        md = MorseData(crit_by_index={0: ("bottom",), 2: ("top",)},
                       counts={})
        table = homology_table(build_multicomplex(morse_to_flow(md)))
        assert [h.betti for h in table[:3]] == [1, 0, 1]

    def test_counts_become_signed_components(self):
        md = MorseData(crit_by_index={0: ("m",), 1: ("s",)},
                       counts={("s", "m"): -2})
        fp = morse_to_flow(md)
        assert [(c.sign, c.multiplicity) for c in fp.moduli] == [(-1, 2)]
        mc = build_multicomplex(fp)
        assert structure_map(mc, 1, 0, 1) == IntMatrix.from_rows([[-2]])

    def test_large_count_is_one_component(self):
        # a count costs one component whatever its size: d(s) = 10^9 m
        n = 10 ** 9
        md = MorseData(crit_by_index={0: ("m",), 1: ("s",)},
                       counts={("s", "m"): n})
        fp = morse_to_flow(md)
        assert [(c.sign, c.multiplicity) for c in fp.moduli] == [(1, n)]
        mc = build_multicomplex(fp)
        assert structure_map(mc, 1, 0, 1) == IntMatrix.from_rows([[n]])
        assert [str(g) for g in homology_table(mc, range(2))] == \
            [f"Z/{n}", "0"]

    def test_components_share_one_map_per_point(self):
        # every point has several components; each of its components points
        # at the one map onto the point's vertex, and the two-point indices
        # 0 and 1 share one vertex complex, so one map per vertex of it
        md = MorseData(crit_by_index={0: ("a0", "a1"), 1: ("b0", "b1"),
                                      2: ("c",)},
                       counts={("b0", "a0"): 1, ("b0", "a1"): -1,
                               ("b1", "a0"): 1, ("b1", "a1"): -1,
                               ("c", "b0"): 1, ("c", "b1"): -1})
        fp = morse_to_flow(md)
        by_point = {}
        for comp in fp.moduli:
            for index, ev in ((comp.from_index, comp.ev_minus),
                              (comp.to_index, comp.ev_plus)):
                by_point.setdefault((index, ev.vertex_image), []).append(ev)
        assert len(by_point) == 5
        assert all(len(maps) >= 2 and all(ev is maps[0] for ev in maps)
                   for maps in by_point.values())
        assert fp.crit_at(0).model_complex() is fp.crit_at(1).model_complex()
        assert len({id(ev) for maps in by_point.values() for ev in maps}) == 3

    def test_multiplicity_scales_covering_components(self):
        # the covering branch weighs a component by sign * multiplicity
        # exactly as it weighs that many copies of it
        fp = minus_z2_presentation()
        tripled = with_multiplicity(fp.moduli[1], 3)
        one = build_multicomplex(
            with_moduli(fp, (fp.moduli[0], tripled)), check=False)
        many = build_multicomplex(
            with_moduli(fp, (fp.moduli[0],) + (fp.moduli[1],) * 3),
            check=False)
        assert one.maps == many.maps
        assert structure_map(one, 1, 1, 1) == IntMatrix.from_rows([[1, 1, 1],
                                                        [-3, -3, -3]])

    def test_nonsquaring_counts_fail_anticommutation(self):
        # a single chain r -> q -> p with both counts 1: the identity at
        # j=2, (p,i)=(0,2) reduces to d[1] o d[1] = 0 and fails
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={("r", "q"): 1, ("q", "p"): 1})
        with pytest.raises(InvalidMulticomplex) as err:
            build_multicomplex(morse_to_flow(md))
        spots = [(j, p, i) for (j, p, i, _) in
                 err.value.report.identity_failures]
        assert (2, 0, 2) in spots


def bott_twist_doc(domain_vertices=None):
    """Tori A (index 0) and B (index 1) on the 3 x 3 grid, with two
    components from B to A whose domains repeat B's data, the second with
    `vertices` replaced when `domain_vertices` is given."""
    def v(i, j):
        return (i % 3) * 3 + j % 3

    tris = [t for i in range(3) for j in range(3)
            for t in ([v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                      [v(i, j), v(i, j + 1), v(i + 1, j + 1)])]
    torus = {"vertices": 9, "simplices": [list(s) for s in closed(tris)]}
    other = dict(torus)
    if domain_vertices is not None:
        other["vertices"] = domain_vertices
    swap = [3 * (x % 3) + x // 3 for x in range(9)]
    return {"dim": 3, "critical": [
        {"index": 0, "kind": "simplicial", "complex": dict(torus)},
        {"index": 1, "kind": "simplicial", "complex": dict(torus)}],
        "moduli": [
            {"from": 1, "to": 0, "domain": dict(torus),
             "ev_minus": list(range(9)), "ev_plus": list(range(9)),
             "sign": 1},
            {"from": 1, "to": 0, "domain": other,
             "ev_minus": (list(range(9)) + [0])[:other["vertices"]],
             "ev_plus": (swap + [0])[:other["vertices"]],
             "sign": -1}]}


class TestCostPerCount:
    def test_models_and_cycles_do_not_grow_with_the_counts(self,
                                                          monkeypatch):
        # a flow-line count costs lookups, not models: on the same critical
        # points, documents with N and with 4N counts build the point
        # domain, one vertex complex per distinct point count and one map
        # per vertex of it, and orient the one point domain that every
        # component shares once
        made = {"complexes": 0, "maps": 0}
        walks = count_walks(monkeypatch)
        complex_init = SimplicialComplexData.__init__
        map_init = SimplicialMap.__init__

        def counted_complex(self, *args, **kwargs):
            made["complexes"] += 1
            complex_init(self, *args, **kwargs)

        def counted_map(self, *args, **kwargs):
            made["maps"] += 1
            map_init(self, *args, **kwargs)

        monkeypatch.setattr(SimplicialComplexData, "__init__",
                            counted_complex)
        monkeypatch.setattr(SimplicialMap, "__init__", counted_map)

        def cost(doc):
            md = morse_from_doc(doc)
            made.update(complexes=0, maps=0)
            walks.clear()
            fp = morse_to_flow(md)
            mc = build_multicomplex(fp)
            [domain] = {id(comp.domain): comp.domain
                        for comp in fp.moduli}.values()
            assert len(walks) == 1 and walks[0] is domain
            # every count is one nonzero entry of d[1] at column 0
            entries = sum(map(len, structure_map(mc, 1, 0, 1).columns))
            return len(fp.moduli), entries, dict(made)

        n = 16
        upper = [f"b{t}" for t in range(8)]
        lower = [f"a{t}" for t in range(8)]
        pairs = [(q, p) for q in upper for p in lower]
        for seed in range(5):
            rng = random.Random(seed)

            def doc(size):
                return {"critical": {"0": lower, "1": upper},
                        "counts": [[q, p, rng.choice((-2, -1, 1, 2))]
                                   for q, p in rng.sample(pairs, size)]}

            few, many = cost(doc(n)), cost(doc(4 * n))
            assert few[:2] == (n, n) and many[:2] == (4 * n, 4 * n), seed
            # both indices hold 8 points: the point and one 8-vertex complex
            assert few[2] == many[2] == {"complexes": 2, "maps": 8}, seed

    def test_shared_circle_is_oriented_once(self, monkeypatch):
        # on s2-z2 the circle is one object: the index-0 model and both
        # point-source domains.  The reader orients it to learn that the
        # model is closed, and the build reads the same orientation
        walks = count_walks(monkeypatch)
        fp = presentation_from_doc(json.loads(
            (data_dir() / "s2-z2.json").read_text("utf-8")))
        circle = fp.crit_at(0).complex
        assert all(comp.domain is circle for comp in fp.moduli)
        build_multicomplex(fp)
        assert len(walks) == 1 and walks[0] is circle


class TestSharedComplexes:
    def test_equal_data_is_one_object(self):
        # all four complexes of the mapping torus hold the same data: one
        # complex serves both models and both domains, so the reader
        # orients one object
        fp = presentation_from_doc(bott_twist_doc())
        a, b = fp.crit_at(0).complex, fp.crit_at(1).complex
        assert a is b
        for comp in fp.moduli:
            assert comp.domain is b
            assert comp.ev_minus.source is comp.domain
            assert comp.ev_minus.target is b
        assert [str(h) for h in homology_table(
            build_multicomplex(fp, check=False), range(4))] == \
            ["Z", "Z^2", "Z ⊕ Z/2", "0"]

    def test_same_output_with_sharing_off(self, tmp_path, capsys):
        # every repeat of a complex listing written another way, so the
        # reader's verbatim key shares none: each repeat is reversed and
        # the t-th lists its last simplex t more times (repeats are
        # allowed), which tells one-simplex listings apart too
        def listings(doc):
            return [(entry, "complex") for entry in doc["critical"]
                    if "complex" in entry] + \
                [(comp, "domain") for comp in doc["moduli"]]

        def unshared(doc):
            doc = json.loads(json.dumps(doc))
            seen = {}
            for owner, key in listings(doc):
                data = owner[key]
                listed = json.dumps(data)
                t = seen[listed] = seen.get(listed, -1) + 1
                if t:
                    simplices = data["simplices"][::-1]
                    owner[key] = {**data,
                                  "simplices": simplices + simplices[-1:] * t}
            return doc

        def objects(doc):
            fp = presentation_from_doc(doc)
            return len({id(m.complex) for m in fp.crit if not m.is_points}
                       | {id(comp.domain) for comp in fp.moduli})

        def output(doc):
            path = tmp_path / "doc.json"
            path.write_text(json.dumps(doc), "utf-8")
            got = []
            for command in ("validate", "homology"):
                code = cli.main([command, "--json", str(path)])
                got.append((code, capsys.readouterr()))
            return got

        docs = [json.loads(path.read_text("utf-8"))
                for path in sorted(data_dir().glob("*.json"))]
        docs = [doc for doc in docs if doc.get("kind", "flow") == "flow"]
        docs += [workloads.make("bott-twist", 5, call)[0]
                 for call in range(5)]
        shared = 0
        for doc in docs:
            off = unshared(doc)
            assert objects(off) == len(listings(off))
            shared += objects(doc) < len(listings(doc))
            assert output(off) == output(doc)
        assert shared == len(docs) - 2  # s2-constant and s2-round

    def test_equal_maps_are_one_object(self, monkeypatch):
        # A, B and both domains are one complex here, so three of the four
        # listed maps are its identity: the reader builds two maps, the
        # identity and the swap, and the build checks the one covering
        # once
        built, checked = [], []
        real = schema.SimplicialMap

        def constructed(*args):
            built.append(args)
            return real(*args)

        def counted(f):
            checked.append(f)
            return check_covering(f)

        monkeypatch.setattr(schema, "SimplicialMap", constructed)
        monkeypatch.setattr(flowdata, "check_covering", counted)
        fp = presentation_from_doc(bott_twist_doc())
        first, second = fp.moduli
        assert first.ev_minus is second.ev_minus is first.ev_plus
        assert second.ev_plus is not first.ev_plus
        assert len(built) == 2
        build_multicomplex(fp)
        assert checked == [first.ev_minus]
        # in the benchmark's documents A is relabeled, so only the two
        # ev_minus maps are equal: three maps for four
        for call in range(3):
            built.clear()
            checked.clear()
            fp = presentation_from_doc(
                workloads.make("bott-twist", 5, call)[0])
            first, second = fp.moduli
            assert first.ev_minus is second.ev_minus
            assert len(built) == 3
            build_multicomplex(fp)
            assert checked == [first.ev_minus]

    def test_shared_failing_map_names_the_first_component(self):
        # one map that collapses the circle, the ev_minus of components
        # into rows 0 and 1: whichever comes first is named
        circle = triangle()
        collapse = SimplicialMap(circle, circle, vertex_image=[0, 1, 0])
        lower = (CritModel(index=0, names=("n",)),
                 CritModel(index=1, names=("m",)))
        rim = CritModel(index=2, complex=circle)
        moduli = [ModuliComponentModel(
            from_index=2, to_index=model.index, domain=circle,
            ev_minus=collapse,
            ev_plus=SimplicialMap(circle, model.model_complex(),
                                  vertex_image=[0, 0, 0]),
            sign=1) for model in lower]
        for order in (moduli, moduli[::-1]):
            fp = FlowPresentation(dim=3, crit=(*lower, rim),
                                  moduli=tuple(order))
            with pytest.raises(CoveringError, match=(
                    f"^component 2->{order[0].to_index}: ev_minus")):
                build_multicomplex(fp)

    def test_other_vertex_count_is_not_shared(self):
        # the same simplices with one more vertex make another complex
        fp = presentation_from_doc(bott_twist_doc(domain_vertices=10))
        first, second = (comp.domain for comp in fp.moduli)
        assert first is fp.crit_at(1).complex
        assert second is not first and second != first
        assert second.vertex_count == 10
        assert list(second.all_simplices()) == list(first.all_simplices())


def seeded_presentations(calls=20):
    """The corpus, then seeded documents of every benchmark workload."""
    for name in entry_names():
        yield name, read_corpus(name)[0]
    for workload in sorted(workloads.WORKLOADS):
        for call in range(calls):
            doc, _, _ = workloads.make(workload, 11, call)
            fp = morse_to_flow(morse_from_doc(doc)) \
                if doc["kind"] == "morse" else presentation_from_doc(doc)
            yield f"{workload}:{call}", fp


def corpus_mutants():
    """Each corpus flow presentation with the sign of one component
    flipped, and with its multiplicity raised by one."""
    for name in corpus_names("flow"):
        fp = read_corpus(name)[0]
        for t, comp in enumerate(fp.moduli):
            for bad in (ModuliComponentModel(
                    comp.from_index, comp.to_index, comp.domain,
                    comp.ev_minus, comp.ev_plus, sign=-comp.sign,
                    multiplicity=comp.multiplicity),
                    with_multiplicity(comp, comp.multiplicity + 1)):
                moduli = fp.moduli[:t] + (bad,) + fp.moduli[t + 1:]
                yield f"{name}:{t}", with_moduli(fp, moduli)


class TestTrimmedPointRows:
    def test_same_report_and_homology_as_full_rows(self):
        # the generators past the reach of every flow line are a direct
        # summand with D o D = 0 and no homology: leaving them out keeps
        # the validation report and every homology group of the fat rows
        seen = {"valid": 0, "invalid": 0, "smaller": 0}
        for name, fp in [*seeded_presentations(), *corpus_mutants()]:
            trimmed = build_multicomplex(fp, check=False)
            cap = fp.dim + 2 + fp.dim % 2
            full = full_point_rows(trimmed, fp, cap)
            report = validate_multicomplex(full)
            assert validate_multicomplex(trimmed).describe() == \
                report.describe(), name
            seen["valid" if report.ok else "invalid"] += 1
            seen["smaller"] += (sum(trimmed.complex.ranks.values())
                                < sum(full.complex.ranks.values()))
            if report.ok:
                degrees = range(cap + full.ambient_dim + 1)
                assert homology_at(trimmed.complex, degrees) == \
                    homology_at(full.complex, degrees), name
        assert min(seen.values()) > 20, seen

    def test_cost_follows_the_data(self, tmp_path, monkeypatch):
        # the command line's total complex is the same however large the
        # declared column_cap or dim, for `morse` as for the others
        def written(name, **changes):
            doc = json.loads((data_dir() / f"{name}.json").read_text("utf-8"))
            doc.update(changes)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), "utf-8")
            return str(path)

        def total(name, **changes):
            _, _, mc, _ = cli._load(written(name, **changes))
            return mc.complex.ranks, mc.complex.boundaries

        built = []

        def recorded(fp, check=True):
            built.append(flowdata.build_multicomplex(fp, check))
            return built[-1]

        def morse_total(cap):
            built.clear()
            path = written("t2-morse-4pt", column_cap=cap)
            assert cli.main(["morse", path]) == cli.EXIT_OK
            [mc] = built
            return mc.complex.ranks, mc.complex.boundaries

        assert total("s2-z2", column_cap=6) == \
            total("s2-z2", column_cap=2000) == \
            total("s2-z2", column_cap=20000)
        assert total("s2-round", dim=2) == total("s2-round", dim=55)
        monkeypatch.setattr(cli, "build_multicomplex", recorded)
        assert morse_total(6) == morse_total(2000) == morse_total(20000)


def push_pull_blocks(fp):
    """{(p, i): d[1] at column p of row i} summed over the covering
    components from index i, each sign * multiplicity * P+ @ P-^T from the
    test references: P- the covering pullback along ev_minus, P+ the
    pushforward along ev_plus, or, onto a point row, which keeps a
    degenerate image as its point's generator, the matrix that sends each
    simplex to the point of its vertices."""
    blocks = {}
    for comp in fp.moduli:
        if fp.crit_at(comp.from_index).is_points:
            continue
        target = fp.crit_at(comp.to_index)
        for p in range(comp.domain.top_dim + 1):
            if target.is_points:
                cells = comp.domain.simplices_of_dim(p)
                push = IntMatrix.from_columns(
                    len(target.names), len(cells),
                    [{comp.ev_plus.vertex_image[s[0]]: 1} for s in cells])
            else:
                push = matrix_of_pushforward(comp.ev_plus, p)
            term = (push @ matrix_of_pullback(comp.ev_minus, p)).scaled(
                comp.sign * comp.multiplicity)
            key = (p, comp.from_index)
            blocks[key] = blocks[key] + term if key in blocks else term
    return blocks


def random_covering_presentation(rng):
    """A relabeled circle, grid torus or tetrahedron boundary at index 1,
    and one or two components onto index 0, whose domains are relabeled
    1- to 3-sheeted coverings of it: k copies, or, across the seam of the
    circle or torus, the connected cyclic cover.  ev_plus is a random
    vertex map onto a tetrahedron boundary, or a constant map onto one of
    three points.  Returns (presentation, kinds seen)."""
    kind = rng.choice(("circle", "torus", "sphere"))
    if kind == "circle":
        n = rng.randint(3, 6)
        base, ring = [(v, (v + 1) % n) for v in range(n)], lambda v: v
    elif kind == "torus":
        n = 3
        base, ring = workloads.torus_triangles(n), lambda v: v // n
    else:
        n, base, ring = 0, list(combinations(range(4), 3)), None
    size = max(v for s in base for v in s) + 1
    sigma = rng.sample(range(size), size)
    model = CritModel(1, complex=SimplicialComplexData(
        size, closed([[sigma[v] for v in s] for s in base])))
    points = rng.random() < 0.4
    target = CritModel(0, names=("a", "b", "c")) if points else \
        CritModel(0, complex=SimplicialComplexData.from_simplices(
            closed(combinations(range(4), 3))))
    kinds = {kind, "points" if points else "simplicial"}
    moduli = []
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(1, 3)
        cyclic = ring is not None and k > 1 and rng.random() < 0.5
        kinds.add("cyclic" if cyclic else f"{k} sheets")

        def lift(s, c):
            crosses = cyclic and {ring(v) for v in s} >= {0, n - 1}
            return [(c + (crosses and ring(v) == 0)) % k * size + v
                    for v in s]

        tau = rng.sample(range(k * size), k * size)
        domain = SimplicialComplexData(
            k * size, closed([[tau[x] for x in lift(s, c)]
                              for s in base for c in range(k)]))
        minus = [0] * (k * size)
        for x in range(k * size):
            minus[tau[x]] = sigma[x % size]
        plus = [rng.randrange(3)] * (k * size) if points else \
            [rng.randrange(4) for _ in range(k * size)]
        moduli.append(ModuliComponentModel(
            1, 0, domain, SimplicialMap(domain, model.complex, minus),
            SimplicialMap(domain, target.model_complex(), plus),
            sign=rng.choice((1, -1)), multiplicity=rng.randint(1, 3)))
    return FlowPresentation(3, (target, model), moduli), kinds


class TestCoveringBlock:
    # the build adds weight * sign-(u) * sign+(u) at (image of u under
    # ev_plus, image of u under ev_minus) for each simplex u of a covering
    # domain: the product P+ P-^T of the chain-level references

    def check(self, fp):
        """The number of covering blocks of `fp`, and of nonzero ones."""
        mc = build_multicomplex(fp, check=False)
        blocks = push_pull_blocks(fp)
        for (p, i), want in blocks.items():
            assert structure_map(mc, 1, p, i) == want, (p, i)
        return len(blocks), sum(not b.is_zero() for b in blocks.values())

    @pytest.mark.parametrize("n", (3, 4))
    def test_linear_twists(self, n):
        # identity minus phi at every column: zero only for phi = 1
        for phi in linear_twists():
            fp = presentation_from_doc(twist_doc(n, phi))
            assert self.check(fp) == (3, 0 if phi == ((1, 0), (0, 1)) else 3)

    def test_random_coverings(self):
        seen = set()
        nonzero = 0
        for seed in range(60):
            fp, kinds = random_covering_presentation(random.Random(seed))
            nonzero += self.check(fp)[1]
            seen |= kinds
        assert seen == {"circle", "torus", "sphere", "points", "simplicial",
                        "cyclic", "1 sheets", "2 sheets", "3 sheets"}
        assert nonzero > 60

    def test_corpus(self):
        # s2-minus-z2 lands on point rows, t2-height's blocks cancel
        counts = {name: self.check(read_corpus(name)[0])
                  for name in corpus_names("flow")}
        assert {name: n for name, n in counts.items() if n[0]} == \
            {"s2-minus-z2": (2, 2), "t2-height": (2, 0)}


class TestLowRelations:
    """The relations of D o D = 0 with j <= 1 hold on every build: d[0] is
    a signed simplicial boundary, each covering block of d[1] is a
    transfer followed by a pushforward, both chain maps, and a point
    source pushes a closed fundamental cycle.  So every failure the
    validator finds on a build has j >= 2."""

    def failures(self, fp):
        """(j, p, i) of each failure on the build of `fp`; a hand-built
        copy, which forms every pair, has the same report."""
        mc = build_multicomplex(fp, check=False)
        report = validate_multicomplex(mc)
        copy = MBSMulticomplex(mc.ambient_dim, mc.row_ranks, mc.maps)
        assert validate_multicomplex(copy).describe() == report.describe()
        return [failure[:3] for failure in report.identity_failures]

    def test_corpus_mutants(self):
        failing = 0
        for name, fp in corpus_mutants():
            found = self.failures(fp)
            assert all(j >= 2 for j, _, _ in found), (name, found)
            failing += bool(found)
        assert failing > 20

    def test_random_coverings(self):
        # two rows, so every relation has j <= 1
        for seed in range(60):
            fp, _ = random_covering_presentation(random.Random(seed))
            assert self.failures(fp) == [], seed


class TestNoChainIsWalked:
    def test_commands_read_the_index_lists(self, tmp_path, capsys):
        # the build reads each simplicial map's index and sign lists: no
        # per-simplex image is left to call, and a covering document, a
        # point source onto a simplicial rim and a Morse document give
        # their tables
        assert not hasattr(SimplicialMap, "image_simplex")
        corpus = {name: json.loads((data_dir() / f"{name}.json")
                                   .read_text("utf-8"))
                  for name in ("s2-z2", "t2-morse-4pt")}
        docs = [("bott-twist", workloads.make("bott-twist", 1, 0)[0],
                 [(1, []), (2, []), (1, [2])]),
                ("s2-z2", corpus["s2-z2"], [(1, []), (0, []), (1, [])]),
                ("t2-morse-4pt", corpus["t2-morse-4pt"],
                 [(1, []), (2, []), (1, [])])]
        for name, doc, table in docs:
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), "utf-8")
            assert cli.main(["homology", str(path), "--json"]) == cli.EXIT_OK
            out = json.loads(capsys.readouterr().out)
            assert [(g["betti"], g["torsion"])
                    for g in out["homology"]][:3] == table, name

import json
import sys
from pathlib import Path

import pytest

from mbhomology import cli, flowdata
from mbhomology.chain import homology_at
from mbhomology.exactalg import IntMatrix
from mbhomology.flowdata import (
    CritModel,
    FlowDataError,
    FlowPresentation,
    ModuliComponentModel,
    build_multicomplex,
    default_column_cap,
    morse_to_flow,
)
from mbhomology.corpus import data_dir, load_entries
from mbhomology.morse import MorseData
from mbhomology.multicomplex import InvalidMulticomplex, validate_multicomplex
from mbhomology.pipeline import homology_table
from mbhomology.schema import morse_from_doc, presentation_from_doc
from mbhomology.simplicial import (
    CoveringError,
    SimplicialComplexData,
    SimplicialMap,
    covering_lifts,
    fundamental_cycle,
)

from support import chain_to_vector, full_point_rows

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def triangle():
    return SimplicialComplexData.from_simplices([(0, 1), (1, 2), (0, 2)])


def with_moduli(fp, moduli):
    return FlowPresentation(dim=fp.dim, crit=fp.crit, moduli=moduli,
                            column_cap=fp.column_cap)


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
        assert (bare.crit, bare.moduli, bare.column_cap) == ((), (), None)

    def test_default_cap(self):
        assert default_column_cap(2) == 4
        assert default_column_cap(1) == 4
        assert default_column_cap(4) == 6


class TestBuild:
    def test_minus_z2_column_zero_map(self):
        mc = build_multicomplex(minus_z2_presentation())
        d1 = mc.map(1, 0, 1)
        # every vertex of the rim maps to n - s
        assert d1 == IntMatrix.from_rows([[1, 1, 1], [-1, -1, -1]])
        table = homology_table(mc)
        assert [h.betti for h in table[:3]] == [1, 0, 1]
        assert all(not h.torsion for h in table[:3])

    def test_minus_z2_higher_columns_land_in_point_row(self):
        mc = build_multicomplex(minus_z2_presentation())
        d1 = mc.map(1, 1, 1)
        # edges push to constant degenerate chains on each pole
        assert d1 == IntMatrix.from_rows([[1, 1, 1], [-1, -1, -1]])

    def test_torus_height_vanishing_interaction(self):
        mc = build_multicomplex(torus_height_presentation())
        for p in range(0, 2):
            assert mc.map(1, p, 1).is_zero()
        table = homology_table(mc)
        assert [h.betti for h in table[:3]] == [1, 2, 1]

    def test_covering_checked_once_per_component(self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return covering_lifts(f)

        monkeypatch.setattr(flowdata, "covering_lifts", counted)
        fp = torus_height_presentation()
        build_multicomplex(fp)
        assert calls == [comp.ev_minus for comp in fp.moduli]

    def test_point_source_contributes_fundamental_cycle(self):
        # z^2 sphere: the two columns of d[2] are opposite rim cycles
        from test_multicomplex import s2_z2_presentation
        fp = s2_z2_presentation()
        mc = build_multicomplex(fp)
        rim = fp.crit_at(0).complex
        cycle = chain_to_vector(rim, 1, fundamental_cycle(rim).as_chain())
        d2 = mc.map(2, 0, 2)
        assert d2.col(0) == cycle
        assert d2.col(1) == tuple(-x for x in cycle)

    def test_rejects_nonconstant_point_source_map(self):
        # a disconnected domain can map locally constantly to two different
        # source points; one component must sit over a single point
        two_points = SimplicialComplexData.from_simplices([(0,), (1,)])
        upper = CritModel(index=1, names=("a", "b"))
        lower = CritModel(index=0, names=("m",))
        comp = ModuliComponentModel(
            from_index=1, to_index=0, domain=two_points,
            ev_minus=SimplicialMap(two_points, upper.model_complex(),
                                   vertex_image=[0, 1]),
            ev_plus=SimplicialMap(two_points, lower.model_complex(),
                                  vertex_image=[0, 0]),
            sign=1)
        fp = FlowPresentation(dim=2, crit=(lower, upper), moduli=(comp,))
        with pytest.raises(FlowDataError):
            build_multicomplex(fp)

    def test_rejects_non_covering_ev_minus(self):
        # collapse the rim model onto an edge: not a covering of the circle
        tri = triangle()
        seg = SimplicialComplexData.from_simplices([(0, 1)])
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

    def test_rejects_wrong_domain_dimension(self):
        tri = triangle()
        poles = CritModel(index=2, names=("n",))
        rim = CritModel(index=0, complex=tri)
        pt = SimplicialComplexData.from_simplices([(0,)])
        comp = ModuliComponentModel(
            from_index=2, to_index=0, domain=pt,
            ev_minus=SimplicialMap(pt, poles.model_complex(),
                                   vertex_image=[0]),
            ev_plus=SimplicialMap(pt, tri, vertex_image=[0]),
            sign=1)
        fp = FlowPresentation(dim=2, crit=(rim, poles), moduli=(comp,))
        with pytest.raises(FlowDataError):
            build_multicomplex(fp)


class TestMorseToFlow:
    def test_torus_no_flow_lines(self):
        md = MorseData(crit_by_index={0: ("bottom",),
                                      1: ("inner", "outer"),
                                      2: ("top",)},
                       counts={})
        mc = build_multicomplex(morse_to_flow(md))
        assert mc.map(1, 0, 1).is_zero()
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
        assert mc.map(1, 0, 1) == IntMatrix.from_rows([[-2]])

    def test_large_count_is_one_component(self):
        # a count costs one component whatever its size: d(s) = 10^9 m
        n = 10 ** 9
        md = MorseData(crit_by_index={0: ("m",), 1: ("s",)},
                       counts={("s", "m"): n})
        fp = morse_to_flow(md)
        assert [(c.sign, c.multiplicity) for c in fp.moduli] == [(1, n)]
        mc = build_multicomplex(fp)
        assert mc.map(1, 0, 1) == IntMatrix.from_rows([[n]])
        assert [str(g) for g in homology_table(mc, range(2))] == \
            [f"Z/{n}", "0"]

    def test_components_share_one_map_per_point(self):
        # every point has several components; each of its components points
        # at the one map onto the point's vertex
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
        assert len({id(ev) for maps in by_point.values() for ev in maps}) == 5

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
        assert one.map(1, 1, 1) == IntMatrix.from_rows([[1, 1, 1],
                                                        [-3, -3, -3]])

    def test_rejects_multiplicity_below_one(self):
        fp = minus_z2_presentation()
        bad = with_multiplicity(fp.moduli[0], 0)
        with pytest.raises(FlowDataError, match="multiplicity 0"):
            build_multicomplex(with_moduli(fp, (bad, fp.moduli[1])))

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
    torus = {"vertices": 9, "simplices": [sorted(t) for t in tris]}
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


class TestSharedComplexes:
    def test_equal_data_is_one_object(self):
        # all four complexes of the mapping torus hold the same data: one
        # complex serves both models and both domains, so the endpoint
        # checks of validate meet the same object
        fp = presentation_from_doc(bott_twist_doc())
        a, b = fp.crit_at(0).complex, fp.crit_at(1).complex
        assert a is b
        for comp in fp.moduli:
            assert comp.domain is b
            assert comp.ev_minus.source is comp.domain
            assert comp.ev_minus.target is b
        assert fp.validate() == []
        assert [str(h) for h in homology_table(
            build_multicomplex(fp, check=False), range(4))] == \
            ["Z", "Z^2", "Z ⊕ Z/2", "0"]

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
    for entry in load_entries():
        yield entry.name, entry.presentation
    for workload in sorted(workloads.WORKLOADS):
        for call in range(calls):
            doc, _, _ = workloads.make(workload, 11, call)
            fp = morse_to_flow(morse_from_doc(doc)) \
                if doc["kind"] == "morse" else presentation_from_doc(doc)
            yield f"{workload}:{call}", fp


def corpus_mutants():
    """Each corpus flow presentation with the sign of one component
    flipped, and with its multiplicity raised by one."""
    for entry in load_entries():
        if entry.kind != "flow":
            continue
        fp = entry.presentation
        for t, comp in enumerate(fp.moduli):
            for bad in (ModuliComponentModel(
                    comp.from_index, comp.to_index, comp.domain,
                    comp.ev_minus, comp.ev_plus, sign=-comp.sign,
                    multiplicity=comp.multiplicity),
                    with_multiplicity(comp, comp.multiplicity + 1)):
                moduli = fp.moduli[:t] + (bad,) + fp.moduli[t + 1:]
                yield f"{entry.name}:{t}", with_moduli(fp, moduli)


class TestTrimmedPointRows:
    def test_same_report_and_homology_as_full_rows(self):
        # the generators past the reach of every flow line are a direct
        # summand with D o D = 0 and no homology: leaving them out keeps
        # the validation report and every homology group of the fat rows
        seen = {"valid": 0, "invalid": 0, "smaller": 0}
        for name, fp in [*seeded_presentations(), *corpus_mutants()]:
            trimmed = build_multicomplex(fp, check=False)
            full = full_point_rows(trimmed)
            report = validate_multicomplex(full)
            assert validate_multicomplex(trimmed).describe() == \
                report.describe(), name
            seen["valid" if report.ok else "invalid"] += 1
            seen["smaller"] += (sum(trimmed.complex.ranks.values())
                                < sum(full.complex.ranks.values()))
            if report.ok:
                degrees = range(full.column_cap + full.ambient_dim + 1)
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
            mc, _ = cli._load(written(name, **changes))
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

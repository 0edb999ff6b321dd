"""Regenerate the shipped corpus files in canonical JSON form.

    PYTHONPATH=src python3 scripts/make_corpus.py

The document writers (`presentation_to_doc`, `morse_to_doc`) live here:
the program only reads documents (mbhomology.schema).
"""

import pathlib
from itertools import combinations

from mbhomology.schema import SCHEMA_VERSION, canonical_json
from mbhomology.flowdata import CritModel, FlowPresentation, ModuliComponentModel
from mbhomology.morse import MorseData
from mbhomology.simplicial import SimplicialComplexData, SimplicialMap

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "mbhomology" / "data"


def complex_to_data(k):
    return {
        "vertices": k.vertex_count,
        "simplices": [list(s) for s in k.all_simplices()],
    }


def presentation_to_doc(fp, meta=None):
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "flow",
        "dim": fp.dim,
        "critical": [],
        "moduli": [],
    }
    for model in sorted(fp.crit, key=lambda m: m.index):
        if model.is_points:
            doc["critical"].append({
                "index": model.index,
                "kind": "points",
                "names": list(model.names),
            })
        else:
            doc["critical"].append({
                "index": model.index,
                "kind": "simplicial",
                "complex": complex_to_data(model.complex),
            })
    for comp in fp.moduli:
        if comp.multiplicity != 1:
            raise ValueError(
                f"component {comp.from_index}->{comp.to_index} has "
                f"multiplicity {comp.multiplicity}; the flow schema stores "
                "one component per entry")
        doc["moduli"].append({
            "from": comp.from_index,
            "to": comp.to_index,
            "domain": complex_to_data(comp.domain),
            "ev_minus": list(comp.ev_minus.vertex_image),
            "ev_plus": list(comp.ev_plus.vertex_image),
            "sign": comp.sign,
        })
    if meta:
        doc.update(meta)
    return doc


def morse_to_doc(md, meta=None):
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "morse",
        "critical": {str(k): list(v) for k, v in md.crit_by_index.items()},
        "counts": [[q, p, n] for (q, p), n in sorted(md.counts.items())],
    }
    if meta:
        doc.update(meta)
    return doc


def closed(tops):
    """The simplices `tops` with all their faces: the reader takes a
    complex as it is listed."""
    return [face for s in tops for size in range(1, len(s) + 1)
            for face in combinations(s, size)]


def triangle():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1), (1, 2), (0, 2)]))


def square():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1), (1, 2), (2, 3), (0, 3)]))


def interval():
    return SimplicialComplexData.from_simplices(closed([(0, 1)]))


def point():
    return SimplicialComplexData.from_simplices([(0,)])


def sphere():
    return SimplicialComplexData.from_simplices(
        closed([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]))


def sphere_expected():
    return [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": []},
        {"degree": 3, "betti": 0, "torsion": []},
    ]


def torus_expected():
    return [
        {"degree": 0, "betti": 1, "torsion": []},
        {"degree": 1, "betti": 2, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": []},
        {"degree": 3, "betti": 0, "torsion": []},
    ]


def s2_constant():
    fp = FlowPresentation(
        dim=2,
        crit=(CritModel(index=0, complex=sphere()),),
        moduli=())
    meta = {
        "name": "s2-constant",
        "manifold": "s2",
        "expected": sphere_expected(),
        "notes": "Constant function on the sphere: the whole manifold is "
                 "critical of index 0, so the table is the simplicial "
                 "homology of the boundary of the 3-simplex.",
    }
    return fp, meta


def s2_z2():
    tri = triangle()
    poles = CritModel(index=2, names=("n", "s"))
    rim = CritModel(index=0, complex=tri)
    comps = []
    for vertex, sign in ((0, 1), (1, -1)):
        comps.append(ModuliComponentModel(
            from_index=2, to_index=0, domain=tri,
            ev_minus=SimplicialMap(tri, poles.model_complex(), [vertex] * 3),
            ev_plus=SimplicialMap(tri, tri, [0, 1, 2]),
            sign=sign))
    fp = FlowPresentation(dim=2, crit=(rim, poles), moduli=tuple(comps))
    meta = {
        "name": "s2-z2",
        "manifold": "s2",
        "expected": sphere_expected(),
        "notes": "Height squared on the sphere: a circle of minima and two "
                 "maxima n, s. Each pole flows onto the full circle with "
                 "opposite orientations, so the two columns of the index-"
                 "drop-2 map are opposite fundamental cycles.",
    }
    return fp, meta


def s2_minus_z2():
    tri = triangle()
    rim = CritModel(index=1, complex=tri)
    poles = CritModel(index=0, names=("n", "s"))
    comps = []
    for vertex, sign in ((0, 1), (1, -1)):
        comps.append(ModuliComponentModel(
            from_index=1, to_index=0, domain=tri,
            ev_minus=SimplicialMap(tri, tri, [0, 1, 2]),
            ev_plus=SimplicialMap(tri, poles.model_complex(), [vertex] * 3),
            sign=sign))
    fp = FlowPresentation(dim=2, crit=(poles, rim), moduli=tuple(comps))
    meta = {
        "name": "s2-minus-z2",
        "manifold": "s2",
        "expected": sphere_expected(),
        "notes": "Negated height squared: a circle of index-1 critical "
                 "points over two minima. Each circle point flows to both "
                 "poles with opposite signs, giving d(x) = n - s on "
                 "vertices.",
    }
    return fp, meta


def s2_round():
    tri = triangle()
    top = CritModel(index=2, names=("top",))
    bottom = CritModel(index=0, names=("bottom",))
    comp = ModuliComponentModel(
        from_index=2, to_index=0, domain=tri,
        ev_minus=SimplicialMap(tri, top.model_complex(), [0, 0, 0]),
        ev_plus=SimplicialMap(tri, bottom.model_complex(), [0, 0, 0]),
        sign=1)
    fp = FlowPresentation(dim=2, crit=(bottom, top), moduli=(comp,))
    meta = {
        "name": "s2-round",
        "manifold": "s2",
        "expected": sphere_expected(),
        "notes": "Round sphere with the full circle of flow lines kept as "
                 "a single index-drop-2 component; its image is a "
                 "degenerate degree-1 chain on the minimum's point row.",
    }
    return fp, meta


def t2_height():
    tri = triangle()
    upper = CritModel(index=1, complex=tri)
    lower = CritModel(index=0, complex=tri)
    comps = []
    for sign in (1, -1):
        comps.append(ModuliComponentModel(
            from_index=1, to_index=0, domain=tri,
            ev_minus=SimplicialMap(tri, tri, [0, 1, 2]),
            ev_plus=SimplicialMap(tri, tri, [0, 1, 2]),
            sign=sign))
    fp = FlowPresentation(dim=2, crit=(lower, upper), moduli=tuple(comps))
    meta = {
        "name": "t2-height",
        "manifold": "t2",
        "expected": torus_expected(),
        "notes": "Height on the horizontal torus: two critical circles. "
                 "The two sheets of flow lines have equal composed maps and "
                 "opposite orientations, so their contributions cancel "
                 "identically.",
    }
    return fp, meta


def t2_deformed():
    base = square()
    mid = CritModel(index=1, names=("p1", "q1"))
    top = CritModel(index=2, names=("p2", "q2"))
    bottom = CritModel(index=0, complex=base)
    pt = point()
    seg = interval()

    def pt_comp(src, src_v, tgt, tgt_v, sign):
        return ModuliComponentModel(
            from_index=src.index, to_index=tgt.index, domain=pt,
            ev_minus=SimplicialMap(pt, src.model_complex(), [src_v]),
            ev_plus=SimplicialMap(pt, tgt.model_complex(), [tgt_v]),
            sign=sign)

    def arc_comp(src_v, edge, sign):
        return ModuliComponentModel(
            from_index=2, to_index=0, domain=seg,
            ev_minus=SimplicialMap(seg, top.model_complex(),
                                   [src_v, src_v]),
            ev_plus=SimplicialMap(seg, base, list(edge)),
            sign=sign)

    comps = (
        # flows from the index-1 points to the base circle
        pt_comp(mid, 0, bottom, 0, 1),    # p1 -> p0  (vertex 0)
        pt_comp(mid, 0, bottom, 1, -1),   # p1 -> p0' (vertex 1)
        pt_comp(mid, 1, bottom, 3, 1),    # q1 -> q0  (vertex 3)
        pt_comp(mid, 1, bottom, 2, -1),   # q1 -> q0' (vertex 2)
        # flows from the maxima to the index-1 points
        pt_comp(top, 0, mid, 0, 1),       # p2 -> p1
        pt_comp(top, 0, mid, 1, -1),      # p2 -> q1
        pt_comp(top, 1, mid, 0, -1),      # q2 -> p1
        pt_comp(top, 1, mid, 1, 1),       # q2 -> q1
        # index-drop-2 arcs onto the long sides of the base circle
        arc_comp(0, (1, 2), 1),
        arc_comp(0, (0, 3), -1),
        arc_comp(1, (1, 2), -1),
        arc_comp(1, (0, 3), 1),
    )
    fp = FlowPresentation(dim=2, crit=(bottom, mid, top), moduli=comps)
    meta = {
        "name": "t2-deformed",
        "manifold": "t2",
        "expected": torus_expected(),
        "notes": "Tilted function on the torus: a circle of minima, two "
                 "index-1 points p1, q1 and two maxima p2, q2. Base-circle "
                 "vertices: 0 = p0, 1 = p0', 2 = q0', 3 = q0. The arcs "
                 "from the maxima sweep the two long sides of the base "
                 "circle with orientations that cancel in the sum p2 + q2.",
    }
    return fp, meta


def morse_entries():
    yield (
        MorseData(crit_by_index={0: ("bottom",), 2: ("top",)}, counts={}),
        {
            "name": "s2-morse-2pt",
            "manifold": "s2",
            "expected": sphere_expected(),
            "notes": "Round sphere with one minimum and one maximum; no "
                     "adjacent indices, so there are no flow-line counts.",
        },
    )
    yield (
        MorseData(crit_by_index={0: ("bottom",), 1: ("saddle",),
                                 2: ("east", "west")},
                  counts={("east", "saddle"): 1, ("west", "saddle"): -1}),
        {
            "name": "s2-morse-4pt",
            "manifold": "s2",
            "expected": sphere_expected(),
            "notes": "Sphere with two maxima over one saddle: "
                     "d(east) = saddle, d(west) = -saddle, d(saddle) = 0.",
        },
    )
    yield (
        MorseData(crit_by_index={0: ("bottom",), 1: ("inner", "outer"),
                                 2: ("top",)},
                  counts={}),
        {
            "name": "t2-morse-4pt",
            "manifold": "t2",
            "expected": torus_expected(),
            "notes": "Standing torus with four critical points; the signed "
                     "flow-line counts all cancel to zero.",
        },
    )


def documents():
    """(name, canonical JSON text) of every shipped file."""
    for fp, meta in (s2_constant(), s2_z2(), s2_minus_z2(), s2_round(),
                     t2_height(), t2_deformed()):
        yield meta["name"], canonical_json(presentation_to_doc(fp, meta))
    for md, meta in morse_entries():
        yield meta["name"], canonical_json(morse_to_doc(md, meta))


def main():
    DATA.mkdir(parents=True, exist_ok=True)
    for name, text in documents():
        path = DATA / f"{name}.json"
        path.write_text(text, "utf-8")
        print("wrote", path)


if __name__ == "__main__":
    main()

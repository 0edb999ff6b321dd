"""On-disk JSON documents: flow presentations, Morse data and expected
homology.

Every document carries a versioned "schema" field; the same schema is used
for the shipped example files and for user input.  Readers raise
SchemaError, a ValueError, naming the file or JSON path at fault.
"""

import json

from .flowdata import (
    CritModel,
    FlowPresentation,
    ModuliComponentModel,
    morse_to_flow,
)
from .simplicial import SimplicialComplexData, SimplicialMap

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input document violates the file schema."""


def canonical_json(doc):
    """Fixed formatting so files and reports are diffable byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _wrong(value, kind):  # a bool never passes: no schema field is one
    return isinstance(value, bool) or not isinstance(value, kind)


def _typed(value, kind, what, *idx):
    """`value` if it is a `kind`; else an error naming `what[i]...` for
    the indices `idx`, a path formatted only then."""
    if _wrong(value, kind):
        what += "".join(f"[{i}]" for i in idx)
        raise SchemaError(f"{what} has type {type(value).__name__}")
    return value


def _each(items, kind, where, *idx):
    """`items`, a list, once every element is a `kind`; element t is named
    `where[i]...[t]` for the indices `idx`."""
    for t, item in enumerate(items):
        if _wrong(item, kind):
            _typed(item, kind, where, *idx, t)
    return items


def _require(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object, got "
                          f"{type(doc).__name__}")
    if key not in doc:
        raise SchemaError(f"{where}: missing key '{key}'")
    return _typed(doc[key], kind, f"{where}: key '{key}'")


def _optional(doc, key, kind, where, default):
    if key not in doc:
        return default
    return _require(doc, key, kind, where)


def column_cap_from_doc(doc, where="document"):
    """The optional column cap: an int, or None (absent or null) for the
    default."""
    return _optional(doc, "column_cap", (int, type(None)), where, None)


def complex_from_data(entry, key, where, dim, built):
    """The simplicial complex stored under `key` of the object at `where`.

    A listed simplex of dimension above `dim` is refused before the
    closure, which would cost 2^n faces for n vertices: no accepted
    document holds one.  `built` maps the (vertices, simplices) of every
    complex read so far to its complex, so the same data gives the same
    object.
    """
    data = _require(entry, key, dict, where)
    vertices = _require(data, "vertices", int, where)
    simplices = _require(data, "simplices", list, where)
    spot = f"{where}.{key}.simplices"
    for t, simplex in enumerate(simplices):
        _each(_typed(simplex, list, spot, t), int, spot, t)
    seen = (vertices, tuple(tuple(s) for s in simplices))
    if seen in built:
        return built[seen]
    for t, simplex in enumerate(simplices):
        if len(simplex) > dim + 1 and len(set(simplex)) > dim + 1:
            raise SchemaError(f"{spot}[{t}] has dimension "
                              f"{len(set(simplex)) - 1}, above dim {dim}")
    try:
        built[seen] = SimplicialComplexData(vertices, seen[1])
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{where}: {err}") from err
    return built[seen]


def complex_to_data(k):
    return {
        "vertices": k.vertex_count,
        "simplices": [list(s) for s in k.all_simplices()],
    }


def presentation_from_doc(doc, where="presentation"):
    dim = _require(doc, "dim", int, where)
    crit = []
    models = {}
    built = {}
    for t, entry in enumerate(_require(doc, "critical", list, where)):
        spot = f"{where}.critical[{t}]"
        index = _require(entry, "index", int, spot)
        kind = _require(entry, "kind", str, spot)
        if kind == "points":
            names = tuple(_each(_require(entry, "names", list, spot), str,
                                f"{spot}.names"))
            model = CritModel(index=index, names=names)
        elif kind == "simplicial":
            cx = complex_from_data(entry, "complex", spot, dim, built)
            model = CritModel(index=index, complex=cx)
        else:
            raise SchemaError(f"{spot}: unknown kind '{kind}'")
        crit.append(model)
        models[index] = model
    moduli = []
    for t, entry in enumerate(_optional(doc, "moduli", list, where, [])):
        spot = f"{where}.moduli[{t}]"
        src = _require(entry, "from", int, spot)
        tgt = _require(entry, "to", int, spot)
        domain = complex_from_data(entry, "domain", spot, dim, built)
        sign = _require(entry, "sign", int, spot)
        if src not in models or tgt not in models:
            raise SchemaError(f"{spot}: endpoints {src}->{tgt} not among "
                              "the critical indices")
        images = {key: _each(_require(entry, key, list, spot), int,
                             f"{spot}.{key}")
                  for key in ("ev_minus", "ev_plus")}
        try:
            ev_minus = SimplicialMap(domain, models[src].model_complex(),
                                     images["ev_minus"])
            ev_plus = SimplicialMap(domain, models[tgt].model_complex(),
                                    images["ev_plus"])
        except ValueError as err:
            raise SchemaError(f"{spot}: {err}") from err
        moduli.append(ModuliComponentModel(
            from_index=src, to_index=tgt, domain=domain,
            ev_minus=ev_minus, ev_plus=ev_plus, sign=sign))
    return FlowPresentation(dim=dim, crit=tuple(crit), moduli=tuple(moduli),
                            column_cap=column_cap_from_doc(doc, where))


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
    if fp.column_cap is not None:
        doc["column_cap"] = fp.column_cap
    if meta:
        doc.update(meta)
    return doc


def morse_from_doc(doc, where="morse data"):
    from .morse import InvalidMorseData, MorseData  # Morse documents only

    crit = {}
    for key, names in _require(doc, "critical", dict, where).items():
        try:
            index = int(key)
        except ValueError as err:
            raise SchemaError(f"{where}: critical index '{key}'") from err
        if index < 0:
            raise SchemaError(f"{where}.critical: key '{key}' is negative")
        if key != str(index):  # "01" would alias "1" and replace its points
            raise SchemaError(f"{where}.critical: key '{key}' is not {index}")
        crit[index] = tuple(_each(
            _typed(names, list, f"{where}.critical: key '{key}'"), str,
            f"{where}.critical['{key}']"))
    counts = {}
    spot = f"{where}.counts"
    for t, item in enumerate(_optional(doc, "counts", list, where, [])):
        if not (isinstance(item, list) and len(item) == 3):
            raise SchemaError(f"{spot}[{t}]: expected [from, to, n]")
        for s, kind in enumerate((str, str, int)):
            _typed(item[s], kind, spot, t, s)
        q, p, n = item
        counts[(q, p)] = counts.get((q, p), 0) + n
    try:
        return MorseData(crit_by_index=crit, counts=counts)
    except InvalidMorseData as err:
        raise SchemaError(f"{where}: {err}") from err


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


def expected_from_doc(doc, where="document"):
    """Optional expected homology: {degree: (betti, torsion tuple)}, each
    degree given once."""
    if "expected" not in doc:
        return None
    out = {}
    for t, entry in enumerate(_require(doc, "expected", list, where)):
        spot = f"{where}.expected[{t}]"
        degree = _require(entry, "degree", int, spot)
        if degree in out:
            raise SchemaError(f"{spot}: degree {degree} is given twice")
        betti = _require(entry, "betti", int, spot)
        torsion = tuple(_each(_optional(entry, "torsion", list, spot, []),
                              int, f"{spot}.torsion"))
        out[degree] = (betti, torsion)
    return out


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise SchemaError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema {schema!r}")
    return doc


def presentation_from_file(path):
    """(FlowPresentation, MorseData or None, document): the one reader that
    tells a Morse document from a flow one.  A Morse document's data comes
    second and is converted at its column cap; a flow document has None
    there.  Raises SchemaError naming the file or JSON path at fault."""
    doc = load_document(path)
    kind = doc.get("kind", "flow")
    if kind == "morse":
        md = morse_from_doc(doc, where=path)
        cap = column_cap_from_doc(doc, path)
        return morse_to_flow(md, cap=cap), md, doc
    if kind != "flow":
        raise SchemaError(f"{path}: unknown kind '{kind}'")
    return presentation_from_doc(doc, where=path), None, doc

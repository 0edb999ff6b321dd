"""Reading on-disk JSON documents: flow presentations, Morse data and
expected homology.

Every document carries a versioned "schema" field; the same schema is used
for the shipped example files and for user input.  The readers make every
check of a document, each once: the builder and the Morse code check
nothing a document can get wrong.  Each refusal is a SchemaError, a
ValueError, whose message starts with the JSON path of the entry at fault
(`FILE.critical[1]: duplicate point names`), or with the file alone for a
fault of the whole file or of a top-level key.  The writers of the shipped
files live in scripts/make_corpus.py.
"""

import json
from itertools import chain
from json.encoder import encode_basestring

from .chain import HomologyGroup
from .flowdata import (
    CritModel,
    FlowPresentation,
    ModuliComponentModel,
    morse_to_flow,
)
from .simplicial import (
    NoFundamentalCycle,
    SimplicialComplexData,
    SimplicialMap,
    fundamental_cycle,
)

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    """Input document violates the file schema."""


def canonical_json(doc):
    """The text of json.dumps(doc, sort_keys=True, indent=2,
    ensure_ascii=False) and a newline: files and reports diff byte for byte."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, out, nl):
    """Append the canonical text of `value` to `out`; `nl` is a newline
    and the indent of the current line.  Exact ints, strs, lists, tuples
    and dicts with str keys are written here, bools and None as json
    writes them; any other value (a float, a subclass, a dict with another
    key) by json.dumps itself, whose newlines take the current indent.
    Each item ends in ","; the last one, or the opening bracket of an empty
    container, is replaced by the closing bracket."""
    cls = value.__class__
    if cls is int:
        out.append(int.__repr__(value))
    elif cls is str:
        out.append(encode_basestring(value))
    elif value is True or value is False or value is None:
        out.append("true" if value else "false" if value is False else "null")
    elif cls is list or cls is tuple:
        inner = nl + "  "
        out.append("[")
        for item in value:
            out.append(inner)
            _write(item, out, inner)
            out.append(",")
        out[-1] = nl + "]" if value else "[]"
    elif cls is dict and {str}.issuperset(map(type, value)):
        inner = nl + "  "
        out.append("{")
        for key in sorted(value):
            out.append(f"{inner}{encode_basestring(key)}: ")
            _write(value[key], out, inner)
            out.append(",")
        out[-1] = nl + "}" if value else "{}"
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2,
                              ensure_ascii=False).replace("\n", nl))


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


def column_cap_from_doc(doc, where, dim):
    """Refuse an optional column cap that is neither an int nor null, or
    that is odd or below dim + 2.  This is the one cap check: no build
    reads the cap, since every even cap gives the same homology in every
    degree (flowdata.build_multicomplex)."""
    cap = _optional(doc, "column_cap", (int, type(None)), where, None)
    if cap is not None and (cap % 2 or cap < dim + 2):
        raise SchemaError(f"{where}: column cap {cap} must be even and at "
                          f"least {dim + 2}")


def complex_from_data(entry, key, where, dim, built):
    """The simplicial complex stored under `key` of the object at `where`.

    A listing of lists of ints passes two exact-type tests, each one
    C-level pass, and no Python loop; any other listing goes through
    `_typed` and `_each` in listing order, which name the first fault (or
    pass an int subclass that is not a bool).  A listed simplex of
    dimension above `dim` is refused here, by its path: no accepted
    document holds one.  The constructor's refusals, a listing not closed
    under faces among them, are named by the object's path.  `built` maps
    the (vertices, simplices) of every complex read so far to its complex,
    so the same data gives the same object.
    """
    data = _require(entry, key, dict, where)
    vertices = _require(data, "vertices", int, where)
    simplices = _require(data, "simplices", list, where)
    spot = f"{where}.{key}.simplices"
    if not ({list}.issuperset(map(type, simplices))
            and {int}.issuperset(map(type, chain.from_iterable(simplices)))):
        for t, simplex in enumerate(simplices):
            _each(_typed(simplex, list, spot, t), int, spot, t)
    seen = (vertices, tuple(map(tuple, simplices)))
    cx = built.get(seen)  # hashed here and at the store only
    if cx is not None:
        return cx
    if max(map(len, simplices), default=0) > dim + 1:
        for t, simplex in enumerate(simplices):
            if len(set(simplex)) > dim + 1:
                raise SchemaError(f"{spot}[{t}] has dimension "
                                  f"{len(set(simplex)) - 1}, above dim {dim}")
    try:
        cx = built[seen] = SimplicialComplexData(vertices, seen[1])
    except (TypeError, ValueError) as err:
        raise SchemaError(f"{where}: {err}") from err
    return cx


def _model_fault(model, dim, seen):
    """What is wrong with a critical model, given the indices of the models
    before it, or None: its index given twice or outside 0..dim, a model
    too big for dim - index, a name given twice, or a complex that is not
    a closed orientable pseudomanifold."""
    i, size = model.index, model.dimension
    if i in seen:
        return f"two models for index {i}"
    if not 0 <= i <= dim:
        return f"index {i} outside 0..{dim}"
    if i + size > dim:
        return f"model of dimension {size} exceeds dim - index = {dim - i}"
    if model.is_points:
        if len(set(model.names)) < len(model.names):
            return "duplicate point names"
        return None
    try:
        if fundamental_cycle(model.complex)[1]:
            return "model has boundary; it must be closed"
    except NoFundamentalCycle as err:
        return str(err)
    return None


def _component_fault(comp, source):
    """What is wrong with a moduli component from the model `source`, or
    None: an index that does not drop, a sign other than +-1, a domain of
    the wrong dimension; from a point source, an ev_minus that is not
    constant or a domain with no fundamental cycle; from a
    positive-dimensional one, an index drop above one."""
    j, domain = comp.relative_index, comp.domain
    expected = j + source.dimension - 1
    if j <= 0:
        return "index must strictly decrease along flows"
    if comp.sign not in (1, -1):
        return f"sign {comp.sign} is not +-1"
    if domain.top_dim != expected:
        return f"domain has dimension {domain.top_dim}, expected {expected}"
    if not source.is_points:
        return None if j == 1 else ("positive-dimensional sources are "
                                    "supported only for index drop one")
    if len(set(comp.ev_minus.vertex_image)) != 1:
        return "ev_minus of a point source must be constant"
    try:
        fundamental_cycle(domain)
    except NoFundamentalCycle as err:
        return f"domain: {err}"
    return None


def _shared_map(maps, source, target, image):
    """The SimplicialMap of `image` from `source` to `target`, one object
    per distinct (source, target, image).  `maps` is keyed by the ids of
    the two complexes, which the reader's `built` keeps alive (a complex
    is not hashable)."""
    key = id(source), id(target), tuple(image)
    if key not in maps:
        maps[key] = SimplicialMap(source, target, image)
    return maps[key]


def presentation_from_doc(doc, where="presentation"):
    """The FlowPresentation of a flow document, refused by the JSON path of
    its first fault.  Types, listings and the maps' images are checked
    entry by entry as they are read, then the column cap, then each
    model (`_model_fault`) and each component (`_component_fault`) in
    listing order.  So a presentation read here is one the builder takes
    as it is; only the covering check of a positive-dimensional source is
    left to the build."""
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
        models.setdefault(index, model)  # a second one is refused below
    moduli = []
    maps = {}
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
            ev_minus = _shared_map(maps, domain, models[src].model_complex(),
                                   images["ev_minus"])
            ev_plus = _shared_map(maps, domain, models[tgt].model_complex(),
                                  images["ev_plus"])
        except ValueError as err:
            raise SchemaError(f"{spot}: {err}") from err
        moduli.append(ModuliComponentModel(
            from_index=src, to_index=tgt, domain=domain,
            ev_minus=ev_minus, ev_plus=ev_plus, sign=sign))
    column_cap_from_doc(doc, where, dim)
    seen = set()
    for t, model in enumerate(crit):
        fault = _model_fault(model, dim, seen)
        if fault:
            raise SchemaError(f"{where}.critical[{t}]: {fault}")
        seen.add(model.index)
    for t, comp in enumerate(moduli):
        fault = _component_fault(comp, models[comp.from_index])
        if fault:
            raise SchemaError(f"{where}.moduli[{t}]: {fault}")
    return FlowPresentation(dim=dim, crit=tuple(crit), moduli=tuple(moduli))


def morse_from_doc(doc, where="morse data"):
    """The MorseData of a Morse document, refused by the JSON path of its
    first fault: a point is named at one index, once, and a count
    [q, p, n] joins known points q and p with index(q) = index(p) + 1."""
    from .morse import MorseData  # Morse documents only

    crit = {}
    at = {}  # point name -> its index
    for key, names in _require(doc, "critical", dict, where).items():
        try:
            index = int(key)
        except ValueError as err:
            raise SchemaError(f"{where}.critical: key '{key}' is not an "
                              "integer") from err
        if index < 0:
            raise SchemaError(f"{where}.critical: key '{key}' is negative")
        if key != str(index):  # "01" would alias "1" and replace its points
            raise SchemaError(f"{where}.critical: key '{key}' is not {index}")
        spot = f"{where}.critical['{key}']"
        crit[index] = tuple(_each(
            _typed(names, list, f"{where}.critical: key '{key}'"), str, spot))
        for name in crit[index]:
            if name in at:
                listed = (f"twice at index {index}" if at[name] == index
                          else f"at indices {at[name]} and {index}")
                raise SchemaError(f"{spot}: point {name} listed {listed}")
            at[name] = index
    counts = {}
    spot = f"{where}.counts"
    for t, item in enumerate(_optional(doc, "counts", list, where, [])):
        if not (isinstance(item, list) and len(item) == 3):
            raise SchemaError(f"{spot}[{t}]: expected [from, to, n]")
        q, p, n = item
        # exact types pass at once; any other count gets _typed's verdict
        if not (type(q) is str and type(p) is str and type(n) is int):
            for s, kind in enumerate((str, str, int)):
                _typed(item[s], kind, spot, t, s)
        if q not in at or p not in at:
            raise SchemaError(f"{spot}[{t}]: count n({q},{p}) uses unknown "
                              "points")
        if at[q] != at[p] + 1:
            raise SchemaError(f"{spot}[{t}]: count n({q},{p}) does not drop "
                              "index by one")
        counts[(q, p)] = counts.get((q, p), 0) + n
    return MorseData(crit_by_index=crit, counts=counts)


def expected_from_doc(doc, where="document"):
    """Optional expected homology: {degree: HomologyGroup}; each degree
    given once, degree and betti >= 0, torsion invariant factors."""
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
        for key, n in (("degree", degree), ("betti", betti)):
            if n < 0:
                raise SchemaError(f"{spot}: {key} {n} is negative")
        # invariant factors: each above 1 and dividing the next
        if any(d < 2 or e % d for d, e in zip(torsion, torsion[1:] + (0,))):
            raise SchemaError(f"{spot}: torsion {list(torsion)} is not a list "
                              "of invariant factors")
        out[degree] = HomologyGroup(betti, torsion)
    return out


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as err:
        raise SchemaError(f"{path}: {err}") from err
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    except RecursionError:  # json.load's C scanner stops at a set depth
        raise SchemaError(f"{path}: document nested too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    schema = doc.get("schema")
    if schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema {schema!r}")
    return doc


def presentation_from_file(path):
    """(FlowPresentation, MorseData or None, document): the one reader that
    tells a Morse document from a flow one.  A Morse document's data comes
    second; a flow document has None there.  Either kind's column cap is
    checked once its listing is read.  Raises SchemaError naming the file
    or JSON path at fault."""
    doc = load_document(path)
    kind = doc.get("kind", "flow")
    if kind == "morse":
        md = morse_from_doc(doc, where=path)
        fp = morse_to_flow(md)
        column_cap_from_doc(doc, path, fp.dim)
        return fp, md, doc
    if kind != "flow":
        raise SchemaError(f"{path}: unknown kind '{kind}'")
    return presentation_from_doc(doc, where=path), None, doc

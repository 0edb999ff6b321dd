"""Finite flow presentations and the multicomplex builder.

A presentation lists critical-submanifold models (isolated points or
triangulated closed oriented pseudomanifolds) and moduli components with
their two evaluation maps and an orientation sign.  The builder turns this
into the bigraded complex:

  * d[0] is the row boundary with the checkerboard sign (-1)^(p+i);
  * a component with a point source contributes its (relative) fundamental
    cycle, pushed along ev_plus, to d[j] on the column p = 0 -- and nothing
    in higher columns, where product chains are degenerate in the canonical
    model;
  * a component whose source is positive-dimensional must have ev_minus a
    simplicial covering of the source model (relative index one); d[1] is
    then pullback along ev_minus followed by pushforward along ev_plus,
    P+ P-^T, in every column.

Both read only the index and sign lists of each SimplicialMap and the
+/-1 list of each fundamental cycle: a domain simplex adds the product of
its signs at (its image under ev_plus, its image under ev_minus), and no
chain is formed.  Chains landing on a
point-kind row keep their column: a constant chain of degree p is the
degree-p generator of that point's row, not zero.
"""

from itertools import repeat
from operator import mul

from .exactalg import IntMatrix
from .multicomplex import (
    InvalidMulticomplex,
    MBSMulticomplex,
    validate_multicomplex,
)
from .simplicial import (
    CoveringError,
    SimplicialComplexData,
    SimplicialMap,
    boundary_matrix,
    check_covering,
    fundamental_cycle,
)


class CritModel:
    """Critical set of one index: named points, or a triangulated model.

    The constructor settles what each moduli component reads: `is_points`,
    `dimension` (0 for named points, the model's top dimension otherwise)
    and the model complex: for named points `vertices`, one vertex per
    name, which callers may share, or else one built here, so
    `model_complex()` is the same object every call.
    """

    def __init__(self, index, names=None, complex=None, vertices=None):
        self.index = index
        self.names = names
        self.complex = complex
        self.is_points = names is not None
        self.dimension = 0 if complex is None else complex.top_dim
        self._model = complex
        if self.is_points:
            n = len(names)
            self._model = vertices if vertices is not None else \
                SimplicialComplexData(n, [(v,) for v in range(n)])

    def model_complex(self):
        """The model as a complex; named points are its vertices."""
        return self._model


class ModuliComponentModel:
    """One connected component of a compactified space of flow lines.

    The domain dimension must be (index drop) + (source dimension) - 1.
    ev_minus records where a flow line begins on the source model, ev_plus
    where it ends on the target model; sign is the component's orientation
    relative to the models' fundamental cycles.  multiplicity counts
    identical copies of the component, so a flow-line count n is one
    component of multiplicity |n|; the flow schema does not read it.
    """

    def __init__(self, from_index, to_index, domain, ev_minus, ev_plus,
                 sign=1, multiplicity=1):
        self.from_index = from_index
        self.to_index = to_index
        self.domain = domain
        self.ev_minus = ev_minus
        self.ev_plus = ev_plus
        self.sign = sign
        self.multiplicity = multiplicity
        self.relative_index = from_index - to_index


class FlowPresentation:
    """Ambient dimension, critical models (at most one per index, of
    dimension at most dim - index; absent indices are empty), and moduli
    components.

    The constructor indexes the models by critical index once, so
    `crit_at` is a dict read.

    >>> fp = FlowPresentation(2, (CritModel(2, names=("n", "s")),))
    >>> fp.crit_at(2).names, fp.crit_at(0)
    (('n', 's'), None)
    """

    def __init__(self, dim, crit, moduli=()):
        self.dim = dim
        self.crit = tuple(crit)
        self.moduli = tuple(moduli)
        self._by_index = {m.index: m for m in self.crit}

    def crit_at(self, i):
        return self._by_index.get(i)


def build_multicomplex(fp, check=True):
    """Assemble the bigraded complex of a flow presentation.

    `fp` is one that schema.presentation_from_doc has read, or
    morse_to_flow has made: every check of a presentation is the reader's,
    made once, and the build checks none of them again.  Raises
    CoveringError when ev_minus of a positive-dimensional source fails the
    covering check, and, with `check`, InvalidMulticomplex when the
    assembled maps fail anticommutation.

    Each simplicial row runs over its own degrees.  Point row i holds one
    generator per point in each column 0 .. c, d[0] = (-1)^i I at every even
    positive column and zero at odd ones, through c = c_i:
    the highest column a moduli component lands on in row i (its domain's
    dimension: j - 1 for a point source of index drop j, the source model's
    for a simplicial one; 0 when none lands), rounded up to even.  Running
    the row on to a column cap would add pairs (e_{2m-1}, e_{2m}) that no
    other entry of D touches, since no component lands past c_i and point
    sources leave only column 0: an acyclic direct summand with D o D = 0.
    So no cap is read: the validation report and the homology in every
    degree are the same without them.  Generator t of point row i is the
    point fp.crit_at(i).names[t].  On a Morse document every domain is a
    point, so every point row stops at column 0 and the build is the
    critical-point complex itself (morse.is_critical_point_complex checks
    it against the counts); the embedding on longer rows is the test
    reference in tests/support.py.  Each moduli block is sized from the
    row ranks at its two ends and filled in one pass over the domain
    simplices of each column, with no model looked up; a covering is
    checked by counts (simplicial.check_covering), and a domain object is
    oriented once, however many components share it.
    The multicomplex is marked as built: identities j <= 1 hold on its
    maps by construction (multicomplex module docstring), so
    validate_multicomplex checks only j >= 2, the degeneracy condition.
    """
    reach = {}
    for comp in fp.moduli:
        if comp.domain.top_dim > reach.get(comp.to_index, 0):
            reach[comp.to_index] = comp.domain.top_dim
    row_ranks = {}
    maps = {}
    for model in fp.crit:
        i = model.index
        if model.is_points:
            n, end = len(model.names), reach.get(i, 0)
            for p in range(end + end % 2 + 1):
                row_ranks[(p, i)] = n
                if p and p % 2 == 0:
                    maps[(0, p, i)] = IntMatrix.identity(n).scaled((-1) ** i)
            continue
        k = model.complex
        for p, level in k.simplices_by_dim.items():
            row_ranks[(p, i)] = len(level)
        for p in range(1, k.top_dim + 1):
            maps[(0, p, i)] = boundary_matrix(k, p, (-1) ** (p + i))

    # sparse columns of each d[j] out of (p, i), scaled by sign and
    # multiplicity; a point row keeps a degenerate image as its point's
    # generator, so it takes no ev_plus sign
    pending = {}

    def new_block(key):  # called once per block, not per component
        pending[key] = block = [{} for _ in range(row_ranks.get(key[1:], 0))]
        return block

    points = {model.index for model in fp.crit if model.is_points}
    for comp in fp.moduli:
        src, tgt, minus, plus = (comp.from_index, comp.to_index,
                                 comp.ev_minus, comp.ev_plus)
        weight = comp.sign * comp.multiplicity
        if src in points:
            # the cycle, pushed along ev_plus, into the column at 0 of the
            # one point that ev_minus takes every domain vertex to
            cycle = fundamental_cycle(comp.domain)[0]
            degree, key = comp.domain.top_dim, (comp.relative_index, 0, src)
            block = pending[key] if key in pending else new_block(key)
            col = block[minus.vertex_image[0]]
            if tgt not in points:
                cycle = map(mul, cycle, plus.image_sign[degree])
            for r, x in zip(plus.image_index[degree], cycle):
                if x:
                    col[r] = col.get(r, 0) + weight * x
            continue
        try:
            check_covering(minus)
        except CoveringError as err:
            raise CoveringError(
                f"component {src}->{tgt}: ev_minus is not a covering of "
                f"the source model: {err}", witness=err.witness) from err
        # P+ P-^T: each domain simplex lands in the column of its image
        # under ev_minus, with that orientation sign
        for p in range(minus.target.top_dim + 1):
            key = (1, p, src)
            block = pending[key] if key in pending else new_block(key)
            pulled = minus.image_sign[p]
            if tgt not in points:
                pulled = map(mul, pulled, plus.image_sign[p])
            for c, r, x in zip(minus.image_index[p], plus.image_index[p],
                               pulled):
                if x:
                    col = block[c]
                    col[r] = col.get(r, 0) + weight * x

    for (j, p, i), columns in pending.items():
        mat = IntMatrix.from_columns(row_ranks.get((p + j - 1, i - j), 0),
                                     len(columns), columns)
        if not mat.is_zero():
            maps[(j, p, i)] = mat

    mc = MBSMulticomplex(ambient_dim=fp.dim, row_ranks=row_ranks, maps=maps)
    # identities j <= 1 hold on these maps (multicomplex module docstring)
    mc._identities_below_2_hold = True
    if check:
        report = validate_multicomplex(mc)
        if not report.ok:
            raise InvalidMulticomplex(report)
    return mc


def morse_to_flow(md):
    """Flow presentation of Morse-Smale data: all critical models are
    points, and each nonzero flow-line count n(q, p), in the order of
    md.counts, becomes one point component with the sign of n and
    multiplicity |n|.  Models of n points share one n-vertex complex, and
    components one map onto each vertex, made for this presentation."""
    point = SimplicialComplexData(1, [(0,)])
    shared = {}  # point count -> (vertex complex, map onto each vertex)
    at_point = {}  # point name -> (index, map onto its vertex)
    crit = []
    for k in sorted(md.crit_by_index):
        names = md.crit_by_index[k]
        n = len(names)
        if n not in shared:
            vertices = SimplicialComplexData(n, [(v,) for v in range(n)])
            shared[n] = vertices, [SimplicialMap(point, vertices, [t])
                                   for t in range(n)]
        vertices, onto = shared[n]
        crit.append(CritModel(index=k, names=names, vertices=vertices))
        at_point.update(zip(names, zip(repeat(k), onto)))
    moduli = []
    for (q, p), n in md.counts.items():
        if n == 0:
            continue
        (src_index, ev_minus), (tgt_index, ev_plus) = at_point[q], at_point[p]
        moduli.append(ModuliComponentModel(
            from_index=src_index,
            to_index=tgt_index,
            domain=point,
            ev_minus=ev_minus,
            ev_plus=ev_plus,
            sign=1 if n > 0 else -1,
            multiplicity=abs(n),
        ))
    dim = max(md.crit_by_index) if md.crit_by_index else 0
    return FlowPresentation(dim=dim, crit=tuple(crit), moduli=tuple(moduli))

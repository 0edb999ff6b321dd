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
    NoFundamentalCycle,
    SimplicialComplexData,
    SimplicialMap,
    boundary_matrix,
    check_covering,
    fundamental_cycle,
)


class FlowDataError(ValueError):
    """Malformed flow presentation."""


class CritModel:
    """Critical set of one index: named points, or a triangulated model.

    The constructor settles what each moduli component reads: `is_points`,
    `dimension` (0 for named points, the model's top dimension otherwise)
    and the model complex, which for named points is built here, one
    vertex per name, so `model_complex()` is the same object every call.
    """

    def __init__(self, index, names=None, complex=None):
        self.index = index
        self.names = names
        self.complex = complex
        self.is_points = names is not None
        self.dimension = 0 if complex is None else complex.top_dim
        self._model = complex
        if self.is_points:
            n = len(names)
            self._model = SimplicialComplexData(n, [(v,) for v in range(n)])

    def model_complex(self):
        """The model as a complex; named points are its vertices."""
        return self._model

    def validate(self):
        report = []
        if (self.names is None) == (self.complex is None):
            report.append(f"index {self.index}: give exactly one of names "
                          "and a complex")
            return report
        if self.is_points:
            if len(set(self.names)) != len(self.names):
                report.append(f"index {self.index}: duplicate point names")
        else:
            try:
                if fundamental_cycle(self.complex)[1]:
                    report.append(f"index {self.index}: model has "
                                  "boundary; it must be closed")
            except ValueError as err:
                report.append(f"index {self.index}: {err}")
        return report


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

    def validate(self, source, target):
        report = []
        j, domain = self.relative_index, self.domain
        if j <= 0:
            report.append(f"component {self.from_index}->{self.to_index}: "
                          "index must strictly decrease along flows")
        if self.sign not in (1, -1):
            report.append(f"component {self.from_index}->{self.to_index}: "
                          f"sign {self.sign} is not +-1")
        if self.multiplicity < 1:
            report.append(f"component {self.from_index}->{self.to_index}: "
                          f"multiplicity {self.multiplicity} is not positive")
        expected_dim = j + source.dimension - 1
        if domain.top_dim != expected_dim:
            report.append(
                f"component {self.from_index}->{self.to_index}: domain has "
                f"dimension {domain.top_dim}, expected {expected_dim}")
        if self.ev_minus.source != domain or \
                self.ev_minus.target != source.model_complex():
            report.append(f"component {self.from_index}->{self.to_index}: "
                          "ev_minus endpoints do not match")
        if self.ev_plus.source != domain or \
                self.ev_plus.target != target.model_complex():
            report.append(f"component {self.from_index}->{self.to_index}: "
                          "ev_plus endpoints do not match")
        return report


class FlowPresentation:
    """Ambient dimension, critical models (at most one per index, of
    dimension at most dim - index; absent indices are empty), and moduli
    components.

    The constructor indexes the models by critical index once, the first
    model of an index winning (`validate` reports any second one), so
    `crit_at`, which finds each component's two models, is a dict read.
    """

    def __init__(self, dim, crit, moduli=()):
        self.dim = dim
        self.crit = tuple(crit)
        self.moduli = tuple(moduli)
        self._by_index = {m.index: m for m in reversed(self.crit)}

    def crit_at(self, i):
        return self._by_index.get(i)

    def validate(self):
        """Problems with the presentation, one line each.

        >>> twice = (CritModel(0, names=("a",)), CritModel(0, names=("b",)))
        >>> FlowPresentation(1, twice).validate()
        ['two models for index 0']
        """
        report = []
        seen = set()
        for model in self.crit:
            if model.index in seen:
                report.append(f"two models for index {model.index}")
            seen.add(model.index)
            if not (0 <= model.index <= self.dim):
                report.append(f"index {model.index} outside 0..{self.dim}")
            elif model.index + model.dimension > self.dim:
                report.append(f"index {model.index}: model of dimension "
                              f"{model.dimension} exceeds dim - index = "
                              f"{self.dim - model.index}")
            report.extend(model.validate())
        for comp in self.moduli:
            source = self.crit_at(comp.from_index)
            target = self.crit_at(comp.to_index)
            if source is None or target is None:
                report.append(
                    f"component {comp.from_index}->{comp.to_index} touches "
                    "an empty critical set")
                continue
            report.extend(comp.validate(source, target))
        return report


def build_multicomplex(fp, check=True):
    """Assemble the bigraded complex of a flow presentation.

    Raises FlowDataError for malformed input, CoveringError when ev_minus of
    a positive-dimensional source fails the covering check, and, with
    `check`, InvalidMulticomplex when the assembled maps fail
    anticommutation.

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
    critical-point complex itself (morse.is_critical_point_complex); the
    embedding on longer rows is the test reference in tests/support.py.
    Each moduli block is sized from the row ranks at its two ends and
    filled in one pass over the domain simplices of each column; a
    covering is checked by counts (simplicial.check_covering), and a
    domain object is oriented once, however many components share it.
    The multicomplex is marked as built: identities j <= 1 hold on its
    maps by construction (multicomplex module docstring), so
    validate_multicomplex checks only j >= 2, the degeneracy condition.
    """
    problems = fp.validate()
    if problems:
        raise FlowDataError("; ".join(problems))

    reach = {}
    for comp in fp.moduli:
        i = comp.to_index
        reach[i] = max(reach.get(i, 0), comp.domain.top_dim)
    row_ranks = {}
    maps = {}
    for model in fp.crit:
        i = model.index
        if model.is_points:
            n, end = len(model.names), reach.get(i, 0)
            eye = IntMatrix.identity(n).scaled((-1) ** i)
            for p in range(end + end % 2 + 1):
                row_ranks[(p, i)] = n
                if p and p % 2 == 0:
                    maps[(0, p, i)] = eye
            continue
        k = model.complex
        for p, level in k.simplices_by_dim.items():
            row_ranks[(p, i)] = len(level)
        for p in range(1, k.top_dim + 1):
            maps[(0, p, i)] = boundary_matrix(k, p, (-1) ** (p + i))

    # accumulate moduli contributions into sparse columns, each scaled by
    # the component's sign and multiplicity
    pending = {}

    def add_contribution(comp, p, degree, columns, pulled):
        # domain simplex u of this degree adds pulled[u] times its sign
        # under ev_plus at (its image, columns[u]); a point row keeps a
        # degenerate image as its point's generator, so it takes no sign
        key = (comp.relative_index, p, comp.from_index)
        if key not in pending:
            n_rows = row_ranks.get((degree, comp.to_index), 0)
            n_cols = row_ranks.get((p, comp.from_index), 0)
            pending[key] = (n_rows, [{} for _ in range(n_cols)])
        block = pending[key][1]
        weight = comp.sign * comp.multiplicity
        if not fp.crit_at(comp.to_index).is_points:
            pulled = map(mul, pulled, comp.ev_plus.image_sign[degree])
        for c, r, x in zip(columns, comp.ev_plus.image_index[degree], pulled):
            if x:
                col = block[c]
                col[r] = col.get(r, 0) + weight * x

    for comp in fp.moduli:
        source = fp.crit_at(comp.from_index)
        if source.is_points:
            # one image per domain vertex: SimplicialMap checks the length
            hit = set(comp.ev_minus.vertex_image)
            if len(hit) != 1:
                raise FlowDataError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    "ev_minus of a point source must be constant")
            try:
                cycle = fundamental_cycle(comp.domain)[0]
            except NoFundamentalCycle as err:
                raise FlowDataError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    f"domain: {err}") from err
            add_contribution(comp, 0, comp.domain.top_dim, repeat(hit.pop()),
                             cycle)
        else:
            if comp.relative_index != 1:
                raise FlowDataError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    "positive-dimensional sources are supported only for "
                    "index drop one")
            try:
                check_covering(comp.ev_minus)
            except CoveringError as err:
                raise CoveringError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    f"ev_minus is not a covering of the source model: {err}",
                    witness=err.witness) from err
            # P+ P-^T: each domain simplex lands in the column of its image
            # under ev_minus, with that orientation sign
            for p in range(source.complex.top_dim + 1):
                add_contribution(comp, p, p, comp.ev_minus.image_index[p],
                                 comp.ev_minus.image_sign[p])

    for key, (n_rows, columns) in pending.items():
        mat = IntMatrix.from_columns(n_rows, len(columns), columns)
        if not mat.is_zero():
            maps[key] = mat

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
    points, and each nonzero flow-line count n(q, p) becomes one point
    component with the sign of n and multiplicity |n|."""
    crit = []
    for k in sorted(md.crit_by_index):
        names = tuple(md.crit_by_index[k])
        if names:
            crit.append(CritModel(index=k, names=names))
    point = SimplicialComplexData(1, [(0,)])
    # point name -> (index, map onto its vertex), one map per critical
    # point, shared by all of the point's components
    at_point = {}
    for model in crit:
        for t, name in enumerate(model.names):
            at_point[name] = (model.index, SimplicialMap(
                point, model.model_complex(), vertex_image=[t]))
    moduli = []
    for (q, p), n in sorted(md.counts.items()):
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

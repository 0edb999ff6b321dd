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
    then pullback along ev_minus followed by pushforward along ev_plus in
    every column.

Chains landing on a point-kind row keep their column: a constant chain of
degree p is the degree-p generator of that point's row, not zero.
"""

from functools import cached_property

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
    chain_complex_of,
    chain_to_column,
    covering_lifts,
    fundamental_cycle,
    pushforward,
)


class FlowDataError(ValueError):
    """Malformed flow presentation."""


class CritModel:
    """Critical set of one index: named points, or a triangulated model."""

    def __init__(self, index, names=None, complex=None):
        self.index = index
        self.names = names
        self.complex = complex

    @property
    def is_points(self):
        return self.names is not None

    @property
    def dimension(self):
        """0 for named points, the model's top dimension otherwise."""
        return 0 if self.complex is None else self.complex.top_dim

    def model_complex(self):
        """The model as a complex; named points are its vertices."""
        return self._points if self.is_points else self.complex

    @cached_property
    def _points(self):
        n = len(self.names)
        return SimplicialComplexData(n, [(v,) for v in range(n)])

    def validate(self):
        report = []
        if (self.names is None) == (self.complex is None):
            report.append(f"index {self.index}: give names or a complex, "
                          "not both")
            return report
        if self.is_points:
            if len(set(self.names)) != len(self.names):
                report.append(f"index {self.index}: duplicate point names")
        else:
            try:
                if not fundamental_cycle(self.complex).is_closed():
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

    @property
    def relative_index(self):
        return self.from_index - self.to_index

    def validate(self, source, target):
        report = []
        j = self.relative_index
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
        if self.domain.top_dim != expected_dim:
            report.append(
                f"component {self.from_index}->{self.to_index}: domain has "
                f"dimension {self.domain.top_dim}, expected {expected_dim}")
        if self.ev_minus.source != self.domain or \
                self.ev_minus.target != source.model_complex():
            report.append(f"component {self.from_index}->{self.to_index}: "
                          "ev_minus endpoints do not match")
        if self.ev_plus.source != self.domain or \
                self.ev_plus.target != target.model_complex():
            report.append(f"component {self.from_index}->{self.to_index}: "
                          "ev_plus endpoints do not match")
        return report


class FlowPresentation:
    """Ambient dimension, critical models (at most one per index, of
    dimension at most dim - index; absent indices are empty), and moduli
    components."""

    def __init__(self, dim, crit, moduli=(), column_cap=None):
        self.dim = dim
        self.crit = tuple(crit)
        self.moduli = tuple(moduli)
        self.column_cap = column_cap

    def crit_at(self, i):
        for model in self.crit:
            if model.index == i:
                return model
        return None

    def cap(self):
        if self.column_cap is not None:
            return self.column_cap
        return default_column_cap(self.dim)

    def validate(self):
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
        cap = self.cap()
        if cap % 2 or cap < self.dim + 2:
            report.append(f"column cap {cap} must be even and at least "
                          f"{self.dim + 2}")
        return report


def default_column_cap(ambient_dim):
    """Smallest even integer >= ambient_dim + 2.

    Degrees <= ambient_dim only involve columns p <= ambient_dim + 1, and an
    even cap cuts each point row just after an isomorphism differential, so
    no spurious homology appears in the visible range.

    >>> default_column_cap(2), default_column_cap(3)
    (4, 6)
    """
    cap = ambient_dim + 2
    return cap if cap % 2 == 0 else cap + 1


def _target_column(target, ev_plus, chain, degree):
    """Sparse column {row: coefficient} of a chain pushed into a row at the
    given column; entries may be zero.

    Point-kind targets absorb chains of every degree: each simplex lies over
    a single point and contributes its coefficient to that point's
    degree-p generator.  Simplicial targets take the honest pushforward.
    """
    if target.is_points:
        col = {}
        for simplex, coeff in chain.items():
            row = ev_plus.vertex_image[simplex[0]]
            col[row] = col.get(row, 0) + coeff
        return col
    pushed = pushforward(ev_plus, chain)
    return chain_to_column(target.complex, degree, pushed)


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
    the row on to `column_cap` would add pairs (e_{2m-1}, e_{2m}) that no
    other entry of D touches, since no component lands past c_i and point
    sources leave only column 0: an acyclic direct summand with D o D = 0.
    So the validation report, the homology in every degree and the Morse
    verdict (morse.verify_morse_mb) are the same without them.  Each moduli
    block is sized from the row ranks at its two ends.
    """
    problems = fp.validate()
    if problems:
        raise FlowDataError("; ".join(problems))

    reach = {}
    for comp in fp.moduli:
        i = comp.to_index
        reach[i] = max(reach.get(i, 0), comp.domain.top_dim)
    row_ranks = {}
    row_labels = {}
    maps = {}
    for model in fp.crit:
        i = model.index
        if model.is_points:
            names, end = tuple(model.names), reach.get(i, 0)
            eye = IntMatrix.identity(len(names)).scaled((-1) ** i)
            for p in range(end + end % 2 + 1):
                row_ranks[(p, i)] = len(names)
                row_labels[(p, i)] = names
                if p and p % 2 == 0:
                    maps[(0, p, i)] = eye
            continue
        row = chain_complex_of(model.complex)
        for p, r in row.ranks.items():
            if r:
                row_ranks[(p, i)] = r
        for p, d in row.boundaries.items():
            if not d.is_zero():
                sign = -1 if (p + i) % 2 else 1
                maps[(0, p, i)] = d.scaled(sign)

    # accumulate moduli contributions into sparse columns, each scaled by
    # the component's sign and multiplicity
    pending = {}

    def add_contribution(comp, p, col, entries, degree):
        key = (comp.relative_index, p, comp.from_index)
        if key not in pending:
            n_rows = row_ranks.get((degree, comp.to_index), 0)
            n_cols = row_ranks.get((p, comp.from_index), 0)
            pending[key] = (n_rows, [{} for _ in range(n_cols)])
        weight = comp.sign * comp.multiplicity
        out = pending[key][1][col]
        for r, x in entries.items():
            out[r] = out.get(r, 0) + weight * x

    for comp in fp.moduli:
        j = comp.relative_index
        source = fp.crit_at(comp.from_index)
        target = fp.crit_at(comp.to_index)
        if source.is_points:
            hit = {comp.ev_minus.vertex_image[v]
                   for v in range(comp.domain.vertex_count)}
            if len(hit) != 1:
                raise FlowDataError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    "ev_minus of a point source must be constant")
            cyc = fundamental_cycle(comp.domain)
            degree = comp.domain.top_dim
            add_contribution(comp, 0, hit.pop(),
                             _target_column(target, comp.ev_plus,
                                            cyc.as_chain(), degree), degree)
        else:
            if j != 1:
                raise FlowDataError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    "positive-dimensional sources are supported only for "
                    "index drop one")
            try:
                lifts = covering_lifts(comp.ev_minus)
            except CoveringError as err:
                raise CoveringError(
                    f"component {comp.from_index}->{comp.to_index}: "
                    f"ev_minus is not a covering of the source model: {err}",
                    witness=err.witness) from err
            src_complex = source.complex
            for p in range(0, src_complex.top_dim + 1):
                for col, simplex in enumerate(src_complex.simplices_of_dim(p)):
                    pulled = dict(lifts.get(simplex, ()))
                    add_contribution(comp, p, col,
                                     _target_column(target, comp.ev_plus,
                                                    pulled, p), p)

    for key, (n_rows, columns) in pending.items():
        mat = IntMatrix.from_columns(n_rows, len(columns), columns)
        if not mat.is_zero():
            maps[key] = mat

    mc = MBSMulticomplex(
        ambient_dim=fp.dim,
        column_cap=fp.cap(),
        row_ranks=row_ranks,
        row_labels=row_labels,
        maps=maps,
    )
    if check:
        report = validate_multicomplex(mc)
        if not report.ok:
            raise InvalidMulticomplex(report)
    return mc


def morse_to_flow(md, cap=None):
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
    return FlowPresentation(dim=dim, crit=tuple(crit), moduli=tuple(moduli),
                            column_cap=cap)

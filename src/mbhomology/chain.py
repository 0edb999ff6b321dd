"""Chain complexes of finitely generated free Z-modules.

A complex stores its ranks and boundary matrices by degree; degrees outside
the stored range have rank zero.  Homology is computed exactly: a group from
the ranks and invariant factors of the two adjacent boundaries, and
generators, where a map needs them, from kernel and image lattices via Smith
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactalg import IntMatrix, invariant_factors, kernel_basis, snf


@dataclass
class ChainComplex:
    """Graded free Z-module with boundary maps d_k : C_k -> C_{k-1}."""

    ranks: dict
    boundaries: dict
    labels: dict = field(default_factory=dict)

    def rank(self, k):
        return self.ranks.get(k, 0)

    def boundary(self, k):
        if k in self.boundaries:
            return self.boundaries[k]
        return IntMatrix.zeros(self.rank(k - 1), self.rank(k))

    def label(self, k):
        if k in self.labels:
            return self.labels[k]
        return tuple(f"e{k}.{i}" for i in range(self.rank(k)))

    @property
    def degree_range(self):
        degs = [k for k, r in self.ranks.items() if r > 0]
        if not degs:
            return (0, -1)
        return (min(degs), max(degs))

    def degrees(self):
        lo, hi = self.degree_range
        return range(lo, hi + 1)


def validate_complex(c):
    """Report every degree where shapes mismatch or d o d != 0.

    Returns a list of messages; empty means the complex is valid.
    """
    report = []
    for k, r in c.ranks.items():
        if r < 0:
            report.append(f"degree {k}: negative rank {r}")
    for k in sorted(c.boundaries):
        d = c.boundaries[k]
        want = (c.rank(k - 1), c.rank(k))
        if d.shape != want:
            report.append(f"degree {k}: boundary shape {d.shape}, expected {want}")
    if report:
        return report
    lo, hi = c.degree_range
    for k in range(lo + 1, hi + 1):
        prod = c.boundary(k - 1) @ c.boundary(k)
        if not prod.is_zero():
            report.append(f"degree {k}: d o d != 0")
    return report


@dataclass(frozen=True)
class HomologyGroup:
    """H = Z^betti (+) Z/d_1 (+) ... with d_i > 1 in divisibility order."""

    betti: int
    torsion: tuple

    def iso(self, other):
        return self.betti == other.betti and self.torsion == other.torsion

    def is_trivial(self):
        return self.betti == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


@dataclass
class HomologyPresentation:
    """Internal data tying homology classes to the chain basis.

    kernel holds a saturated basis K of ker(d_k); u is the row transform of
    the Smith form of the image of d_{k+1} written in K-coordinates.  The
    quotient generators are K times the u^-1 columns listed in gen_indices,
    with orders[i] = 0 for free generators and the invariant factor
    otherwise.
    """

    kernel: IntMatrix
    kernel_dec: object
    u: IntMatrix
    u_inv: IntMatrix
    orders: tuple
    gen_indices: tuple

    def class_of(self, vector):
        """Coordinates of a cycle's homology class in the chosen generators.

        Free coordinates are integers; torsion coordinates are reduced to
        [0, d).  Raises ValueError if the vector is not a cycle.
        """
        y = self.kernel_dec.solve(vector)
        if y is None:
            raise ValueError("vector is not a cycle")
        yy = self.u.times_vector(y)
        coords = []
        for i in self.gen_indices:
            d = self.orders[i]
            coords.append(yy[i] % d if d else yy[i])
        return tuple(coords)

    def generator_vectors(self):
        """Generators as cycles in the degree-k chain basis."""
        return tuple(self.kernel.times_vector(self.u_inv.col(i))
                     for i in self.gen_indices)


def homology_presentation(c, k):
    kern = kernel_basis(c.boundary(k))
    kern_dec = snf(kern)
    b = c.boundary(k + 1)
    y_cols = []
    for j in range(b.cols):
        y = kern_dec.solve(b.col(j))
        if y is None:
            raise ValueError(
                f"boundary image at degree {k + 1} escapes the kernel at "
                f"degree {k}; complex is invalid")
        y_cols.append(dict(enumerate(y)))
    z = kern.cols
    dec = snf(IntMatrix.from_columns(z, b.cols, y_cols))
    d = dec.invariant_factors
    orders = tuple(d[i] if i < len(d) else 0 for i in range(z))
    gen_indices = tuple(i for i in range(z) if orders[i] != 1)
    return HomologyPresentation(
        kernel=kern,
        kernel_dec=kern_dec,
        u=dec.u,
        u_inv=dec.u_inv,
        orders=orders,
        gen_indices=gen_indices,
    )


def homology_at(c, k):
    """Homology of a complex at degree k.

    betti = rank C_k - rank d_k - rank d_{k+1}; the torsion is the invariant
    factors above 1 of d_{k+1}, since C_k / ker d_k is free.  Raises
    ValueError when d_k o d_{k+1} != 0.  Generators come from
    homology_presentation.
    """
    lower, upper = c.boundary(k), c.boundary(k + 1)
    if not (lower @ upper).is_zero():
        raise ValueError(f"boundary image at degree {k + 1} escapes the "
                         f"kernel at degree {k}; complex is invalid")
    lower_rank = len(invariant_factors(lower))
    factors = invariant_factors(upper)
    return HomologyGroup(betti=c.rank(k) - lower_rank - len(factors),
                         torsion=tuple(d for d in factors if d > 1))


@dataclass
class ChainMap:
    """Degree-zero map of chain complexes, one matrix per degree."""

    source: ChainComplex
    target: ChainComplex
    components: dict
    degree_shift: int = 0

    def component(self, k):
        if k in self.components:
            return self.components[k]
        return IntMatrix.zeros(self.target.rank(k + self.degree_shift),
                               self.source.rank(k))


def validate_chain_map(f):
    report = []
    if f.degree_shift != 0:
        report.append(f"degree shift {f.degree_shift} is not a chain map")
        return report
    for k in sorted(f.components):
        comp = f.components[k]
        want = (f.target.rank(k), f.source.rank(k))
        if comp.shape != want:
            report.append(f"degree {k}: component shape {comp.shape}, "
                          f"expected {want}")
    if report:
        return report
    for k, residual in chain_map_residuals(f).items():
        if not residual.is_zero():
            report.append(f"degree {k}: does not commute with boundaries")
    return report


def chain_map_residuals(f):
    """{k: d_k f_k - f_{k-1} d_k} over every degree where either complex is
    nonzero, and the degree above each; all zero iff f is a chain map."""
    degs = set(f.source.degrees()) | set(f.target.degrees())
    return {k: f.target.boundary(k) @ f.component(k)
            - f.component(k - 1) @ f.source.boundary(k)
            for k in sorted(degs | {d + 1 for d in degs})}


def induced_map_on_homology(f, k):
    """Matrix of H_k(f) in the generator bases of homology_presentation."""
    problems = validate_chain_map(f)
    if problems:
        raise ValueError("not a chain map: " + "; ".join(problems))
    src = homology_presentation(f.source, k)
    tgt = homology_presentation(f.target, k)
    cols = [dict(enumerate(tgt.class_of(f.component(k).times_vector(gen))))
            for gen in src.generator_vectors()]
    return IntMatrix.from_columns(len(tgt.gen_indices), len(cols), cols)


def mapping_cone(f):
    """Cone(f)_k = source_{k-1} (+) target_k with the sign-twisted boundary."""
    problems = validate_chain_map(f)
    if problems:
        raise ValueError("not a chain map: " + "; ".join(problems))
    src, tgt = f.source, f.target
    degs = set()
    for k in src.degrees():
        degs.add(k + 1)
    degs.update(tgt.degrees())
    ranks = {}
    boundaries = {}
    labels = {}
    if not degs:
        return ChainComplex(ranks={}, boundaries={})
    lo, hi = min(degs), max(degs)
    for k in range(lo, hi + 1):
        ranks[k] = src.rank(k - 1) + tgt.rank(k)
        labels[k] = tuple(f"s:{l}" for l in src.label(k - 1)) + \
            tuple(f"t:{l}" for l in tgt.label(k))
    for k in range(lo, hi + 1):
        boundaries[k] = IntMatrix.from_blocks(
            [[-src.boundary(k - 1), None],
             [f.component(k - 1), tgt.boundary(k)]],
            row_sizes=[src.rank(k - 2), tgt.rank(k - 1)],
            col_sizes=[src.rank(k - 1), tgt.rank(k)],
        )
    return ChainComplex(ranks=ranks, boundaries=boundaries, labels=labels)


def quasi_iso(f):
    """True iff f induces isomorphisms on homology in every degree.

    Criterion: the mapping cone is acyclic.
    """
    cone = mapping_cone(f)
    lo, hi = cone.degree_range
    for k in range(lo, hi + 2):
        if not homology_at(cone, k).is_trivial():
            return False
    return True

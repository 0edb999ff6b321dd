"""Chain complexes of finitely generated free Z-modules.

A complex stores its ranks and boundary matrices by degree; degrees outside
the stored range have rank zero.  Homology is computed exactly, as a group
from the ranks and invariant factors of the two adjacent boundaries.  Chain
maps and mapping cones serve only the test reference of the Morse
embedding, in tests/support.py.
"""

from .exactalg import IntMatrix, _reduce


class ChainComplex:
    """Graded free Z-module with boundary maps d_k : C_k -> C_{k-1}; the
    constructor refuses a negative rank or a mis-shaped boundary."""

    def __init__(self, ranks, boundaries, labels=None):
        self.ranks = ranks
        self.boundaries = boundaries
        self.labels = {} if labels is None else labels
        for k, r in ranks.items():
            if r < 0:
                raise ValueError(f"degree {k}: negative rank {r}")
        for k, d in boundaries.items():
            want = (self.rank(k - 1), self.rank(k))
            if d.shape != want:
                raise ValueError(f"degree {k}: boundary shape {d.shape}, "
                                 f"expected {want}")

    def rank(self, k):
        return self.ranks.get(k, 0)

    def boundary(self, k):
        if k in self.boundaries:
            return self.boundaries[k]
        return IntMatrix.zeros(self.rank(k - 1), self.rank(k))

    @property
    def degree_range(self):
        degs = [k for k, r in self.ranks.items() if r > 0]
        if not degs:
            return (0, -1)
        return (min(degs), max(degs))


def validate_complex(c):
    """Report every degree where d o d != 0.

    Returns a list of messages; empty means the complex is valid.
    """
    lo, hi = c.degree_range
    return [f"degree {k}: d o d != 0" for k in range(lo + 1, hi + 1)
            if not (c.boundary(k - 1) @ c.boundary(k)).is_zero()]


class HomologyGroup:
    """H = Z^betti (+) Z/d_1 (+) ... with d_i > 1 in divisibility order.

    Immutable; equal groups compare and hash equal.
    """

    __slots__ = ("betti", "torsion")

    def __init__(self, betti, torsion):
        object.__setattr__(self, "betti", betti)
        object.__setattr__(self, "torsion", torsion)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"HomologyGroup is immutable: {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.betti == other.betti and self.torsion == other.torsion

    def __hash__(self):
        return hash((self.betti, self.torsion))

    def __repr__(self):
        return f"HomologyGroup(betti={self.betti!r}, torsion={self.torsion!r})"

    def __str__(self):
        parts = []
        if self.betti == 1:
            parts.append("Z")
        elif self.betti > 1:
            parts.append(f"Z^{self.betti}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " ⊕ ".join(parts) if parts else "0"


def homology_at(c, degrees):
    """Homology of a complex in each of `degrees`, one group per degree;
    degrees with equal groups share one object within a call.

    betti_k = rank C_k - rank d_k - rank d_{k+1}; the torsion is the
    invariant factors above 1 of d_{k+1}, since C_k / ker d_k is free.  Each
    stored boundary is reduced once, however many degrees read it; an
    absent one is zero and has no invariant factors.  `c` must be a
    chain complex: d o d is not checked here, and `validate_complex` is the
    check for a hand-built one.

    The boundaries are reduced from the highest degree down, with clearing
    (Chen and Kerber's twist): the columns of d_k at the rows of the +-1
    pivots of d_{k+1} are left out of d_k.  This changes no invariant
    factor.  The pivot column of step t of d_{k+1} is a boundary z_t with
    +-1 at its pivot row r_t and zeros at r_1 .. r_{t-1}.  As d_k z_t = 0,
    column r_t of d_k is, up to sign, a Z-combination of the columns of d_k
    at the rows where z_t is nonzero: kept columns and r_{t+1}, r_{t+2},
    ....  Going back from the last step, every cleared column lies in the
    Z-span of the kept ones, so the kept columns have the same image, and
    the image fixes the nonzero invariant factors.  Pivots of the dense
    core are not units and clear nothing.

    >>> c = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    >>> [str(h) for h in homology_at(c, range(2))]
    ['Z/2', '0']
    """
    degrees = list(degrees)
    factors = {}
    pivots = ()
    for k in sorted({*degrees, *(k + 1 for k in degrees)}, reverse=True):
        if k not in c.boundaries:  # a zero map has no invariant factors
            factors[k], pivots = (), ()
            continue
        cleared = set(pivots) if pivots and k + 1 in factors else ()
        factors[k], pivots = _reduce(c.boundaries[k], cleared)
    keys = [(c.rank(k) - len(factors[k]) - len(factors[k + 1]),
             tuple(x for x in factors[k + 1] if x > 1) if factors[k + 1]
             else ()) for k in degrees]
    groups = {key: HomologyGroup(*key) for key in set(keys)}
    return [groups[key] for key in keys]

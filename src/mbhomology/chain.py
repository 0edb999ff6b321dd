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


def homology_at(c, degrees, forests=None):
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
    the image fixes the nonzero invariant factors.  The argument holds for
    any subset of the pivot rows too.  Pivots of the dense core are not
    units and clear nothing.

    `forests` maps a degree k to the blocks of d_k already eliminated by a
    spanning forest, each a triple (tops, ridges, cycles): `tops`, a range
    of columns; `ridges`, one row per forest pair (ridge, top), each ridge
    row zero outside `tops`; and `cycles`, the columns d_k z of the
    forest's components, z the sum of a component's tops with their +-1
    (pipeline.homology_table passes them for the rows that
    flowdata.build_multicomplex marks).  Take the chain of the
    subtree below a non-root top t: its boundary has +-1 at t's ridge and
    0 at every other forest ridge, since each other forest ridge has both
    its tops in the subtree or neither.  These chains and the z form a
    unimodular change of the columns in `tops`, after which the ridge rows
    are a signed identity on the subtree chains and zero on every other
    column.  So d_k is block triangular with a unimodular block: each pair
    is a factor 1, and the rest of d_k, the columns outside `tops` and the
    `cycles`, is reduced alone, with no Schur update.  The subtree chains
    are boundaries with +-1 at their own ridge and 0 at the other forest
    ridges, so the ridges, taken before the reduction's pivots, clear
    d_{k-1} as above.  The columns in `tops` are never cleared.

    >>> c = ChainComplex({0: 1, 1: 1}, {1: IntMatrix.from_rows([[2]])})
    >>> [str(h) for h in homology_at(c, range(2))]
    ['Z/2', '0']
    """
    degrees = list(degrees)
    forests = forests or {}
    factors = {}
    pivots = ()
    for k in sorted({*degrees, *(k + 1 for k in degrees)}, reverse=True):
        if k not in c.boundaries:  # a zero map has no invariant factors
            factors[k], pivots = (), ()
            continue
        cleared = set(pivots) if pivots and k + 1 in factors else ()
        if k in forests:
            factors[k], pivots = _reduce_split(c.boundaries[k], cleared,
                                               forests[k])
        else:
            factors[k], pivots = _reduce(c.boundaries[k], cleared)
    keys = [(c.rank(k) - len(factors[k]) - len(factors[k + 1]),
             tuple(x for x in factors[k + 1] if x > 1) if factors[k + 1]
             else ()) for k in degrees]
    groups = {key: HomologyGroup(*key) for key in set(keys)}
    return [groups[key] for key in keys]


def _reduce_split(a, cleared, blocks):
    """`_reduce` of `a` with its forest `blocks` split off (`homology_at`):
    a factor 1 and a pivot row per forest pair, then the reduction of the
    columns that are outside every block and not cleared, and of the
    blocks' cycle columns."""
    columns = list(a.columns)
    ridges = []
    rest = []
    for tops, rows, cycles in blocks:
        columns[tops.start:tops.stop] = [{}] * len(tops)
        ridges += rows
        rest += cycles
    rest += [col for j, col in enumerate(columns) if col and j not in cleared]
    factors, pivots = _reduce(IntMatrix._of(a.rows, len(rest), rest)) \
        if rest else ((), [])
    return (1,) * len(ridges) + factors, ridges + pivots

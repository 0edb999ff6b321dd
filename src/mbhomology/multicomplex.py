"""The Morse-Bott-Smale bigraded complex, laid out as its total complex.

Rows are indexed by critical index i, columns by chain degree p.  The
structure maps d[j] have bidegree (j-1, -j); d[0] already carries the
checkerboard sign (-1)^(p+i), so the total boundary D is a plain block sum,
laid out once, when the multicomplex is built.  Validity, D o D = 0, is the
anticommutation identity

    sum_{q=0..j} d[q] o d[j-q] = 0        for every j, at every bidegree,

and validate_multicomplex sums each identity pair by pair over the stored
maps.  On a multicomplex from flowdata.build_multicomplex, identities j = 0
and j = 1 hold by construction, so only j >= 2, the paper's degeneracy
condition, is checked there:

  * j = 0: each d[0] block is a signed simplicial boundary, which squares
    to zero, or (-1)^i I from an even column of a point row to the odd
    column below it, where d[0] is zero.
  * j = 1, a covering onto a simplicial row: the block at column p is
    sign * P+ P-^T, a transfer along ev_minus and a pushforward along
    ev_plus, and both commute with the boundary, so with the checkerboard
    signs d[0] o d[1] = -d[1] o d[0].
  * j = 1, a covering onto a point row: the pushforward there is the
    augmentation e, and e(bdry x) is e(x) for even p and 0 for odd p.
    That cancels against the row's d[0], (-1)^i I at even columns and zero
    at odd ones.
  * j = 1, a point source: it lands only in column 0, out of which d[0]
    is zero, and its row's d[0] out of column 1 is zero too.

A hand-built multicomplex gets every identity.
"""

from types import MappingProxyType

from .chain import ChainComplex
from .exactalg import IntMatrix


class InvalidMulticomplex(ValueError):
    def __init__(self, report):
        super().__init__("\n".join(["invalid multicomplex:",
                                    *report.describe()]))
        self.report = report


class MBSMulticomplex:
    """Bigraded groups with structure maps, laid out as one total complex.

    row_ranks is keyed by bidegree (p, i), with p >= 0 and 0 <= i <=
    ambient_dim; maps by (j, p, i).  Absent bidegrees have rank zero, and
    absent maps are zero.  The constructor refuses a stored d[j] at (p, i)
    not of shape rank(p+j-1, i-j) x rank(p, i) and places it in the total
    complex `complex` (CB_k the sum over p + i = k), from block (p, i) to
    block (p+j-1, i-j).  Generator t of block (p, i) is total generator
    block_offsets[(p, i)] + t, and blocks are ordered by increasing p.
    A degree whose one nonzero map has the degree's full shape has that
    matrix itself as its boundary; no IntMatrix is ever mutated.
    maps and row_ranks are read-only copies, so the total cannot drift
    from them.  Point names are the flow presentation's, not kept here.
    """

    def __init__(self, ambient_dim, row_ranks, maps=None):
        self.ambient_dim = ambient_dim
        self.row_ranks = MappingProxyType(dict(row_ranks))
        self.maps = MappingProxyType({} if maps is None else dict(maps))
        m = ambient_dim
        ranks = {}
        offsets = {}
        for (p, i), r in sorted(self.row_ranks.items()):
            if r < 0 or p < 0 or not (0 <= i <= m):
                raise ValueError(f"bad bidegree ({p},{i}) with rank {r}")
            if r:
                offsets[(p, i)] = ranks.get(p + i, 0)
                ranks[p + i] = offsets[(p, i)] + r
        placed = {}  # total degree -> [(j, p, i, nonzero map)]
        for (j, p, i), mat in self.maps.items():
            if j < 0 or j > m:
                raise ValueError(f"map index j={j} outside 0..{m}")
            if j > i:
                raise ValueError(f"d[{j}] stored on row {i} (must vanish "
                                 "for j > i)")
            want = (self.rank(p + j - 1, i - j), self.rank(p, i))
            if mat.shape != want:
                raise ValueError(f"d[{j}] at (p={p}, i={i}) has shape "
                                 f"{mat.shape}, expected {want}")
            if not mat.is_zero():
                placed.setdefault(p + i, []).append((j, p, i, mat))
        self.block_offsets = offsets
        # set by the builder, on whose maps identities j <= 1 hold (module
        # docstring)
        self._identities_below_2_hold = False
        # set by the builder: row -> closed model whose top block the
        # orientation walk eliminates (flowdata.build_multicomplex)
        self._forests = {}
        boundaries = {}
        for k, blocks in placed.items():
            shape = (ranks.get(k - 1, 0), ranks[k])
            if len(blocks) == 1 and blocks[0][3].shape == shape:
                # one map fills the degree; an IntMatrix is never mutated
                boundaries[k] = blocks[0][3]
                continue
            columns = [{} for _ in range(ranks[k])]
            for j, p, i, mat in blocks:
                r0, c0 = offsets[(p + j - 1, i - j)], offsets[(p, i)]
                for out, col in zip(columns[c0:c0 + mat.cols], mat.columns):
                    for r, x in col.items():
                        out[r0 + r] = x
            # every entry is a nonzero entry of a map of checked shape
            boundaries[k] = IntMatrix._of(*shape, columns)
        self.complex = ChainComplex(ranks=ranks, boundaries=boundaries)

    @property
    def column_cap(self):
        # dim + 2 rounded up to even; only the benchmark's grid_yield probe
        # reads it, and it goes when ROADMAP item 1 rewrites that probe
        return self.ambient_dim + 2 + self.ambient_dim % 2

    def rank(self, p, i):
        return self.row_ranks.get((p, i), 0)


class MulticomplexReport:
    def __init__(self, identity_failures=()):
        self.identity_failures = list(identity_failures)

    @property
    def ok(self):
        return not self.identity_failures

    def describe(self):
        """One line per failure; none when the multicomplex is valid."""
        return [f"anticommutation fails for j={j} at (p={p}, i={i}); "
                f"residual {[list(r) for r in residual.data]}"
                for (j, p, i, residual) in self.identity_failures]


def validate_multicomplex(mc):
    """Check each anticommutation identity, summed pair by pair over the
    nonzero stored maps: d[q] at the target of d[a] from (p, i) adds
    d[q] o d[a] to the residual of identity a + q at (p, i).  Failures come
    by source (i, p), then j, each with its residual matrix.  The
    constructor has refused every mis-shaped map.  On a build only the pairs
    with a + q >= 2 are formed (module docstring); a hand-built
    multicomplex gets every pair.  A sign error in the covering block at
    column 2 of this hand-built one fails identity 1 alone:

    >>> one = IntMatrix.from_rows([[1]])
    >>> mc = MBSMulticomplex(
    ...     ambient_dim=1, row_ranks={(p, i): 1 for p in range(3)
    ...                               for i in range(2)},
    ...     maps={(0, 2, 0): one, (0, 2, 1): one.scaled(-1),
    ...           (1, 0, 1): one, (1, 1, 1): one, (1, 2, 1): one})
    >>> validate_multicomplex(mc).ok
    True
    >>> bad = MBSMulticomplex(mc.ambient_dim, mc.row_ranks,
    ...                       {**mc.maps, (1, 2, 1): one.scaled(-1)})
    >>> validate_multicomplex(bad).describe()
    ['anticommutation fails for j=1 at (p=2, i=1); residual [[-2]]']
    """
    start = 2 if mc._identities_below_2_hold else 0
    by_source = {}  # (p, i) -> [(j, nonzero d[j] out of (p, i))]
    for (j, p, i), mat in mc.maps.items():
        if not mat.is_zero():
            by_source.setdefault((p, i), []).append((j, mat))
    found = {}  # (i, p, j) -> residual
    for (p, i), firsts in by_source.items():
        for a, first in firsts:
            for q, second in by_source.get((p + a - 1, i - a), ()):
                if a + q >= start:
                    term = second @ first
                    key = (i, p, a + q)
                    found[key] = found[key] + term if key in found else term
    return MulticomplexReport(
        (j, p, i, residual) for (i, p, j), residual in sorted(found.items())
        if not residual.is_zero())


def totalize(mc):
    """`mc` itself: its constructor laid out `mc.complex` and
    `mc.block_offsets`.  No work is done here; the name stays only as a
    stage the benchmark imports and traces, until ROADMAP item 1.

    >>> mc = MBSMulticomplex(
    ...     ambient_dim=1, row_ranks={(0, 0): 1, (0, 1): 1, (1, 0): 1},
    ...     maps={(1, 0, 1): IntMatrix.from_rows([[2]])})
    >>> totalize(mc) is mc
    True
    >>> mc.complex.ranks, mc.block_offsets[(1, 0)]
    ({0: 1, 1: 2}, 1)
    >>> mc.complex.boundary(1).data
    ((2, 0),)
    """
    return mc

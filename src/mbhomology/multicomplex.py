"""The Morse-Bott-Smale bigraded complex, laid out as its total complex.

Rows are indexed by critical index i, columns by chain degree p.  The
structure maps d[j] have bidegree (j-1, -j); d[0] already carries the
checkerboard sign (-1)^(p+i), so the total boundary D is a plain block sum,
laid out once, when the multicomplex is built.  The anticommutation identity

    sum_{q=0..j} d[q] o d[j-q] = 0        for every j, at every bidegree,

is the block of D o D from (p, i) to (p+j-2, i-j), so validity is the one
condition D o D = 0.  On a multicomplex from flowdata.build_multicomplex,
d[0] o d[0] = 0 holds by construction: each d[0] block is a signed
simplicial boundary, or +-I from an even column of a point row to the odd
column below it, where d[0] is zero.  So only a total degree k where D_k or
D_(k-1) holds a d[j] with j >= 1 can fail, and the validator forms
D_(k-1) o D_k only there; a hand-built multicomplex gets every product.
"""

from bisect import bisect_right
from operator import itemgetter
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
        # set by the builder, whose d[0] squares to zero (module docstring)
        self._d0_squares_to_zero = False
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

    def map(self, j, p, i):
        got = self.maps.get((j, p, i))
        if got is not None:
            return got
        return IntMatrix.zeros(self.rank(p + j - 1, i - j), self.rank(p, i))


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
    """Check D o D = 0 on the total complex, one sparse product per total
    degree, and read each nonzero entry back by block: source block (p, i)
    and target block (p', i') give the residual for j = i - i' at (p, i).
    Failures come by source (i, p), then j, each with its residual matrix.
    The constructor has refused every mis-shaped map.

    On a build, a degree k where neither D_k nor D_(k-1) holds a d[j] with
    j >= 1 is skipped: its product is d[0] o d[0], zero by construction
    (module docstring).  A hand-built multicomplex gets every product.
    """
    cx = mc.complex
    blocks = {}  # total degree -> [(offset, p, i)], by increasing p
    for (p, i), off in mc.block_offsets.items():
        blocks.setdefault(p + i, []).append((off, p, i))

    def block(k, n):
        """(p, i, rank, place in the block) of generator n of degree k."""
        at = blocks[k]
        b = bisect_right(at, n, key=itemgetter(0)) - 1
        end = at[b + 1][0] if b + 1 < len(at) else cx.rank(k)
        return at[b][1], at[b][2], end - at[b][0], n - at[b][0]

    # total degrees whose boundary may hold a d[j] with j >= 1
    moduli = {p + i for j, p, i in mc.maps if j}
    found = {}  # (i, p, j) -> (rows, cols, {column: {row: entry}})
    for k in cx.boundaries:
        if k - 1 not in cx.boundaries or (mc._d0_squares_to_zero and
                                          not {k, k - 1} & moduli):
            continue
        for n, col in enumerate((cx.boundary(k - 1) @ cx.boundary(k)).columns):
            if not col:
                continue
            p, i, cols, c = block(k, n)
            for r, x in col.items():
                _, t, rows, s = block(k - 2, r)
                entries = found.setdefault((i, p, i - t), (rows, cols, {}))[2]
                entries.setdefault(c, {})[s] = x
    return MulticomplexReport(
        (j, p, i, IntMatrix.from_columns(
            rows, cols, [entries.get(c, {}) for c in range(cols)]))
        for (i, p, j), (rows, cols, entries) in sorted(found.items()))


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

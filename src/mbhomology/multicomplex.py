"""The Morse-Bott-Smale bigraded complex and its totalization.

Rows are indexed by critical index i, columns by chain degree p.  The
structure maps d[j] have bidegree (j-1, -j); d[0] already carries the
checkerboard sign (-1)^(p+i), so the totalized boundary is a plain block
sum.  Validity means the anticommutation identity

    sum_{q=0..j} d[q] o d[j-q] = 0        for every j, at every bidegree,

which is exactly what makes the total boundary square to zero.
"""

from .chain import ChainComplex
from .exactalg import IntMatrix


class InvalidMulticomplex(ValueError):
    def __init__(self, report):
        super().__init__("\n".join(["invalid multicomplex:",
                                    *report.describe()]))
        self.report = report


class MBSMulticomplex:
    """Bigraded groups with structure maps, immutable after construction.

    row_ranks and row_labels are keyed by bidegree (p, i); maps by
    (j, p, i).  Bidegrees outside 0 <= p <= column_cap, 0 <= i <=
    ambient_dim have rank zero, and absent maps are zero.  The constructor
    refuses a stored d[j] at (p, i) not of shape rank(p+j-1, i-j) x rank(p, i).
    """

    def __init__(self, ambient_dim, column_cap, row_ranks, row_labels=None,
                 maps=None):
        self.ambient_dim = ambient_dim
        self.column_cap = column_cap
        self.row_ranks = row_ranks
        self.row_labels = {} if row_labels is None else row_labels
        self.maps = {} if maps is None else maps
        m = ambient_dim
        if column_cap % 2 or column_cap < m + 2:
            raise ValueError(
                f"column cap {column_cap} must be even and at least {m + 2}")
        for (p, i), r in row_ranks.items():
            if r < 0 or not (0 <= p <= column_cap) or not (0 <= i <= m):
                raise ValueError(f"bad bidegree ({p},{i}) with rank {r}")
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

    def rank(self, p, i):
        if p < 0 or p > self.column_cap or i < 0 or i > self.ambient_dim:
            return 0
        return self.row_ranks.get((p, i), 0)

    def labels(self, p, i):
        if (p, i) in self.row_labels:
            return self.row_labels[(p, i)]
        return tuple(f"x{p}.{i}.{t}" for t in range(self.rank(p, i)))

    def map(self, j, p, i):
        got = self.maps.get((j, p, i))
        if got is not None:
            return got
        return IntMatrix.zeros(self.rank(p + j - 1, i - j), self.rank(p, i))

    def row_present(self, i):
        return any(self.rank(p, i) > 0 for p in range(self.column_cap + 1))

    def bidegrees(self):
        for (p, i), r in sorted(self.row_ranks.items()):
            if r > 0:
                yield (p, i)


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
    """Check the anticommutation identity at every bidegree; each failure
    carries its residual matrix.  Shapes need no check here: the
    constructor has refused every mis-shaped map.
    """
    report = MulticomplexReport()
    # d[q] o d[a] from the bidegree (p, i) lands in (p+a+q-2, i-a-q) and
    # adds to the identity for j = a+q; absent maps are zero, so only
    # pairs of stored maps contribute
    by_source = {}
    for (j, p, i), mat in mc.maps.items():
        by_source.setdefault((p, i), []).append((j, mat))
    for p, i in sorted(by_source, key=lambda b: (b[1], b[0])):
        residuals = {}
        for a, first in by_source[(p, i)]:
            for q, second in by_source.get((p + a - 1, i - a), ()):
                j = a + q
                term = second @ first
                residuals[j] = residuals[j] + term if j in residuals else term
        for j in sorted(residuals):
            if not residuals[j].is_zero():
                report.identity_failures.append((j, p, i, residuals[j]))
    return report


class TotalComplexView:
    """The totalization CB_k = direct sum of C_p(B_i) over p + i = k.

    block_offsets maps each bidegree (p, i) of nonzero rank to the offset
    `off` of its block inside its total degree, so total generator off + t
    is mc.labels(p, i)[t]; blocks are ordered by increasing column p.
    """

    def __init__(self, mc, complex, block_offsets):
        self.mc = mc
        self.complex = complex
        self.block_offsets = block_offsets


def totalize(mc):
    """Assemble the total complex; the block at (source (p,i), target
    (p+j-1, i-j)) is d[j].  Only stored bidegrees and maps are visited,
    so degrees with no groups get no entries.

    >>> mc = MBSMulticomplex(
    ...     ambient_dim=1, column_cap=4,
    ...     row_ranks={(0, 0): 1, (0, 1): 1, (1, 0): 1},
    ...     maps={(1, 0, 1): IntMatrix.from_rows([[2]])})
    >>> view = totalize(mc)
    >>> view.complex.ranks, view.block_offsets[(1, 0)]
    ({0: 1, 1: 2}, 1)
    >>> view.complex.boundary(1).data
    ((2, 0),)
    """
    ranks = {}
    offsets = {}
    for (p, i) in mc.bidegrees():
        k = p + i
        offsets[(p, i)] = ranks.get(k, 0)
        ranks[k] = offsets[(p, i)] + mc.rank(p, i)

    entries = {}
    for (j, p, i), mat in mc.maps.items():
        tgt = (p + j - 1, i - j)
        if tgt not in offsets or mat.is_zero():
            continue
        k = p + i
        columns = entries.setdefault(k, [{} for _ in range(ranks[k])])
        r0, c0 = offsets[tgt], offsets[(p, i)]
        for out, col in zip(columns[c0:c0 + mat.cols], mat.columns):
            for r, x in col.items():
                out[r0 + r] = x
    boundaries = {k: IntMatrix.from_columns(ranks[k - 1], ranks[k], columns)
                  for k, columns in entries.items()}
    cx = ChainComplex(ranks=ranks, boundaries=boundaries)
    return TotalComplexView(mc=mc, complex=cx, block_offsets=offsets)

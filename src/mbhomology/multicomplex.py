"""The Morse-Bott-Smale bigraded complex and its totalization.

Rows are indexed by critical index i, columns by chain degree p.  The
structure maps d[j] have bidegree (j-1, -j); d[0] already carries the
checkerboard sign (-1)^(p+i), so the totalized boundary is a plain block
sum.  Validity means the anticommutation identity

    sum_{q=0..j} d[q] o d[j-q] = 0        for every j, at every bidegree,

which is exactly what makes the total boundary square to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import ChainComplex
from .exactalg import IntMatrix


class InvalidMulticomplex(ValueError):
    def __init__(self, report):
        super().__init__("invalid multicomplex:\n" + report.describe())
        self.report = report


@dataclass
class MBSMulticomplex:
    """Bigraded groups with structure maps, immutable after construction.

    row_ranks and row_labels are keyed by bidegree (p, i); maps by
    (j, p, i).  Bidegrees outside 0 <= p <= column_cap, 0 <= i <=
    ambient_dim have rank zero, and absent maps are zero.
    """

    ambient_dim: int
    column_cap: int
    row_ranks: dict
    row_labels: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)

    def __post_init__(self):
        m = self.ambient_dim
        if self.column_cap % 2 or self.column_cap < m + 2:
            raise ValueError(
                f"column cap {self.column_cap} must be even and at least "
                f"{m + 2}")
        for (p, i), r in self.row_ranks.items():
            if r < 0 or not (0 <= p <= self.column_cap) or not (0 <= i <= m):
                raise ValueError(f"bad bidegree ({p},{i}) with rank {r}")
        for (j, p, i) in self.maps:
            if j < 0 or j > m:
                raise ValueError(f"map index j={j} outside 0..{m}")
            if j > i:
                raise ValueError(f"d[{j}] stored on row {i} (must vanish "
                                 "for j > i)")

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


@dataclass
class MulticomplexReport:
    structural: list = field(default_factory=list)
    identity_failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.structural and not self.identity_failures

    def describe(self):
        lines = list(self.structural)
        for (j, p, i, residual) in self.identity_failures:
            lines.append(
                f"anticommutation fails for j={j} at bidegree (p={p}, i={i}); "
                f"residual {residual.shape}: {list(list(r) for r in residual.data)}")
        return "\n".join(lines) if lines else "valid"


def validate_multicomplex(mc):
    """Check shapes and the anticommutation identity at every bidegree.

    Shape problems are reported as structural failures; identity failures
    carry the offending residual matrix.
    """
    report = MulticomplexReport()
    m = mc.ambient_dim
    for (j, p, i), mat in sorted(mc.maps.items()):
        want = (mc.rank(p + j - 1, i - j), mc.rank(p, i))
        if mat.shape != want:
            report.structural.append(
                f"d[{j}] at (p={p}, i={i}) has shape {mat.shape}, "
                f"expected {want}")
    if report.structural:
        return report
    for i in range(0, m + 1):
        for p in range(0, mc.column_cap + 1):
            if mc.rank(p, i) == 0:
                continue
            for j in range(0, min(i, m) + 1):
                target_rank = mc.rank(p + j - 2, i - j)
                if target_rank == 0:
                    continue
                residual = IntMatrix.zeros(target_rank, mc.rank(p, i))
                for q in range(0, j + 1):
                    first = mc.map(j - q, p, i)
                    second = mc.map(q, p + j - q - 1, i - j + q)
                    residual = residual + second @ first
                if not residual.is_zero():
                    report.identity_failures.append((j, p, i, residual))
    return report


@dataclass
class TotalComplexView:
    """The totalization CB_k = direct sum of C_p(B_i) over p + i = k.

    block_offsets maps a bidegree to the starting coordinate of its block
    inside its total degree; blocks are ordered by increasing column p.
    """

    mc: MBSMulticomplex
    complex: ChainComplex
    block_offsets: dict


def _blocks_of_degree(mc, k):
    out = []
    for p in range(max(0, k - mc.ambient_dim), min(k, mc.column_cap) + 1):
        out.append((p, k - p))
    return out


def totalize(mc):
    """Assemble the total complex; the block at (source (p,i), target
    (p+j-1, i-j)) is d[j]."""
    ranks = {}
    labels = {}
    offsets = {}
    top = mc.column_cap + mc.ambient_dim
    for k in range(0, top + 1):
        blocks = _blocks_of_degree(mc, k)
        off = 0
        labs = []
        for (p, i) in blocks:
            offsets[(p, i)] = off
            off += mc.rank(p, i)
            labs.extend(f"({p},{i}):{lab}" for lab in mc.labels(p, i))
        ranks[k] = off
        labels[k] = tuple(labs)

    boundaries = {}
    for k in range(1, top + 1):
        src_blocks = _blocks_of_degree(mc, k)
        tgt_blocks = _blocks_of_degree(mc, k - 1)
        tgt_pos = {b: t for t, b in enumerate(tgt_blocks)}
        grid = [[None] * len(src_blocks) for _ in range(len(tgt_blocks))]
        for sj, (p, i) in enumerate(src_blocks):
            for j in range(0, min(i, mc.ambient_dim) + 1):
                tgt = (p + j - 1, i - j)
                mat = mc.maps.get((j, p, i))
                if tgt in tgt_pos and mat is not None and not mat.is_zero():
                    grid[tgt_pos[tgt]][sj] = mat
        boundaries[k] = IntMatrix.from_blocks(
            grid,
            row_sizes=[mc.rank(p, i) for (p, i) in tgt_blocks],
            col_sizes=[mc.rank(p, i) for (p, i) in src_blocks],
        )
    cx = ChainComplex(ranks=ranks, boundaries=boundaries, labels=labels)
    return TotalComplexView(mc=mc, complex=cx, block_offsets=offsets)

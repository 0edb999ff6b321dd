"""Exact linear algebra over the integers.

Everything runs on arbitrary-precision Python ints: Smith normal form
pivoting makes coefficients grow, and every homology computation downstream
depends on never rounding.  Matrices are immutable; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush


class IntMatrix:
    """Dense integer matrix, stored row-major as nested tuples.

    Treated as immutable everywhere: operations return new matrices.
    Zero-row and zero-column shapes are legal and behave as zero maps.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data):
        data = tuple(tuple(int(x) for x in row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"entries do not fill a {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, data, cols=None):
        data = [tuple(row) for row in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n):
        return cls(n, n, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries):
        return cls(len(entries), 1, [[x] for x in entries])

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def col(self, j):
        return tuple(row[j] for row in self.data)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}, {self.cols}, [])"
        body = ", ".join(str(list(row)) for row in self.data)
        return f"IntMatrix.from_rows([{body}])"

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __neg__(self):
        return IntMatrix(self.rows, self.cols,
                         [[-x for x in row] for row in self.data])

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)]
                          for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        return IntMatrix(self.rows, self.cols,
                         [[c * x for x in row] for row in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for a, orow in zip(row, other.data):
                if a:  # skip zeros: boundary matrices are sparse
                    acc = [x + a * b for x, b in zip(acc, orow)]
            out.append(acc)
        return IntMatrix(self.rows, other.cols, out)

    def times_vector(self, v):
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.shape}")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def submatrix_cols(self, col_indices):
        idx = list(col_indices)
        return IntMatrix(self.rows, len(idx),
                         [[row[j] for j in idx] for row in self.data])

    @classmethod
    def from_blocks(cls, blocks, row_sizes, col_sizes):
        """Assemble a matrix from a 2d grid of blocks (None means zero)."""
        rows = sum(row_sizes)
        cols = sum(col_sizes)
        data = [[0] * cols for _ in range(rows)]
        r0 = 0
        for bi, rsize in enumerate(row_sizes):
            c0 = 0
            for bj, csize in enumerate(col_sizes):
                block = blocks[bi][bj]
                if block is not None:
                    if block.shape != (rsize, csize):
                        raise ValueError(
                            f"block ({bi},{bj}) has shape {block.shape}, "
                            f"expected ({rsize},{csize})")
                    for i in range(rsize):
                        brow = block.data[i]
                        drow = data[r0 + i]
                        for j in range(csize):
                            drow[c0 + j] = brow[j]
                c0 += csize
            r0 += rsize
        return cls(rows, cols, data)


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular and S a nonnegative diagonal
    whose entries form a divisibility chain d_1 | d_2 | ...; u_inv is the
    inverse of U."""

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    invariant_factors: tuple
    u_inv: IntMatrix

    def solve(self, b):
        """One integer solution x of A @ x == b, or None if there is none."""
        b = tuple(int(x) for x in b)
        if len(b) != self.u.cols:
            raise ValueError(f"vector of length {len(b)} against "
                             f"{self.u.cols} equations")
        c = self.u.times_vector(b)
        d = self.invariant_factors
        y = [0] * self.v.rows
        for i, ci in enumerate(c):
            if i < len(d):
                q, r = divmod(ci, d[i])
                if r:
                    return None
                y[i] = q
            elif ci:
                return None
        return self.v.times_vector(y)


def snf(a):
    """Smith normal form of an integer matrix.

    Deterministic: the pivot is always the smallest nonzero entry in
    absolute value of the remaining block, ties broken by lowest row then
    lowest column index.

    >>> snf(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors
    (2, 4)
    >>> d = snf(IntMatrix.identity(2))
    >>> d.s == IntMatrix.identity(2)
    True
    """
    m, n = a.rows, a.cols
    s = [list(row) for row in a.data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u_inv_cols = [row[:] for row in u]  # row op on U = inverse col op here

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]
            u_inv_cols[i], u_inv_cols[j] = u_inv_cols[j], u_inv_cols[i]

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        if c:
            srow, drow = s[src], s[dst]
            for k in range(n):
                drow[k] += c * srow[k]
            srow, drow = u[src], u[dst]
            for k in range(m):
                drow[k] += c * srow[k]
            scol, dcol = u_inv_cols[src], u_inv_cols[dst]
            for k in range(m):
                scol[k] -= c * dcol[k]

    def add_col(src, dst, c):
        if c:
            for row in s:
                row[dst] += c * row[src]
            for row in v:
                row[dst] += c * row[src]

    def find_pivot(t):
        best = None
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                if row[j]:
                    mag = abs(row[j])
                    if best is None or mag < best[0]:
                        best = (mag, i, j)
        return best

    t = 0
    limit = min(m, n)
    while t < limit:
        best = find_pivot(t)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
                u_inv_cols[t] = [-x for x in u_inv_cols[t]]
            pivot = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    add_row(t, i, -(s[i][t] // pivot))
                    if s[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    add_col(t, j, -(s[t][j] // pivot))
                    if s[t][j]:
                        dirty = True
            if dirty:
                # A remainder smaller than the pivot appeared somewhere in
                # row/column t; promote it and re-eliminate.
                _, pi, pj = find_pivot(t)
                swap_rows(t, pi)
                swap_cols(t, pj)
                continue
            offender = None
            for i in range(t + 1, m):
                row = s[i]
                if any(row[j] % pivot for j in range(t + 1, n)):
                    offender = i
                    break
            if offender is None:
                break
            # Drag a non-divisible entry into row t; the next sweep shrinks
            # the pivot, so this terminates.
            add_row(offender, t, 1)
        t += 1

    factors = tuple(s[k][k] for k in range(limit) if s[k][k])
    return SmithDecomposition(
        u=IntMatrix(m, m, u),
        s=IntMatrix(m, n, s),
        v=IntMatrix(n, n, v),
        invariant_factors=factors,
        u_inv=IntMatrix(m, m, zip(*u_inv_cols)),
    )


def invariant_factors(a):
    """The invariant factors of an integer matrix, snf(a).invariant_factors.

    Unit entries are eliminated first on sparse columns: a +-1 pivot at
    (r, c) splits off a factor 1 and leaves the Schur complement
    col_j -= a[r][j] * pivot * col_c on the other rows and columns.  Pivots
    with the fewest other entries in their row and column go first, to keep
    fill low.  The dense snf runs only on the core left without unit
    entries; boundaries of simplicial complexes often leave none.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    >>> invariant_factors(IntMatrix.from_rows([[1, 1, 0], [-1, 0, 2]]))
    (1, 1)
    """
    cols = [{} for _ in range(a.cols)]
    rows = [set() for _ in range(a.rows)]
    for i, row in enumerate(a.data):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
                rows[i].add(j)

    def fill(i, j):
        return (len(cols[j]) - 1) * (len(rows[i]) - 1)

    # (fill when queued, column, row) of unit entries; an entry whose value
    # or fill changed since is skipped or queued again when popped
    queue = [(fill(i, j), j, i) for j, col in enumerate(cols)
             for i, x in col.items() if x in (1, -1)]
    heapify(queue)
    units = 0
    while queue:
        cost, c, r = heappop(queue)
        pivot_col = cols[c]
        pivot = pivot_col.get(r)
        if pivot not in (1, -1):
            continue
        now = fill(r, c)
        if now > cost:
            heappush(queue, (now, c, r))
            continue
        units += 1
        del pivot_col[r]
        cols[c] = {}
        for i in pivot_col:
            rows[i].discard(c)
        pivot_row = rows[r]
        rows[r] = set()
        pivot_row.discard(c)
        for j in pivot_row:
            col = cols[j]
            f = col.pop(r) * pivot
            for i, x in pivot_col.items():
                y = col.get(i, 0) - f * x
                if y:
                    if i not in col:
                        rows[i].add(j)
                    col[i] = y
                    if y in (1, -1):
                        heappush(queue, (fill(i, j), j, i))
                else:
                    del col[i]
                    rows[i].discard(j)

    core_cols = [col for col in cols if col]
    core_rows = sorted({i for col in core_cols for i in col})
    if not core_rows:
        return (1,) * units
    core = IntMatrix(len(core_rows), len(core_cols),
                     [[col.get(i, 0) for col in core_cols] for i in core_rows])
    return (1,) * units + snf(core).invariant_factors


def rank(a):
    """Rank of an integer matrix (number of nonzero invariant factors)."""
    return len(invariant_factors(a))


def solve_integer(a, b):
    """One integer solution of A @ x == b, or None when none exists.

    >>> solve_integer(IntMatrix.from_rows([[2, 1], [0, 3]]), (5, 3))
    (2, 1)
    >>> solve_integer(IntMatrix.from_rows([[2]]), (3,)) is None
    True
    """
    if len(tuple(b)) != a.rows:
        raise ValueError(f"right-hand side of length {len(tuple(b))} "
                         f"against {a.rows} equations")
    return snf(a).solve(b)


def kernel_basis(a):
    """Columns form a basis of ker(A) that extends to a basis of Z^cols.

    The kernel of A is spanned by the columns of V that the Smith form
    pairs with zero diagonal entries; V unimodular makes the basis
    saturated.
    """
    dec = snf(a)
    r = len(dec.invariant_factors)
    return dec.v.submatrix_cols(range(r, a.cols))

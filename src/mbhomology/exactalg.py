"""Exact linear algebra over the integers.

Everything runs on arbitrary-precision Python ints: Smith normal form
pivoting makes coefficients grow, and every homology computation downstream
depends on never rounding.  Matrices are immutable and stored as sparse
columns, so boundaries and structure maps cost what their nonzeros cost;
only `snf` works on dense rows.  All functions are pure.
"""

from heapq import heapify, heappop, heappush


class IntMatrix:
    """Integer matrix stored as sparse columns: `columns[j]` is a dict
    {row: nonzero entry} of column j, and zeros are never stored.

    Treated as immutable everywhere: operations return new matrices, and
    they may share column dicts, which nobody mutates.  Zero-row and
    zero-column shapes are legal and behave as zero maps.  `data`, the
    dense rows, is built on first read.
    """

    __slots__ = ("rows", "cols", "columns", "_data")

    def __init__(self, rows, cols, data):
        """Matrix from dense rows: `data` is `rows` sequences of `cols`
        entries each."""
        data = tuple(tuple(int(x) for x in row) for row in data)
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError(f"entries do not fill a {rows}x{cols} matrix")
        columns = [{} for _ in range(cols)]
        for i, row in enumerate(data):
            for j, x in enumerate(row):
                if x:
                    columns[j][i] = x
        self.rows = rows
        self.cols = cols
        self.columns = tuple(columns)
        self._data = data

    @classmethod
    def _of(cls, rows, cols, columns):
        """Unchecked constructor for columns known to be well formed."""
        mat = cls.__new__(cls)
        mat.rows = rows
        mat.cols = cols
        mat.columns = tuple(columns)
        mat._data = None
        return mat

    @classmethod
    def from_columns(cls, rows, cols, columns):
        """Matrix from `cols` sparse columns {row: entry}; zero entries are
        dropped.

        >>> m = IntMatrix.from_columns(2, 3, [{0: 1, 1: -1}, {}, {1: 0}])
        >>> m.data
        ((1, 0, 0), (-1, 0, 0))
        >>> m == IntMatrix.from_rows([[1, 0, 0], [-1, 0, 0]])
        True
        """
        columns = tuple({i: x for i, x in col.items() if x}
                        for col in columns)
        if len(columns) != cols or any(
                min(col) < 0 or max(col) >= rows for col in columns if col):
            raise ValueError(f"entries do not fill a {rows}x{cols} matrix")
        return cls._of(rows, cols, columns)

    @classmethod
    def from_rows(cls, data, cols=None):
        data = [tuple(row) for row in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    @classmethod
    def identity(cls, n):
        return cls._of(n, n, ({j: 1} for j in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of(rows, cols, ({} for _ in range(cols)))

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.shape}")
        return self.columns[j].get(i, 0)

    def col(self, j):
        col = self.columns[j]
        return tuple(col.get(i, 0) for i in range(self.rows))

    def _dense_rows(self):
        """Fresh dense rows as lists; the one place columns become rows."""
        out = [[0] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, x in col.items():
                out[i][j] = x
        return out

    @property
    def data(self):
        if self._data is None:
            self._data = tuple(tuple(row) for row in self._dense_rows())
        return self._data

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.columns == other.columns

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(frozenset(col.items()) for col in self.columns)))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}, {self.cols}, [])"
        body = ", ".join(str(list(row)) for row in self.data)
        return f"IntMatrix.from_rows([{body}])"

    def is_zero(self):
        return not any(self.columns)

    def __neg__(self):
        return self.scaled(-1)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} + {other.shape}")
        out = []
        for mine, theirs in zip(self.columns, other.columns):
            col = dict(mine)
            for i, x in theirs.items():
                y = col.get(i, 0) + x
                if y:
                    col[i] = y
                else:
                    del col[i]
            out.append(col)
        return IntMatrix._of(self.rows, self.cols, out)

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c):
        if not c:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix._of(self.rows, self.cols,
                             ({i: c * x for i, x in col.items()}
                              for col in self.columns))

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.shape} by {other.shape}")
        mine = self.columns
        out = []
        for theirs in other.columns:
            acc = {}
            for k, b in theirs.items():
                for i, a in mine[k].items():
                    acc[i] = acc.get(i, 0) + a * b
            out.append({i: x for i, x in acc.items() if x} if acc else acc)
        return IntMatrix._of(self.rows, other.cols, out)

    def times_vector(self, v):
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError(f"vector of length {len(v)} against {self.shape}")
        out = [0] * self.rows
        for x, col in zip(v, self.columns):
            if x:
                for i, a in col.items():
                    out[i] += a * x
        return tuple(out)

    def submatrix_cols(self, col_indices):
        out = [self.columns[j] for j in col_indices]
        return IntMatrix._of(self.rows, len(out), out)

    @classmethod
    def from_blocks(cls, blocks, row_sizes, col_sizes):
        """Assemble a matrix from a 2d grid of blocks (None means zero)."""
        for bi, rsize in enumerate(row_sizes):
            for bj, csize in enumerate(col_sizes):
                block = blocks[bi][bj]
                if block is not None and block.shape != (rsize, csize):
                    raise ValueError(
                        f"block ({bi},{bj}) has shape {block.shape}, "
                        f"expected ({rsize},{csize})")
        columns = []
        for bj, csize in enumerate(col_sizes):
            out = [{} for _ in range(csize)]
            r0 = 0
            for bi, rsize in enumerate(row_sizes):
                block = blocks[bi][bj]
                if block is not None:
                    for col, bcol in zip(out, block.columns):
                        for i, x in bcol.items():
                            col[r0 + i] = x
                r0 += rsize
            columns.extend(out)
        return cls._of(sum(row_sizes), sum(col_sizes), columns)


class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular and S a nonnegative diagonal
    whose entries form a divisibility chain d_1 | d_2 | ..."""

    def __init__(self, u, s, v, invariant_factors):
        self.u = u
        self.s = s
        self.v = v
        self.invariant_factors = invariant_factors


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
    s = a._dense_rows()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

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
    return _reduce(a)[0]


def _reduce(a, cleared=()):
    """(invariant factors, unit pivot rows) of `a` with the columns in
    `cleared` left out, by the elimination `invariant_factors` describes.

    The pivot rows are listed in elimination order.  The pivot column at
    step t, a combination of the columns of `a`, has +-1 at the row of
    step t and zeros at the rows of the earlier steps.

    >>> _reduce(IntMatrix.from_rows([[1, 1, 0], [-1, 0, 2]]))
    ((1, 1), [0, 1])
    >>> _reduce(IntMatrix.from_rows([[1, 1, 0], [-1, 0, 2]]), cleared={0})
    ((1, 2), [0])
    """
    if not any(a.columns):
        return (), []
    cols = [{} if j in cleared else dict(col)
            for j, col in enumerate(a.columns)]
    rows = [set() for _ in range(a.rows)]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)

    def fill(i, j):
        return (len(cols[j]) - 1) * (len(rows[i]) - 1)

    # (fill when queued, column, row) of unit entries; an entry whose value
    # or fill changed since is skipped or queued again when popped
    queue = [(fill(i, j), j, i) for j, col in enumerate(cols)
             for i, x in col.items() if x in (1, -1)]
    heapify(queue)
    pivots = []
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
        pivots.append(r)
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

    units = (1,) * len(pivots)
    core_cols = [col for col in cols if col]
    core_rows = sorted({i for col in core_cols for i in col})
    if not core_rows:
        return units, pivots
    place = {i: t for t, i in enumerate(core_rows)}
    core = IntMatrix._of(len(core_rows), len(core_cols),
                         ({place[i]: x for i, x in col.items()}
                          for col in core_cols))
    return units + snf(core).invariant_factors, pivots

"""Exact linear algebra over the integers.

Everything runs on arbitrary-precision Python ints: Smith normal form
pivoting makes coefficients grow, and every homology computation downstream
depends on never rounding.  Matrices are immutable and stored as sparse
columns, so boundaries and structure maps cost what their nonzeros cost.
Dense rows are made only by `snf` and the transforms it records, and by
`data`, which the failure reports print.  All functions are pure.
"""

from functools import cached_property
from math import gcd


class IntMatrix:
    """Integer matrix stored as sparse columns: `columns[j]` is a dict
    {row: nonzero entry} of column j, and zeros are never stored.

    Treated as immutable everywhere: operations return new matrices or
    the matrix itself, and they may share column dicts, which nobody
    mutates.  Zero-row and zero-column shapes are legal and behave as zero
    maps.  `data`, the dense rows, is built on first read.
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

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}, {self.cols}, [])"
        body = ", ".join(str(list(row)) for row in self.data)
        return f"IntMatrix.from_rows([{body}])"

    def is_zero(self):
        return not any(self.columns)

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

    def scaled(self, c):
        """`c` times the matrix; a matrix is immutable, so 1 gives itself.

        >>> m = IntMatrix.from_rows([[1, -2]])
        >>> m.scaled(1) is m, m.scaled(-1).data, m.data
        (True, ((-1, 2),), ((1, -2),))
        """
        if c == 1:
            return self
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


class SmithDecomposition:
    """U @ A @ V == S with U, V unimodular and S a nonnegative diagonal
    whose entries form a divisibility chain d_1 | d_2 | ...

    `snf` keeps the row and column operations that took A to S rather
    than U and V: each transform is those operations replayed on the
    identity, the first time it is read.  A caller that reads only `s`
    and `invariant_factors` never builds either.
    """

    def __init__(self, s, invariant_factors, row_ops, col_ops):
        self.s = s
        self.invariant_factors = invariant_factors
        self._row_ops = row_ops
        self._col_ops = col_ops

    @cached_property
    def u(self):
        m = self.s.rows
        return IntMatrix(m, m, _replay(m, self._row_ops))

    @cached_property
    def v(self):
        # a column operation on V is the same row operation on V^T
        n = self.s.cols
        return IntMatrix(n, n, zip(*_replay(n, self._col_ops)))


def _replay(n, ops):
    """Rows of the n x n identity after the row operations `ops`, in
    order: (i, j) swaps rows i and j, (i,) negates row i, and (src, dst,
    c) adds c times row src to row dst."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for op in ops:
        if len(op) == 3:
            src, dst, c = op
            rows[dst] = [x + c * y for x, y in zip(rows[dst], rows[src])]
        elif len(op) == 2:
            i, j = op
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[op[0]] = [-x for x in rows[op[0]]]
    return rows


def snf(a):
    """Smith normal form of an integer matrix.

    Deterministic: the pivot is always the smallest nonzero entry in
    absolute value of the remaining block, ties broken by lowest row then
    lowest column index.  Only S is worked on; the row and column
    operations are recorded for the transforms of the result.

    >>> snf(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors
    (2, 4)
    >>> d = snf(IntMatrix.identity(2))
    >>> d.s == IntMatrix.identity(2) == d.u == d.v
    True
    """
    m, n = a.rows, a.cols
    s = a._dense_rows()
    row_ops, col_ops = [], []

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            row_ops.append((i, j))

    def swap_cols(i, j):
        if i != j:
            for row in s:
                row[i], row[j] = row[j], row[i]
            col_ops.append((i, j))

    def add_row(src, dst, c):
        if c:
            srow, drow = s[src], s[dst]
            for k in range(n):
                drow[k] += c * srow[k]
            row_ops.append((src, dst, c))

    def add_col(src, dst, c):
        if c:
            for row in s:
                row[dst] += c * row[src]
            col_ops.append((src, dst, c))

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
                row_ops.append((t,))
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
    return SmithDecomposition(IntMatrix(m, n, s), factors, row_ops, col_ops)


def invariant_factors(a):
    """The invariant factors of an integer matrix, snf(a).invariant_factors.

    Unit entries are eliminated first on sparse columns: a +-1 pivot at
    (r, c) splits off a factor 1 and leaves the Schur complement
    col_j -= a[r][j] * pivot * col_c on the other rows and columns.  The
    columns are swept shortest first, each pivoting on its +-1 entry in
    the row with the fewest entries, to keep fill low.  The dense snf runs
    only on the core left without unit entries, and only its invariant
    factors are read; boundaries of simplicial complexes often leave no
    core at all.  A core of one column or one row has one invariant
    factor, the gcd of its entries, and skips snf.

    >>> invariant_factors(IntMatrix.from_rows([[2, 4], [6, 8]]))
    (2, 4)
    >>> invariant_factors(IntMatrix.from_rows([[1, 1, 0], [-1, 0, 2]]))
    (1, 1)
    """
    return _reduce(a)[0]


def _reduce(a, cleared=()):
    """(invariant factors, unit pivot rows) of `a` with the columns in
    `cleared` left out, by the elimination `invariant_factors` describes.

    One pass visits its columns in order of length, ties by index.  A
    column with a +-1 entry pivots on the one whose row has the fewest
    entries, and the Schur update runs on the columns of that row.  The
    next pass visits only the columns that gained a +-1 entry, and the
    sweep stops after a pass that makes no pivot; the nonzero columns
    left are the core.

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

    pivots = []
    sweep = [j for j, col in enumerate(cols) if col]
    while sweep:
        sweep.sort(key=lambda j: len(cols[j]))
        gained = set()
        for c in sweep:
            pivot_col = cols[c]
            r = None
            for i, x in pivot_col.items():
                if (x == 1 or x == -1) and (r is None
                                            or len(rows[i]) < len(rows[r])):
                    r = i
            if r is None:
                continue
            pivots.append(r)
            pivot = pivot_col.pop(r)
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
                        if y == 1 or y == -1:
                            gained.add(j)
                    else:
                        del col[i]
                        rows[i].discard(j)
        sweep = sorted(j for j in gained if cols[j])

    units = (1,) * len(pivots)
    core_cols = [col for col in cols if col]
    core_rows = sorted({i for col in core_cols for i in col})
    if not core_rows:
        return units, pivots
    if len(core_cols) == 1 or len(core_rows) == 1:
        # one column or one row: its one invariant factor is the gcd
        return units + (gcd(*(x for col in core_cols
                              for x in col.values())),), pivots
    place = {i: t for t, i in enumerate(core_rows)}
    core = IntMatrix._of(len(core_rows), len(core_cols),
                         ({place[i]: x for i, x in col.items()}
                          for col in core_cols))
    return units + snf(core).invariant_factors, pivots

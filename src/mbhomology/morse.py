"""The Morse-Smale-Witten complex and its canonical embedding.

For point-only multicomplexes the column-zero diagonal is the classical
complex on critical points with boundary n(q, p).  The embedding fills in
the even columns by the recursion

    c_i = -d[0]^{-1} ( d[i] c_0 + d[i-2] c_2 + ... + d[2] c_{i-2} ),

odd columns staying zero; every row is a point row, ending at an even
column, so d[0] is eps * I at each even positive column with eps = +1 or
-1, and d[0]^{-1} = eps.  The result is a chain map into the total complex
and a quasi-isomorphism, which is verified here matrix-exactly.
"""

from .chain import (
    ChainComplex,
    ChainMap,
    _acyclic,
    _cone,
    chain_map_residuals,
    homology_at,
    validate_complex,
)
from .exactalg import IntMatrix
from .pipeline import validated_total


class InvalidMorseData(ValueError):
    """Critical points and flow-line counts that do not form a complex."""


class MorseData:
    """Critical points by index and signed flow-line counts n(q, p) for
    index(q) = index(p) + 1; raises InvalidMorseData, naming every point
    listed twice and every other count, as soon as it is constructed."""

    def __init__(self, crit_by_index, counts):
        self.crit_by_index = {int(k): tuple(v)
                              for k, v in crit_by_index.items() if v}
        self.counts = {(q, p): int(n) for (q, p), n in counts.items()}
        report = []
        seen = {}
        for k, names in self.crit_by_index.items():
            for name in names:
                if seen.get(name) == k:
                    report.append(f"point {name} listed twice at index {k}")
                elif name in seen:
                    report.append(f"point {name} listed at indices "
                                  f"{seen[name]} and {k}")
                seen[name] = k
        for (q, p), n in self.counts.items():
            if q not in seen or p not in seen:
                report.append(f"count n({q},{p}) uses unknown points")
            elif seen[q] != seen[p] + 1:
                report.append(f"count n({q},{p}) does not drop index by one")
        if report:
            raise InvalidMorseData("; ".join(report))


def morse_complex(md):
    """Chain complex on critical points graded by index.

    Raises InvalidMorseData when the boundary does not square to zero.
    """
    ranks = {}
    labels = {}
    position = {}  # point name -> (index, place within its index)
    for k, names in md.crit_by_index.items():
        ranks[k] = len(names)
        labels[k] = tuple(names)
        for t, name in enumerate(names):
            position[name] = (k, t)
    columns = {k: [{} for _ in range(ranks[k])]
               for k in sorted(ranks) if k - 1 in ranks}
    for (q, p), n in md.counts.items():
        (k, col), (_, row) = position[q], position[p]
        columns[k][col][row] = n
    boundaries = {k: IntMatrix.from_columns(ranks[k - 1], ranks[k], cols)
                  for k, cols in columns.items()}
    cx = ChainComplex(ranks=ranks, boundaries=boundaries, labels=labels)
    problems = validate_complex(cx)
    if problems:
        raise InvalidMorseData(
            "flow-line counts do not square to zero: " + "; ".join(problems))
    return cx


def _check_morse_shaped(mc):
    """Every present row must be a point row: one rank in each of its
    columns 0..c, c even, and at every even positive column a d[0] block
    eps * I with eps = +1 or -1 read from the block.  Rows are walked over
    their own columns.  Raises ValueError otherwise."""
    # by increasing p, so each row keeps its last column
    ends = {i: p for (p, i), r in sorted(mc.row_ranks.items()) if r}
    for i, end in sorted(ends.items()):
        if end % 2 or any(mc.rank(p, i) != mc.rank(0, i)
                          for p in range(1, end + 1)):
            raise ValueError(f"row {i} has varying rank or ends at odd "
                             f"column {end}; the embedding needs point rows")
        for p in range(2, end + 1, 2):
            d0 = mc.map(0, p, i)
            eps = d0[0, 0]
            if eps not in (1, -1) or any(
                    col != {j: eps} for j, col in enumerate(d0.columns)):
                raise ValueError(
                    f"d[0] at (p={p}, i={i}) is not +-I; the embedding "
                    "needs point rows")


def phi_chain_map(cm, mc):
    """The embedding as a chain map from the critical-point complex
    cm = morse_complex(md) into `mc.complex`, the total complex of `mc`.

    Row k lifts all at once: C_0 = I, the odd C_i are zero, and since d[0]
    is eps * I at each even bidegree (i, k - i),
    C_i = -eps * sum over even t < i of d[i - t] C_t.  An absent row, or a
    column past the end of a row, gives an empty slot (see verify_morse_mb)."""
    for k in cm.degrees():
        if cm.rank(k) and mc.labels(0, k) != cm.label(k):
            raise ValueError(
                f"row {k} labels {mc.labels(0, k)} do not match critical "
                f"points {cm.label(k)}")
    _check_morse_shaped(mc)
    components = {}
    for k in cm.degrees():
        n = cm.rank(k)
        parts = {0: IntMatrix.identity(n)}
        for i in range(2, k + 1, 2):
            rows = mc.rank(i, k - i)
            acc = IntMatrix.zeros(rows, n)
            if rows:
                for t in range(0, i, 2):
                    acc = acc + mc.map(i - t, t, k - t) @ parts[t]
                acc = acc.scaled(-mc.map(0, i, k - i)[0, 0])
            parts[i] = acc
        cols = [{} for _ in range(n)]
        for i, part in parts.items():
            off = mc.block_offsets.get((i, k - i))
            for col, entries in zip(cols, part.columns):
                col.update((off + s, x) for s, x in entries.items())
        components[k] = IntMatrix.from_columns(mc.complex.rank(k), n, cols)
    return ChainMap(source=cm, target=mc.complex, components=components)


class MorseVerification:
    """Outcome of checking the embedding against the multicomplex."""

    def __init__(self, chain_map_residuals, odd_components_zero,
                 is_quasi_iso, morse_homology, mb_homology, embedding=None):
        self.chain_map_residuals = chain_map_residuals
        self.odd_components_zero = odd_components_zero
        self.is_quasi_iso = is_quasi_iso
        self.morse_homology = morse_homology
        self.mb_homology = mb_homology
        self.embedding = embedding

    @property
    def chain_map_exact(self):
        return all(r.is_zero() for r in self.chain_map_residuals.values())

    @property
    def ok(self):
        return (self.chain_map_exact and self.odd_components_zero
                and self.is_quasi_iso
                and all(a.iso(b) for a, b in
                        zip(self.morse_homology, self.mb_homology)))


def verify_morse_mb(cm, mc):
    """Check the embedding phi of the critical-point complex
    cm = morse_complex(md) once: the residuals d phi - phi d per degree,
    zero odd columns, the mapping-cone verdict on an exact phi, and both
    homology tables in degrees 0..ambient_dim.  The embedding is kept on
    the outcome.

    On a build of flow data the outcome is the one the fat rows, run on to
    column_cap, would give.  Point sources land only at column 0, so each
    lift term C_i = -eps d[i] C_0 lies at column i <= c_{k-i}, where point
    row k - i stops (flowdata.build_multicomplex): the fat embedding lands
    in the kept total complex T and is phi.  The fat total complex is T + A
    with A acyclic, so cone(phi_fat) = cone(phi) + A, and the residuals,
    the quasi-isomorphism verdict and both tables are unchanged.

    Raises InvalidMulticomplex when `mc` fails `validate_multicomplex`.
    """
    total = validated_total(mc)
    phi = phi_chain_map(cm, mc)
    residuals = chain_map_residuals(phi)

    odd_zero = not any(
        off <= r < off + mc.rank(i, j)
        for (i, j), off in mc.block_offsets.items() if i % 2
        for col in phi.component(i + j).columns for r in col)
    exact = all(r.is_zero() for r in residuals.values())
    return MorseVerification(
        chain_map_residuals=residuals,
        odd_components_zero=odd_zero,
        is_quasi_iso=exact and _acyclic(_cone(phi)),
        morse_homology=homology_at(cm, range(mc.ambient_dim + 1)),
        mb_homology=homology_at(total, range(mc.ambient_dim + 1)),
        embedding=phi,
    )

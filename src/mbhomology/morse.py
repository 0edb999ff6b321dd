"""The Morse-Smale-Witten complex, and the check that a build is it.

For point-only multicomplexes the column-zero diagonal is the classical
complex on critical points with boundary n(q, p).  The paper's comparison
theorem embeds it in the total complex by a quasi-isomorphism.  A Morse
document's build is that complex itself: every moduli component of
`morse_to_flow` has a point domain, so every point row stops at column 0
(flowdata.build_multicomplex) and the embedding is the identity.  So the
`morse` command compares the validated build with the flow-line counts
(`is_critical_point_complex`); it forms `morse_complex` only for a build
that fails.  The embedding on longer rows, its mapping cone and the lift
recursion are the test reference in tests/support.py.
"""

from .chain import ChainComplex, validate_complex
from .exactalg import IntMatrix


class InvalidMorseData(ValueError):
    """Critical points and flow-line counts that do not form a complex."""


class MorseData:
    """Critical points by index and signed flow-line counts n(q, p) for
    index(q) = index(p) + 1, each point at one index, as
    schema.morse_from_doc reads them.  The constructor only normalizes:
    int indices, tuples of names with empty indices left out, int
    counts."""

    def __init__(self, crit_by_index, counts):
        self.crit_by_index = {int(k): tuple(v)
                              for k, v in crit_by_index.items() if v}
        self.counts = {(q, p): int(n) for (q, p), n in counts.items()}


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


def is_critical_point_complex(md, fp, mc):
    """True iff the total complex of `mc`, the build of `fp`, is the
    critical-point complex of `md`, read off the counts: the same nonzero
    ranks, the names of fp's index-k points in md's order for every k, and
    as boundary entries exactly the nonzero counts n(q, p), at (p, q).

    Then each degree of the total complex is the column-0 block of its row,
    so the embedding of morse_complex(md) is the identity.  It is a chain
    map with zero odd components, and its mapping cone is the cone of an
    identity, which is acyclic.  Both homology tables are then one table.
    """
    total, points = mc.complex, md.crit_by_index
    place = {name: (k, t) for k, names in points.items()
             for t, name in enumerate(names)}
    entries = [(place[q], place[p], n) for (q, p), n in md.counts.items()
               if n]
    bounds = total.boundaries
    return ({k: r for k, r in total.ranks.items() if r}
            == {k: len(names) for k, names in points.items()}
            and all(fp.crit_at(k).names == names
                    for k, names in points.items())
            and all(k in bounds and bounds[k].columns[col].get(row) == n
                    for (k, col), (_, row), n in entries)
            and len(entries) == sum(len(col) for d in bounds.values()
                                    for col in d.columns))

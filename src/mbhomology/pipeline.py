"""One path from a multicomplex to its homology table.

The `homology`, `morse` and `compare` commands go through here: the
multicomplex is validated once and the homology of its total complex is
computed in one pass.  The command line then checks the table against
expected values or a second one; `validate` reads the report itself.
"""

from .chain import homology_at
from .multicomplex import InvalidMulticomplex, totalize, validate_multicomplex


def homology_table(mc, degrees=None):
    """Homology of the totalization in `degrees` (default 0 .. ambient_dim
    + 1), one group per degree in order, from one `homology_at` pass: each
    total boundary is reduced once.

    Raises InvalidMulticomplex, carrying the validator's report, before any
    homology is computed.  No column cap enters: running a point row on to
    any even cap adds only acyclic pairs, so every degree is the one every
    cap gives (flowdata.build_multicomplex).

    The top block of each row the builder marked is not reduced.  In the
    basis of the forest's subtree chains and the components' cycles z the
    boundary is block triangular, a signed identity on the forest ridges,
    whose rows are zero outside the block; so each forest pair is a factor
    1, the rest, with D z = sum_{j>=1} d[j] z, is reduced alone, and the
    ridges clear the degree below as unit pivots do (homology_at).
    """
    report = validate_multicomplex(mc)
    if not report.ok:
        raise InvalidMulticomplex(report)
    if degrees is None:
        degrees = range(0, mc.ambient_dim + 2)
    # totalize does no work; the benchmark traces it as a stage
    return homology_at(totalize(mc).complex, degrees, _forests(mc))


def _forests(mc):
    """The `forests` argument of homology_at for the rows the builder
    marked: the top block's columns, its forest ridges and the columns
    D z = sum_{j>=1} d[j] z of its components, in total coordinates (the
    d[0] part is the boundary of a cycle, zero)."""
    out = {}
    offsets = mc.block_offsets
    for i, k in mc._forests.items():
        n = k.top_dim
        coefficients = k._cycle[0]
        start, ridge = offsets[(n, i)], offsets[(n - 1, i)]
        above = [(mat.columns, offsets[(n + j - 1, i - j)])
                 for j in range(1, i + 1)
                 if (mat := mc.maps.get((j, n, i))) is not None]
        ridges = []
        cycles = []
        for root, pairs in k._forest:
            ridges += [ridge + r for r, _ in pairs]
            if not above:
                continue
            column = {}
            for t in (root, *(t for _, t in pairs)):
                x = coefficients[t]
                for columns, row in above:
                    for r, y in columns[t].items():
                        column[row + r] = column.get(row + r, 0) + x * y
            column = {r: y for r, y in column.items() if y}
            if column:
                cycles.append(column)
        out.setdefault(n + i, []).append(
            (range(start, start + len(coefficients)), ridges, cycles))
    return out

"""One path from a multicomplex to its homology table.

The command line, the corpus and the Morse check go through here: the
multicomplex is validated once and the homology of its total complex is
computed in one pass; the table is then checked against expected values or
a second one.
"""

from .chain import homology_at
from .multicomplex import InvalidMulticomplex, totalize, validate_multicomplex


def validated_total(mc):
    """The total complex `mc.complex`, which `mc` laid out when it was
    built, once `mc` passes validate_multicomplex; otherwise raises
    InvalidMulticomplex, carrying the validator's report."""
    report = validate_multicomplex(mc)
    if not report.ok:
        raise InvalidMulticomplex(report)
    return totalize(mc).complex


def homology_table(mc, degrees=None):
    """Homology of the totalization in `degrees` (default 0 .. ambient_dim
    + 1, so the cost does not grow with the column cap), one group per
    degree in order, from one `homology_at` pass: each total boundary is
    reduced once.

    Raises InvalidMulticomplex, carrying the validator's report, before any
    homology is computed.  Every degree is the same at every (even) column
    cap: a larger cap adds only acyclic pairs to a point row, and the
    builder adds none (flowdata.build_multicomplex).
    """
    total = validated_total(mc)
    if degrees is None:
        degrees = range(0, mc.ambient_dim + 2)
    return homology_at(total, degrees)


def expected_mismatches(groups, expected):
    """One line per degree where a computed group differs from the expected
    one.  Both are dicts keyed by degree; expected degrees that were not
    computed are skipped."""
    lines = []
    for k, want in sorted(expected.items()):
        got = groups.get(k)
        if got is not None and not got.iso(want):
            lines.append(f"degree {k}: computed {got}, expected betti "
                         f"{want.betti}, torsion {list(want.torsion)}")
    return lines


def compare_tables(left, right):
    """(degree, left group, right group, isomorphic) for every degree both
    tables cover; tables start at degree 0."""
    return [(k, a, b, a.iso(b)) for k, (a, b) in enumerate(zip(left, right))]

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
    """
    report = validate_multicomplex(mc)
    if not report.ok:
        raise InvalidMulticomplex(report)
    if degrees is None:
        degrees = range(0, mc.ambient_dim + 2)
    # totalize does no work; the benchmark traces it as a stage
    return homology_at(totalize(mc).complex, degrees)

"""One path from a multicomplex to its homology table.

Every command goes through here: the multicomplex is validated once and
the homology of its total complex is computed in one pass.  The command
line then checks the table against expected values or a second one.
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
    + 1), one group per degree in order, from one `homology_at` pass: each
    total boundary is reduced once.

    Raises InvalidMulticomplex, carrying the validator's report, before any
    homology is computed.  No column cap enters: running a point row on to
    any even cap adds only acyclic pairs, so every degree is the one every
    cap gives (flowdata.build_multicomplex).
    """
    total = validated_total(mc)
    if degrees is None:
        degrees = range(0, mc.ambient_dim + 2)
    return homology_at(total, degrees)

"""CLI output bytes over fixed call sets, pinned by digest.

`scripts/output_digest.py` hashes what the command line prints for the
shipped corpus, seeded benchmark documents, corpus comparisons and corpus
files made invalid by one flipped sign.  A
change that alters that output on purpose updates the values below and
says so in CHANGES.md; any other change must leave them as they are.  The
refusals line is not pinned: argparse words its errors differently from
one Python version to the next.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

PINNED = {
    "documents": ("fa4af851c76b9ba09f34ccd5fade62985ca9accf35941b64ea067da5bbb77ec6",
                  712),
    "compare": ("041b95bbc9930b88f402f2d046a590c41f82a5c215ca52ddaf6861b191e5c175",
                18),
    "failures": ("735bd19eca2c7892de1557d81096ed95fd4749b8c54efe892f617c256032fcdd",
                 114),
}


def test_output_digests():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, check=True)
    lines = {}
    for line in done.stdout.splitlines():
        digest, calls, _, name = line.split(maxsplit=3)
        lines[name] = (digest, int(calls))
    for name, want in PINNED.items():
        assert lines[name] == want, name

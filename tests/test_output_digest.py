"""CLI output bytes over fixed call sets, pinned by digest.

`scripts/output_digest.py` hashes what the command line prints for the
shipped corpus, seeded benchmark documents, corpus comparisons, corpus
files made invalid by one flipped sign and seeded documents that meet each
refusal of a malformed model or moduli component.  A
change that alters that output on purpose updates the values below and
says so in CHANGES.md; any other change must leave them as they are.  The
refusals line is not pinned: argparse words its errors differently from
one Python version to the next.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digest.py"

PINNED = {
    "documents": ("fa4af851c76b9ba09f34ccd5fade62985ca9accf35941b64ea067da5bbb77ec6",
                  712),
    "compare": ("041b95bbc9930b88f402f2d046a590c41f82a5c215ca52ddaf6861b191e5c175",
                18),
    "failures": ("735bd19eca2c7892de1557d81096ed95fd4749b8c54efe892f617c256032fcdd",
                 114),
    "malformed": ("fedfc9cf915f0bf5dca1a39dfc3b9781c6f3c122dba23483127283fd9e8b553b",
                  108),
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


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_malformed_documents_meet_their_refusal(script, tmp_path):
    # each malformed document is refused for the reason it was built for,
    # with exit 2 for a malformed model and 1 for a failed covering
    seen = set()
    for name, path, phrase in script.malformed(tmp_path):
        code, out, err = script.run(["homology", path])
        assert out == "" and phrase in err, (name, err)
        assert code == (1 if "ev_minus is not a covering" in err else 2)
        seen.add(phrase)
    assert seen == {phrase for _, phrase in script.MALFORMED.values()}

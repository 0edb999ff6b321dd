"""One SHA-256 over what the CLI prints for a fixed set of calls.

Runs `validate`, `homology`, `morse` and `homology --degrees 0..5`, each as
text and with `--json`, on the shipped corpus and on 20 seeded documents
(seed 1, calls 0..19) of every benchmark workload.  The digest covers the
file name, command, flags, exit code, stdout and stderr of each call, with
the input path replaced by a fixed token.  Run it in two checkouts: equal
digests mean their CLI output is byte-identical on these calls.

    python3 scripts/output_digest.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from mbhomology import cli  # noqa: E402
from mbhomology.corpus import data_dir, entry_names  # noqa: E402
import workloads  # noqa: E402

COMMANDS = (["validate"], ["homology"], ["morse"],
            ["homology", "--degrees", "0..5"])
SEEDED = 20
TOKEN = "<input>"


def documents(scratch):
    """(name, path) of every input: corpus files first, then the seeded
    workload documents written under `scratch`."""
    for name in entry_names():
        yield f"{name}.json", str(data_dir() / f"{name}.json")
    for workload in sorted(workloads.WORKLOADS):
        for call in range(SEEDED):
            doc, _, _ = workloads.make(workload, 1, call)
            path = Path(scratch) / f"{workload}-{call}.json"
            path.write_text(json.dumps(doc), "utf-8")
            yield path.name, str(path)


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main():
    digest = hashlib.sha256()
    calls = 0
    with tempfile.TemporaryDirectory() as scratch:
        for name, path in documents(scratch):
            for command in COMMANDS:
                for flags in ([], ["--json"]):
                    code, out, err = run([command[0], path, *command[1:],
                                          *flags])
                    record = [name, *command, *flags, str(code),
                              out.replace(path, TOKEN),
                              err.replace(path, TOKEN)]
                    digest.update(json.dumps(record).encode("utf-8"))
                    calls += 1
    print(f"{digest.hexdigest()}  {calls} calls")


if __name__ == "__main__":
    main()

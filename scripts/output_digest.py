"""SHA-256 digests over what the CLI prints for fixed sets of calls.

Four call sets, one digest line each:

- documents: `validate`, `homology`, `morse` and `homology --degrees 0..5`,
  each as text and with `--json`, on the shipped corpus and on 20 seeded
  documents (seed 1, calls 0..19) of every benchmark workload;
- compare: `compare` of each corpus file against the next one (the last
  against the first), as text and with `--json`;
- failures: each corpus flow file with the sign of one moduli component
  flipped, one component at a time, under `validate`, `homology` and
  `compare` against the original file, as text and with `--json`;
- refusals: the argument parser's refusals of no command, an unknown
  command and a command without its path.

A digest covers the file names, command, flags, exit code, stdout and
stderr of each call, with input paths replaced by fixed tokens.  Run it in
two checkouts: equal digests mean their CLI output is byte-identical on
that call set.

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
REFUSALS = ([], ["nosuch"], ["homology"])
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


def record(digest, argv, names, paths):
    """Add one call to `digest`, with `names` standing for `paths`."""
    code, out, err = run(argv)
    for n, path in enumerate(paths):
        token = TOKEN if len(paths) == 1 else f"<input{n}>"
        out, err = out.replace(path, token), err.replace(path, token)
    shown = [*names, *(a for a in argv if a not in paths)]
    digest.update(json.dumps([*shown, str(code), out, err]).encode("utf-8"))


def document_calls(scratch):
    """(argv, names, paths) of the documents call set."""
    for name, path in documents(scratch):
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                yield ([command[0], path, *command[1:], *flags], [name],
                       [path])


def flipped(scratch):
    """(name, path) of each corpus flow file and (name, path) of a copy
    under `scratch` with one moduli component's sign flipped, for every
    component in turn."""
    for name in entry_names():
        original = data_dir() / f"{name}.json"
        doc = json.loads(original.read_text("utf-8"))
        if doc.get("kind") != "flow":
            continue
        for t, component in enumerate(doc["moduli"]):
            component["sign"] = -component["sign"]
            path = Path(scratch) / f"{name}-flip{t}.json"
            path.write_text(json.dumps(doc), "utf-8")
            component["sign"] = -component["sign"]
            yield (original.name, str(original)), (path.name, str(path))


def failure_calls(scratch):
    """(argv, names, paths) of the failures call set."""
    for (name, original), (flip, path) in flipped(scratch):
        for flags in ([], ["--json"]):
            for command in ("validate", "homology"):
                yield [command, path, *flags], [flip], [path]
            yield (["compare", original, path, *flags], [name, flip],
                   [original, path])


def compare_calls():
    """(argv, names, paths) of the compare call set."""
    corpus = [(f"{name}.json", str(data_dir() / f"{name}.json"))
              for name in entry_names()]
    for (name_a, a), (name_b, b) in zip(corpus, corpus[1:] + corpus[:1]):
        for flags in ([], ["--json"]):
            yield ["compare", a, b, *flags], [name_a, name_b], [a, b]


def main():
    with tempfile.TemporaryDirectory() as scratch:
        for label, calls in (
                ("documents", document_calls(scratch)),
                ("compare", compare_calls()),
                ("failures", failure_calls(scratch)),
                ("refusals", ((argv, [], []) for argv in REFUSALS))):
            digest = hashlib.sha256()
            count = 0
            for argv, names, paths in calls:
                record(digest, argv, names, paths)
                count += 1
            print(f"{digest.hexdigest()}  {count} calls  {label}")


if __name__ == "__main__":
    main()

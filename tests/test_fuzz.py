"""Mutation fuzzing of the command line: one value of a corpus document is
replaced or deleted, and every command must end with exit code 0, 1 or 2,
never with an exception.  A value below `critical`, `moduli` or `counts`
that makes a command exit 2 is refused by its JSON path, below the file.

Replacement integers stay small (-2..10): a large `dim` makes work that
grows with the number itself, which is a cost question and not what this
test checks.  Small integers already reach every vertex, index and count
check.  `column_cap`, which no corpus document sets, is drawn as one more
path, and it may also take a large even or odd value: no command's work
grows with the cap.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbhomology.cli import main
from mbhomology.corpus import data_dir, entry_names

VALUES = st.one_of(
    st.integers(-2, 10),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 10), max_size=3),
    st.just({}),
)
# the large caps come first, so the simplest examples already try them
CAPS = st.one_of(st.sampled_from([20000, 20001]), VALUES)


def paths(doc, prefix=()):
    """Every path (a tuple of keys and indices) below the root."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def mutated(doc, path, value, delete):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        if isinstance(parent, dict):
            parent.pop(path[-1], None)  # `column_cap` may be absent
        else:
            del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def run(argv):
    """(exit code, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


@pytest.mark.parametrize("name", entry_names())
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_one_changed_value_never_escapes(name, data):
    original = data_dir() / f"{name}.json"
    doc = json.loads(original.read_text("utf-8"))
    path = data.draw(st.sampled_from(
        sorted({*paths(doc), ("column_cap",)}, key=repr)))
    delete = data.draw(st.booleans())
    value = None if delete else data.draw(
        CAPS if path == ("column_cap",) else VALUES)
    # `morse` refuses a well-formed flow document by the file alone
    by_path = len(path) > 1 and path[0] in ("critical", "moduli", "counts")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "doc.json"
        target.write_text(json.dumps(mutated(doc, path, value, delete)),
                          "utf-8")
        for argv in (["validate", str(target)], ["homology", str(target)],
                     ["morse", str(target)],
                     ["compare", str(original), str(target)]):
            code, err = run(argv)
            assert code in (0, 1, 2), argv
            if code == 2 and by_path and (argv[0] != "morse"
                                          or doc["kind"] == "morse"):
                assert f"{target}." in err, (argv, err)

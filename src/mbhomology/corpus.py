"""Worked examples shipped as flow and Morse documents, with expected
homology, read as the command line reads them.  The commands check them:
`mbhomology homology FILE` against each file's expected table, and
`mbhomology compare A B` across presentations of the same manifold."""

from importlib import resources

from .schema import expected_from_doc, presentation_from_file


class CorpusEntry:
    """A shipped example as the command line reads it: `presentation` is
    the flow presentation of the document, and `morse` its Morse data, or
    None for a flow document."""

    def __init__(self, name, manifold, kind, expected, presentation,
                 morse=None, notes=""):
        self.name = name
        self.manifold = manifold
        self.kind = kind
        self.expected = expected
        self.presentation = presentation
        self.morse = morse
        self.notes = notes


def data_dir():
    return resources.files(__package__) / "data"


def entry_names():
    return sorted(p.name[:-len(".json")] for p in data_dir().iterdir()
                  if p.name.endswith(".json"))


def load_entry(name):
    """The shipped file `name`.json, read by schema.presentation_from_file.
    Raises SchemaError for a document the command line refuses."""
    with resources.as_file(data_dir() / f"{name}.json") as path:
        fp, md, doc = presentation_from_file(str(path))
        expected = expected_from_doc(doc, where=str(path)) or {}
    return CorpusEntry(
        name=doc.get("name", name),
        manifold=doc.get("manifold", ""),
        kind=doc.get("kind", "flow"),
        expected=expected,
        presentation=fp,
        morse=md,
        notes=doc.get("notes", ""),
    )


def load_entries():
    return [load_entry(name) for name in entry_names()]

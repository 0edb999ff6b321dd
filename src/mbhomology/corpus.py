"""Worked examples shipped as flow-presentation files, with expected
homology, plus the independence checks across presentations of the same
manifold."""

from importlib import resources

from .chain import HomologyGroup
from .flowdata import build_multicomplex
from .pipeline import compare_tables, expected_mismatches, homology_table
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

    def build(self):
        """The multicomplex, not yet validated: homology_table does that.
        The reader and the build are the command line's (cli._load)."""
        return build_multicomplex(self.presentation, check=False)


class EntryReport:
    def __init__(self, name, built, diagnostics="", table=None,
                 mismatches=None):
        self.name = name
        self.built = built
        self.diagnostics = diagnostics
        self.table = [] if table is None else table
        self.mismatches = [] if mismatches is None else mismatches

    @property
    def ok(self):
        return self.built and not self.mismatches


class IndependenceReport:
    def __init__(self, groups, comparisons):
        self.groups = groups
        self.comparisons = comparisons

    @property
    def ok(self):
        return all(iso for (_, _, iso) in self.comparisons)


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
        expected={k: HomologyGroup(b, t) for k, (b, t) in expected.items()},
        presentation=fp,
        morse=md,
        notes=doc.get("notes", ""),
    )


def load_entries():
    return [load_entry(name) for name in entry_names()]


def run_entry(entry):
    """Build, compute the table, and compare degree by degree."""
    try:
        table = homology_table(entry.build())
    except ValueError as err:
        return EntryReport(name=entry.name, built=False,
                           diagnostics=str(err))
    mismatches = expected_mismatches(dict(enumerate(table)), entry.expected)
    return EntryReport(name=entry.name, built=True, table=table,
                       mismatches=mismatches)


def independence_suite(entries=None):
    """Pairwise homology comparison within each manifold group.

    The homology of a presentation must not depend on the choice of
    function or finite model, so all tables in a group must agree in
    degrees up to the ambient dimension.
    """
    if entries is None:
        entries = load_entries()
    groups = {}
    for entry in entries:
        groups.setdefault(entry.manifold or entry.name, []).append(entry)
    comparisons = []
    for manifold in sorted(groups):
        members = groups[manifold]
        tables = {}
        for entry in members:
            mc = entry.build()
            tables[entry.name] = homology_table(
                mc, range(0, mc.ambient_dim + 1))
        names = sorted(tables)
        for a_pos in range(len(names)):
            for b_pos in range(a_pos + 1, len(names)):
                a, b = names[a_pos], names[b_pos]
                iso = all(same for *_, same in
                          compare_tables(tables[a], tables[b]))
                comparisons.append((a, b, iso))
    return IndependenceReport(
        groups={m: [e.name for e in members]
                for m, members in groups.items()},
        comparisons=comparisons,
    )

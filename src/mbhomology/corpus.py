"""Worked examples shipped as flow and Morse documents, with expected
homology.  The commands check them: `mbhomology homology FILE` against
each file's expected table, and `mbhomology compare A B` across
presentations of the same manifold.  A file is read as every command
reads it, by schema.presentation_from_file and schema.expected_from_doc."""

from importlib import resources


def data_dir():
    return resources.files(__package__) / "data"


def entry_names():
    return sorted(p.name[:-len(".json")] for p in data_dir().iterdir()
                  if p.name.endswith(".json"))

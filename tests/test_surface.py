"""The names the package exports and what importing the command line
loads: a change to either is a change to the library's public surface or
to the cost of every command, and should be made on purpose."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mbhomology

PUBLIC = {
    # exactalg
    "IntMatrix", "SmithDecomposition", "snf",
    # chain
    "ChainComplex", "HomologyGroup", "validate_complex", "homology_at",
    # simplicial
    "SimplicialComplexData", "SimplicialMap", "NoFundamentalCycle",
    "CoveringError", "chain_complex_of", "fundamental_cycle",
    # multicomplex and pipeline
    "MBSMulticomplex", "MulticomplexReport", "InvalidMulticomplex",
    "validate_multicomplex", "totalize", "homology_table",
    # flowdata
    "CritModel", "ModuliComponentModel", "FlowPresentation",
    "build_multicomplex", "morse_to_flow",
    # morse
    "MorseData", "InvalidMorseData", "morse_complex",
}


SRC = Path(mbhomology.__file__).parent.parent


def test_public_names():
    assert set(mbhomology.__all__) == PUBLIC
    for name in PUBLIC:
        assert not isinstance(getattr(mbhomology, name), types.ModuleType)
    assert PUBLIC <= set(dir(mbhomology))
    with pytest.raises(AttributeError, match="no_such_name"):
        mbhomology.no_such_name


def test_only_schema_reads_documents():
    # schema.presentation_from_file is the one reader that tells a Morse
    # document from a flow one; a second copy elsewhere would drift from it
    readers = {"morse_from_doc", "presentation_from_doc",
               "column_cap_from_doc", "morse_to_flow"}
    calls = set()
    for path in sorted((SRC / "mbhomology").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or \
                    getattr(node.func, "attr", None)
                if name in readers:
                    calls.add((path.stem, name))
    assert {module for module, _ in calls} == {"schema"}, sorted(calls)
    assert {name for _, name in calls} == readers


def test_cap_stays_in_the_reader():
    # the column cap is a document check, made by the schema reader alone;
    # the multicomplex keeps only a read-only column_cap property for the
    # benchmark's grid_yield probe.  Point names are the presentation's,
    # and no module keeps a copy as row labels.
    used = set()
    for path in sorted((SRC / "mbhomology").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        probe = {id(node) for cls in tree.body
                 if isinstance(cls, ast.ClassDef)
                 and cls.name == "MBSMulticomplex"
                 for node in cls.body
                 if getattr(node, "name", None) == "column_cap"}
        for node in ast.walk(tree):
            names = {getattr(node, field, None)
                     for field in ("id", "attr", "arg", "name", "value")}
            if id(node) not in probe:
                used |= {(path.stem, name) for name in
                         names & {"column_cap", "row_labels"}}
    assert {module for module, name in used if name == "column_cap"} == \
        {"schema"}, sorted(used)
    assert not {module for module, name in used if name == "row_labels"}


def test_corpus_is_read_not_run():
    # the shipped examples are data that the commands read and check; the
    # module only says where they are, so it imports nothing of the package
    tree = ast.parse((SRC / "mbhomology" / "corpus.py").read_text("utf-8"))
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    assert not relative, sorted(relative)


# Defined in src/ and read nowhere in it, on purpose: the package's lazy
# attribute hooks and the corpus's data API, which the scripts read.
UNREAD = {("__init__", "__getattr__"), ("__init__", "__dir__"),
          ("corpus", "entry_names")}

# Methods that no command, benchmark or script reads, kept for the
# doctests, each with what reads it.  Other test references are functions
# in tests/support.py.
TEST_HELPERS = {
    ("IntMatrix", "from_rows"): "doctests and tests write matrices by rows",
}


def attributes_read(*directories):
    """Every attribute name read in the Python files of `directories`."""
    return {node.attr for directory in directories
            for path in sorted(directory.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text("utf-8")))
            if isinstance(node, ast.Attribute)}


def test_program_names_are_read():
    # a top-level function or class that only tests or scripts call belongs
    # with them: src/ holds the program, and what it exports (_HOME)
    defined, read, methods = set(), set(), set()
    for path in sorted((SRC / "mbhomology").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        methods |= {(cls.name, node.name) for cls in tree.body
                    if isinstance(cls, ast.ClassDef) for node in cls.body
                    if isinstance(node, ast.FunctionDef)
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    unread = {(module, name) for module, name in defined
              if name not in read and name not in mbhomology._HOME}
    assert unread <= UNREAD, sorted(unread - UNREAD)
    # a method or property is a second way to read its object unless the
    # program, the benchmark or a script reads it as an attribute
    repo = SRC.parent
    read = attributes_read(SRC / "mbhomology", repo / "perfbench",
                           repo / "scripts")
    unread = {(cls, name) for cls, name in methods if name not in read}
    assert unread == set(TEST_HELPERS), sorted(unread ^ set(TEST_HELPERS))


# Imported by a module that never reads them: the three loaders stay on
# mbhomology.cli because the benchmark's tracer finds them there.
REEXPORTS = {("cli", "load_document"), ("cli", "morse_from_doc"),
             ("cli", "presentation_from_doc")}


def test_no_unused_top_level_import():
    # a top-level import that nothing in its module reads costs every
    # process that loads the module, and outlives the code that needed it
    unused = set()
    for path in sorted((SRC / "mbhomology").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0]
                          for a in node.names}
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in bound - read}
    assert unused <= REEXPORTS, sorted(unused - REEXPORTS)


# Runs in a fresh interpreter: prints the modules that importing the
# command line and one call of COMMAND loaded, minus those loaded before.
LOADED = """
import io, sys
from contextlib import redirect_stdout
before = set(sys.modules)
import mbhomology.cli
with redirect_stdout(io.StringIO()):
    code = mbhomology.cli.main([sys.argv[1], sys.argv[2]])
print(code, *sorted(set(sys.modules) - before))
"""


def loaded_by(command, name):
    path = str(SRC / "mbhomology" / "data" / name)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", LOADED, command, path],
                          env=env, capture_output=True, text=True,
                          check=True)
    code, *modules = done.stdout.split()
    return int(code), set(modules)


def test_homology_loads_neither_morse_nor_dataclasses():
    code, modules = loaded_by("homology", "t2-height.json")
    assert code == 0
    assert "mbhomology.cli" in modules
    assert not modules & {"mbhomology.morse", "mbhomology.corpus",
                          "dataclasses"}


def test_morse_imports_its_module_when_it_runs():
    code, modules = loaded_by("morse", "t2-morse-4pt.json")
    assert code == 0
    assert "mbhomology.morse" in modules

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
    "ChainComplex", "ChainMap", "HomologyGroup", "validate_complex",
    "homology_at", "mapping_cone", "quasi_iso",
    # simplicial
    "SimplicialComplexData", "SimplicialMap", "OrientedCycle",
    "NoFundamentalCycle", "CoveringError", "chain_complex_of",
    "fundamental_cycle", "pushforward",
    # multicomplex and pipeline
    "MBSMulticomplex", "MulticomplexReport", "InvalidMulticomplex",
    "validate_multicomplex", "totalize", "homology_table",
    # flowdata
    "CritModel", "ModuliComponentModel", "FlowPresentation", "FlowDataError",
    "build_multicomplex", "morse_to_flow", "default_column_cap",
    # morse
    "MorseData", "InvalidMorseData", "morse_complex", "phi_chain_map",
    "verify_morse_mb",
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

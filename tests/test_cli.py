import argparse
import errno
import json
import os
import subprocess
import sys
import types
from collections import OrderedDict
from enum import IntEnum
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mbhomology
from mbhomology import chain, cli, schema
from mbhomology.chain import HomologyGroup
from mbhomology.cli import EXIT_INPUT, EXIT_OK, EXIT_SEMANTIC, main
from mbhomology.schema import (
    canonical_json,
    morse_from_doc,
    presentation_from_doc,
)
from mbhomology.corpus import data_dir, entry_names
from mbhomology.flowdata import morse_to_flow

from support import (
    formed_faces,
    linear_twists,
    load_file,
    twist_doc,
    wang_table,
)

# the document writers; the program only reads documents
WRITERS = load_file("scripts/make_corpus.py")


def corpus_path(name):
    return str(data_dir() / f"{name}.json")


def write_doc(tmp_path, doc, name="input.json"):
    path = tmp_path / name
    path.write_text(canonical_json(doc), "utf-8")
    return str(path)


def load_corpus_doc(name):
    return json.loads((data_dir() / f"{name}.json").read_text("utf-8"))


class TestValidate:
    def test_corpus_file_valid(self, capsys):
        assert main(["validate", corpus_path("s2-z2")]) == EXIT_OK
        assert "valid" in capsys.readouterr().out

    def test_sign_flip_fails_at_j2(self, tmp_path, capsys):
        doc = load_corpus_doc("t2-deformed")
        arc = next(c for c in doc["moduli"]
                   if c["from"] == 2 and c["to"] == 0)
        arc["sign"] = -arc["sign"]
        path = write_doc(tmp_path, doc)
        assert main(["validate", path]) == EXIT_SEMANTIC
        captured = capsys.readouterr()
        assert captured.out == (
            "multicomplex: INVALID\n"
            "  anticommutation fails for j=2 at (p=0, i=2); "
            "residual [[0, 0], [-2, 0], [2, 0], [0, 0]]\n")
        assert captured.err == ""

    def test_json_report(self, tmp_path, capsys):
        doc = load_corpus_doc("t2-deformed")
        doc["moduli"][-1]["sign"] *= -1
        path = write_doc(tmp_path, doc)
        assert main(["validate", path, "--json"]) == EXIT_SEMANTIC
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any(f["j"] == 2 for f in report["identity_failures"])

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", "utf-8")
        assert main(["validate", str(path)]) == EXIT_INPUT
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [1000, 10000])
    def test_deep_nesting_is_refused(self, tmp_path, capsys, depth):
        # `dim` as `depth` nested lists: json.load gives up on the depth,
        # and the document is refused by name, with no traceback
        doc = load_corpus_doc("s2-constant")
        doc["dim"] = "nested"
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc).replace(
            '"nested"', "[" * depth + "]" * depth), "utf-8")
        assert main(["homology", str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: {path}: document nested too "
                                "deeply\n")

    def test_unreadable_file(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        assert main(["validate", path]) == EXIT_INPUT
        assert capsys.readouterr() == ("", (
            f"input error: {path}: [Errno {errno.ENOENT}] "
            f"{os.strerror(errno.ENOENT)}: '{path}'\n"))

    def test_top_level_not_an_object(self, tmp_path, capsys):
        path = write_doc(tmp_path, [1, 2])
        assert main(["homology", path]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"input error: {path}: top level must be an object\n")

    def test_wrong_schema_version(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"schema": 99})
        assert main(["validate", path]) == EXIT_INPUT

    def test_morse_file_accepted(self):
        assert main(["validate", corpus_path("t2-morse-4pt")]) == EXIT_OK


class TestHomology:
    def test_torus_height_line(self, capsys):
        assert main(["homology", corpus_path("t2-height")]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.startswith("HB_0=Z, HB_1=Z^2, HB_2=Z")

    def test_z2_line(self, capsys):
        assert main(["homology", corpus_path("s2-z2")]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "HB_0=Z, HB_1=0, HB_2=Z"

    def test_degrees_beyond_dim_vanish(self, capsys):
        assert main(["homology", corpus_path("s2-z2"),
                     "--degrees", "0..5"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert out.endswith("HB_3=0, HB_4=0, HB_5=0")

    def test_json_flags_truncation_sensitivity(self, capsys):
        assert main(["homology", corpus_path("s2-z2"), "--degrees", "0..3",
                     "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        flags = {entry["degree"]: entry.get("truncation_sensitive", False)
                 for entry in report["homology"]}
        assert flags == {0: False, 1: False, 2: False, 3: True}

    def test_expected_mismatch_fails(self, tmp_path, capsys):
        doc = load_corpus_doc("s2-z2")
        doc["expected"][0]["betti"] = 7
        path = write_doc(tmp_path, doc)
        assert main(["homology", path]) == EXIT_SEMANTIC
        assert "degree 0" in capsys.readouterr().err

    def test_expected_match_passes(self):
        assert main(["homology", corpus_path("t2-deformed")]) == EXIT_OK

    def test_invalid_presentation_reports_validator(self, tmp_path, capsys):
        doc = load_corpus_doc("t2-deformed")
        doc["moduli"][-1]["sign"] *= -1
        path = write_doc(tmp_path, doc)
        assert main(["homology", path]) == EXIT_SEMANTIC
        assert "INVALID" in capsys.readouterr().err


class TestMorse:
    def test_torus_report(self, capsys):
        assert main(["morse", corpus_path("t2-morse-4pt")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "chain map: exact; quasi-isomorphism: yes" in out
        assert "HM_0=Z, HM_1=Z^2, HM_2=Z" in out

    def test_sphere_report(self, capsys):
        assert main(["morse", corpus_path("s2-morse-2pt")]) == EXIT_OK
        assert main(["morse", corpus_path("s2-morse-4pt")]) == EXIT_OK

    def test_nonsquaring_rejected(self, tmp_path, capsys):
        # counts with d o d != 0 fail the validation of the build
        path = write_doc(tmp_path, nonsquaring_morse_doc())
        assert main(["morse", path]) == EXIT_SEMANTIC
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("multicomplex: INVALID\n")

    @pytest.mark.parametrize("flags", [[], ["--json"]])
    def test_nonsquaring_reported_as_homology_reports_it(self, tmp_path,
                                                         capsys, flags):
        # `morse` reports invalid counts with the validation report that
        # `validate` and `homology` give, as text and as JSON
        path = write_doc(tmp_path, nonsquaring_morse_doc())
        calls = {}
        for command in ("morse", "homology"):
            code = main([command, path, *flags])
            calls[command] = (code, *capsys.readouterr())
        assert calls["morse"] == calls["homology"]
        assert calls["morse"][:2] == (EXIT_SEMANTIC, "")

    def test_flow_file_rejected(self, capsys):
        path = corpus_path("s2-z2")
        assert main(["morse", path]) == EXIT_INPUT
        assert capsys.readouterr().err == \
            f"input error: {path}: expected a morse document\n"

    @pytest.mark.parametrize("change, where", [
        (lambda doc: doc["moduli"][0].update(sign="1"),
         ".moduli[0]: key 'sign' has type str"),
        (lambda doc: doc.update(kind="nosuch"), ": unknown kind 'nosuch'"),
    ])
    def test_other_documents_are_read_before_refusal(self, tmp_path, capsys,
                                                     change, where):
        # a malformed document of another kind gets the reader's message,
        # which names its JSON path, as under every other command
        doc = load_corpus_doc("s2-z2")
        change(doc)
        path = write_doc(tmp_path, doc)
        assert main(["morse", path]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: {path}{where}\n"


def same_manifold_pairs():
    """Every two shipped files of one manifold, in name order."""
    groups = {}
    for name in entry_names():
        groups.setdefault(load_corpus_doc(name)["manifold"], []).append(name)
    return [pair for names in groups.values()
            for pair in combinations(names, 2)]


SAME_MANIFOLD = same_manifold_pairs()


class TestCompare:
    def test_every_pair_of_one_manifold_is_listed(self):
        # six s2 files and three t2 files
        assert len(SAME_MANIFOLD) == 15 + 3

    @pytest.mark.parametrize("a, b", SAME_MANIFOLD)
    def test_same_manifold_isomorphic(self, capsys, a, b):
        # the homology does not depend on the presentation
        assert main(["compare", corpus_path(a), corpus_path(b),
                     "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["isomorphic"] is True

    def test_two_sphere_presentations(self, capsys):
        assert main(["compare", corpus_path("s2-z2"),
                     corpus_path("s2-minus-z2")]) == EXIT_OK
        assert "comparison: isomorphic" in capsys.readouterr().out

    def test_torus_presentations(self):
        assert main(["compare", corpus_path("t2-height"),
                     corpus_path("t2-deformed")]) == EXIT_OK

    def test_sphere_vs_torus_differ(self, capsys):
        assert main(["compare", corpus_path("s2-z2"),
                     corpus_path("t2-height")]) == EXIT_SEMANTIC
        out = capsys.readouterr().out
        assert "degree 1" in out and "NOT isomorphic" in out

    def test_json_report(self, capsys):
        assert main(["compare", corpus_path("s2-z2"),
                     corpus_path("s2-round"), "--json"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["isomorphic"] is True
        assert len(report["comparisons"]) == 3


class TestRoundTrip:
    SEMANTIC_KEYS = {"schema", "kind", "dim", "critical", "moduli",
                     "column_cap", "counts"}

    @pytest.mark.parametrize("name", [
        "s2-constant", "s2-z2", "s2-minus-z2", "s2-round",
        "t2-height", "t2-deformed",
    ])
    def test_flow_files(self, name):
        raw = (data_dir() / f"{name}.json").read_text("utf-8")
        doc = json.loads(raw)
        fp = presentation_from_doc(doc)
        meta = {k: v for k, v in doc.items() if k not in self.SEMANTIC_KEYS}
        assert canonical_json(WRITERS.presentation_to_doc(fp, meta)) == raw

    @pytest.mark.parametrize("name", [
        "s2-morse-2pt", "s2-morse-4pt", "t2-morse-4pt",
    ])
    def test_morse_files(self, name):
        raw = (data_dir() / f"{name}.json").read_text("utf-8")
        doc = json.loads(raw)
        md = morse_from_doc(doc)
        meta = {k: v for k, v in doc.items() if k not in self.SEMANTIC_KEYS}
        assert canonical_json(WRITERS.morse_to_doc(md, meta)) == raw

    def test_multiplicity_is_not_dropped(self):
        # a flow document has no multiplicity field, so a component of
        # multiplicity 2 cannot be written without changing its meaning
        md = morse_from_doc({"critical": {"0": ["m"], "1": ["s"]},
                             "counts": [["s", "m", 2]]})
        with pytest.raises(ValueError, match="multiplicity 2"):
            WRITERS.presentation_to_doc(morse_to_flow(md))


# keys with the characters json escapes or keeps as they are
KEYS = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),
                         st.characters()), max_size=5)
SCALARS = st.one_of(st.integers(), st.integers(-10 ** 40, 10 ** 40),
                    st.booleans(), st.none(), st.floats(), KEYS)
VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(KEYS, inner, max_size=4)), max_leaves=20)


def dumped(value):
    return json.dumps(value, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


class Degree(IntEnum):
    TOP = 2


class TestCanonicalJson:
    """`canonical_json` writes the bytes of `json.dumps` with sorted keys,
    an indent of 2 and no ASCII escaping, and a newline."""

    @settings(derandomize=True, max_examples=300, deadline=None,
              database=None)
    @given(VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        assert canonical_json(value) == dumped(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), "", 0, -(10 ** 30), True, None, float("nan"),
        Degree.TOP, [Degree.TOP, {"k": Degree.TOP}],
        OrderedDict([("b", 1), ("a", [])]),
        {"outer": OrderedDict([("z", [1, {"y": ()}]), ("a", {})])},
        {"x": [OrderedDict(), {"\u00e9\n\"": [True, False, 1.5]}]},
        {"ints": {1: "a", 2: "b"}, "s": "\u2028\x00"},
    ])
    def test_subclasses_and_edges(self, value):
        assert canonical_json(value) == dumped(value)


class TestReportCost:
    """The report costs what it prints: no table is formatted as text
    under --json, and equal groups share one object."""

    @pytest.mark.parametrize("argv", [
        ["homology", "s2-z2"], ["morse", "t2-morse-4pt"],
        ["compare", "s2-constant", "s2-round"],
    ])
    def test_json_formats_no_group_as_text(self, monkeypatch, capsys, argv):
        args = [argv[0], *map(corpus_path, argv[1:]), "--json"]
        assert main(args) == EXIT_OK
        printed = capsys.readouterr().out

        def refused(group):
            raise AssertionError(f"{group!r} was formatted as text")

        monkeypatch.setattr(HomologyGroup, "__str__", refused)
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == printed

    def test_groups_do_not_grow_with_dim(self, tmp_path, monkeypatch):
        made = []

        def counted(*args, **kwargs):
            made.append(HomologyGroup(*args, **kwargs))
            return made[-1]

        def groups_built(dim):
            doc = load_corpus_doc("s2-round")
            doc["dim"] = dim
            made.clear()
            assert main(["homology", write_doc(tmp_path, doc)]) == EXIT_OK
            return len(made)

        monkeypatch.setattr(chain, "HomologyGroup", counted)
        # Z in degrees 0 and 2, 0 everywhere else
        assert groups_built(2) == groups_built(55) == 2


class TestLinearTwists:
    """`homology --json` on the mapping torus of each of the 12 linear
    automorphisms of the grid torus, against the Wang table that sympy
    computes from the 2x2 matrix alone (support.wang_table)."""

    def test_family(self):
        twists = linear_twists()
        assert len(twists) == 12
        swap = ((0, 1), (1, 0))
        assert swap in twists
        bott_twist = load_file("perfbench/workloads.py").BOTT_TWIST
        assert wang_table(swap) == list(bott_twist)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("phi", linear_twists())
    def test_homology_is_the_wang_table(self, tmp_path, capsys, phi, n):
        path = write_doc(tmp_path, twist_doc(n, phi))
        assert main(["homology", path, "--json"]) == EXIT_OK
        groups = json.loads(capsys.readouterr().out)["homology"]
        assert [(g["betti"], tuple(g["torsion"])) for g in groups] == \
            wang_table(phi)


def ambient_dim(doc):
    if doc["kind"] == "morse":
        return max(int(k) for k in doc["critical"])
    return doc["dim"]


class TestHomologyBytes:
    """`homology --json` output, rebuilt from each file's expected list."""

    @pytest.mark.parametrize("all_expected", [False, True])
    @pytest.mark.parametrize("name", sorted(
        p.name[:-len(".json")] for p in data_dir().iterdir()
        if p.name.endswith(".json")))
    def test_corpus_file(self, name, all_expected, capsys):
        doc = load_corpus_doc(name)
        dim = ambient_dim(doc)
        top = max(e["degree"] for e in doc["expected"]) if all_expected \
            else dim
        entries = []
        for e in sorted(doc["expected"], key=lambda e: e["degree"]):
            if e["degree"] <= top:
                entry = {"degree": e["degree"], "betti": e["betti"],
                         "torsion": e.get("torsion", [])}
                if e["degree"] > dim:
                    entry["truncation_sensitive"] = True
                entries.append(entry)
        assert [e["degree"] for e in entries] == list(range(top + 1))
        want = json.dumps({"valid": True, "homology": entries,
                           "expected_match": True, "mismatches": []},
                          sort_keys=True, indent=2, ensure_ascii=False) + "\n"
        argv = ["homology", corpus_path(name), "--json"]
        if all_expected:
            argv += ["--degrees", f"0..{top}"]
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == want
        assert captured.err == ""


class TestColumnCap:
    """A larger `column_cap` adds nothing that a command reads."""

    @pytest.mark.parametrize("name", entry_names())
    def test_same_output_at_every_cap(self, name, tmp_path, capsys):
        doc = load_corpus_doc(name)
        path = tmp_path / f"{name}.json"
        first = None
        for cap in (None, 2000, 20000):  # None: the default cap
            if cap is not None:
                doc["column_cap"] = cap
            path.write_text(canonical_json(doc), "utf-8")
            runs = []
            for command in ("validate", "homology", "morse"):
                for extra in ([], ["--json"]):
                    code = main([command, str(path), *extra])
                    runs.append((command, extra, code, capsys.readouterr()))
            first = first or runs
            assert runs == first, cap


def branching_domain_doc():
    """A moduli domain with three edges on one vertex: no fundamental
    cycle exists."""
    doc = load_corpus_doc("s2-z2")
    doc["moduli"][0].update({
        "domain": {"vertices": 4, "simplices": [[0], [1], [2], [3], [0, 1],
                                                [0, 2], [0, 3]]},
        "ev_minus": [0, 0, 0, 0],
        "ev_plus": [0, 1, 2, 1],
    })
    return doc


def non_covering_doc():
    """A circle source whose ev_minus collapses an edge."""
    circle = {"vertices": 3, "simplices": [[0], [1], [2], [0, 1], [0, 2],
                                           [1, 2]]}
    return {
        "schema": 1,
        "kind": "flow",
        "dim": 2,
        "critical": [
            {"index": 0, "kind": "points", "names": ["a"]},
            {"index": 1, "kind": "simplicial", "complex": circle},
        ],
        "moduli": [{"from": 1, "to": 0, "domain": circle,
                    "ev_minus": [0, 1, 1], "ev_plus": [0, 0, 0],
                    "sign": 1}],
    }


class TestErrorExitCodes:
    """Every command maps a load or build error to the same exit code."""

    @pytest.mark.parametrize("command", ["validate", "homology", "compare"])
    @pytest.mark.parametrize("make_doc, code, prefix", [
        (branching_domain_doc, EXIT_INPUT, "input error: "),
        (non_covering_doc, EXIT_SEMANTIC, "inconsistent flow data: "),
    ])
    def test_same_code_for_every_command(self, tmp_path, capsys, command,
                                         make_doc, code, prefix):
        path = write_doc(tmp_path, make_doc())
        argv = [command, path]
        if command == "compare":
            argv = [command, corpus_path("s2-z2"), path]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        # the reader names the component by its path, the build by the file
        where = ".moduli[0]: " if code == EXIT_INPUT else ": "
        assert captured.err.startswith(f"{prefix}{path}{where}")

    @pytest.mark.parametrize("command", ["validate", "homology", "compare"])
    def test_model_too_big_for_dim(self, tmp_path, capsys, command):
        # a 5-sphere at index 1 of a 1-dimensional presentation: before the
        # presentation refused it, the builder stored d[1] outside the grid.
        # Its listed 5-simplices are refused before the closure, by path
        sphere = {"vertices": 7, "simplices": [
            [v for v in range(7) if v != gone] for gone in range(7)]}
        path = write_doc(tmp_path, {
            "schema": 1,
            "kind": "flow",
            "dim": 1,
            "critical": [
                {"index": 0, "kind": "points", "names": ["a"]},
                {"index": 1, "kind": "simplicial", "complex": sphere},
            ],
            "moduli": [{"from": 1, "to": 0, "domain": sphere,
                        "ev_minus": list(range(7)), "ev_plus": [0] * 7,
                        "sign": 1}],
        })
        argv = [command, path]
        if command == "compare":
            argv = [command, corpus_path("s2-z2"), path]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: {path}.critical[1].complex."
                                "simplices[0] has dimension 5, above dim 1\n")

    @pytest.mark.parametrize("command", ["validate", "homology", "compare"])
    def test_model_too_big_for_its_index(self, tmp_path, capsys, command):
        # a circle at index 1 of a 1-dimensional presentation: each simplex
        # fits in dim, but the model does not fit in dim - index
        circle = {"vertices": 3, "simplices": [[0], [1], [2], [0, 1],
                                               [0, 2], [1, 2]]}
        path = write_doc(tmp_path, {
            "schema": 1,
            "kind": "flow",
            "dim": 1,
            "critical": [
                {"index": 0, "kind": "points", "names": ["a"]},
                {"index": 1, "kind": "simplicial", "complex": circle},
            ],
            "moduli": [{"from": 1, "to": 0, "domain": circle,
                        "ev_minus": [0, 1, 2], "ev_plus": [0] * 3,
                        "sign": 1}],
        })
        argv = [command, path]
        if command == "compare":
            argv = [command, corpus_path("s2-z2"), path]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: {path}.critical[1]: model "
                                "of dimension 1 exceeds dim - index = 0\n")

    @pytest.mark.parametrize("command, name", [
        ("validate", "s2-z2"), ("homology", "s2-z2"), ("compare", "s2-z2"),
        ("morse", "t2-morse-4pt")])
    def test_every_command_reads_expected(self, tmp_path, capsys, command,
                                          name):
        doc = load_corpus_doc(name)
        doc["expected"] = 5
        path = write_doc(tmp_path, doc)
        argv = [command, path]
        if command == "compare":
            argv = [command, corpus_path(name), path]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"input error: {path}: key 'expected' has type int\n"

    @pytest.mark.parametrize("degrees", [
        "1..x", "..", "x", "3..1", "0..1_0", " 1", "+1", "\u0662", "1..\u0662",
        "1 ", "1..", "..1", "0...1", "1\n"])
    def test_bad_degrees_blame_the_option(self, capsys, degrees):
        argv = ["homology", corpus_path("s2-z2"), "--degrees", degrees]
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("input error: --degrees: expected K or A..B, "
                                f"got {degrees!r}\n")


def set_key(key, value):
    return lambda doc: doc.__setitem__(key, value)


def set_in(locate, key, value):
    return lambda doc: locate(doc).__setitem__(key, value)


def all_true(locate, key):
    return lambda doc: locate(doc).__setitem__(
        key, [True] * len(locate(doc)[key]))


def first_component(doc):
    return doc["moduli"][0]


def domain_edge(vertex):
    """Replace the first edge [0, 1] of the first moduli domain by
    [0, vertex]."""
    def change(doc):
        simplices = first_component(doc)["domain"]["simplices"]
        simplices[simplices.index([0, 1])] = [0, vertex]
    return change


def point_domain(simplices):
    """Give the first moduli component of s2-z2, a point source onto the
    circle, a four-vertex domain of the listed simplices."""
    def change(doc):
        first_component(doc).update(
            domain={"vertices": 4, "simplices": simplices},
            ev_minus=[0, 0, 0, 0], ev_plus=[0, 1, 2, 0])
    return change


def add_critical(entry):
    return lambda doc: doc["critical"].append(entry)


def two_circles_over_two_points(doc):
    """Make the first component of s2-z2 two circles, one over each point
    of its source: each lies over a single point, the component does not."""
    first_component(doc).update(
        domain={"vertices": 6, "simplices": [
            [0], [1], [2], [3], [4], [5], [0, 1], [0, 2], [1, 2], [3, 4],
            [3, 5], [4, 5]]},
        ev_minus=[0, 0, 0, 1, 1, 1], ev_plus=[0, 1, 2, 0, 1, 2])


def disk_over_circle_drop_two():
    """A disk from a circle at index 2 to a point at index 0 of a `dim` 3
    document: a positive-dimensional source that drops the index by two."""
    circle = [[0], [1], [2], [0, 1], [0, 2], [1, 2]]
    return {"schema": 1, "kind": "flow", "dim": 3, "critical": [
        {"index": 0, "kind": "points", "names": ["a"]},
        {"index": 2, "kind": "simplicial",
         "complex": {"vertices": 3, "simplices": circle}}], "moduli": [
        {"from": 2, "to": 0,
         "domain": {"vertices": 3, "simplices": circle + [[0, 1, 2]]},
         "ev_minus": [0, 0, 1], "ev_plus": [0, 0, 0], "sign": 1}]}


def replace_doc(new):
    """Replace the whole document by `new`."""
    def change(doc):
        doc.clear()
        doc.update(json.loads(json.dumps(new)))
    return change


def unbounded_cost_doc(listing):
    """A `dim` 40 document whose one critical model lists `listing` on 16
    vertices: closing one simplex on all 16 made 2^16 - 1 faces."""
    return {"schema": 1, "kind": "flow", "dim": 40, "critical": [
        {"index": 0, "kind": "simplicial",
         "complex": {"vertices": 16, "simplices": listing}}], "moduli": []}


SIMPLEX_16 = [list(range(16))]
FACETS_16 = [list(s) for s in combinations(range(16), 15)]


# (command, corpus file, change, error text after the file name)
MALFORMED = {
    "moduli-not-a-list": (
        "homology", "s2-z2", set_key("moduli", 5),
        ": key 'moduli' has type int"),
    "expected-not-a-list": (
        "homology", "s2-z2", set_key("expected", 5),
        ": key 'expected' has type int"),
    "column-cap-string": (
        "homology", "s2-z2", set_key("column_cap", "4"),
        ": key 'column_cap' has type str"),
    "critical-entry-not-an-object": (
        "homology", "s2-z2", set_key("critical", [5]),
        ".critical[0]: expected an object, got int"),
    "expected-entry-not-an-object": (
        "homology", "s2-z2", set_key("expected", [5]),
        ".expected[0]: expected an object, got int"),
    "expected-degree-twice": (
        "homology", "s2-z2", set_key("expected", [{"degree": 0, "betti": 7},
                                                  {"degree": 0, "betti": 1}]),
        ".expected[1]: degree 0 is given twice"),
    "expected-torsion-not-a-list": (
        "homology", "s2-z2", set_in(lambda d: d["expected"][0], "torsion", 5),
        ".expected[0]: key 'torsion' has type int"),
    "sign-bool": (
        "homology", "s2-z2", set_in(lambda d: d["moduli"][0], "sign", True),
        ".moduli[0]: key 'sign' has type bool"),
    "dim-bool": (
        "homology", "s2-z2", set_key("dim", True),
        ": key 'dim' has type bool"),
    "morse-critical-not-a-list": (
        "morse", "t2-morse-4pt", set_in(lambda d: d["critical"], "0", 5),
        ".critical: key '0' has type int"),
    "morse-counts-not-a-list": (
        "morse", "t2-morse-4pt", set_key("counts", 5),
        ": key 'counts' has type int"),
    "morse-column-cap-string": (
        "morse", "t2-morse-4pt", set_key("column_cap", "4"),
        ": key 'column_cap' has type str"),
    "ev-minus-bools": (
        "validate", "s2-z2", all_true(first_component, "ev_minus"),
        ".moduli[0].ev_minus[0] has type bool"),
    "ev-plus-string": (
        "homology", "s2-z2", set_in(first_component, "ev_plus", ["0"]),
        ".moduli[0].ev_plus[0] has type str"),
    "ev-minus-missing": (
        "homology", "s2-z2", lambda doc: first_component(doc).pop("ev_minus"),
        ".moduli[0]: missing key 'ev_minus'"),
    "expected-torsion-string": (
        "homology", "s2-z2",
        set_in(lambda d: d["expected"][0], "torsion", ["a"]),
        ".expected[0].torsion[0] has type str"),
    "names-not-strings": (
        "homology", "s2-z2", set_in(lambda d: d["critical"][1], "names",
                                    ["n", ["s"]]),
        ".critical[1].names[1] has type list"),
    "simplex-not-a-list": (
        "homology", "s2-z2",
        lambda doc: doc["critical"][0]["complex"]["simplices"].__setitem__(
            0, 5),
        ".critical[0].complex.simplices[0] has type int"),
    "simplex-vertex-bool": (
        "homology", "s2-z2",
        lambda doc: first_component(doc)["domain"]["simplices"].__setitem__(
            0, [True]),
        ".moduli[0].domain.simplices[0][0] has type bool"),
    "later-simplex-vertex-float": (
        "homology", "s2-constant",
        lambda doc: doc["critical"][0]["complex"]["simplices"].__setitem__(
            12, [0, 2, 2.5]),
        ".critical[0].complex.simplices[12][2] has type float"),
    "ev-plus-fourth-string": (
        "homology", "s2-z2",
        set_in(lambda d: d["moduli"][1], "ev_plus", [0, 1, 2, "3"]),
        ".moduli[1].ev_plus[3] has type str"),
    "names-third-int": (
        "homology", "s2-z2", set_in(lambda d: d["critical"][1], "names",
                                    ["n", "s", 3]),
        ".critical[1].names[2] has type int"),
    # an expected group is refused unless it is a group: no negative
    # degree or Betti number, torsion as invariant factors
    "expected-degree-negative": (
        "homology", "s2-round", set_key("expected", [{"degree": -1,
                                                     "betti": 5}]),
        ".expected[0]: degree -1 is negative"),
    "expected-betti-negative": (
        "homology", "s2-round", set_in(lambda d: d["expected"][1], "betti",
                                       -1),
        ".expected[1]: betti -1 is negative"),
    "expected-torsion-unit": (
        "homology", "s2-round",
        set_in(lambda d: d["expected"][0], "torsion", [1]),
        ".expected[0]: torsion [1] is not a list of invariant factors"),
    "expected-torsion-not-dividing": (
        "homology", "s2-round",
        set_in(lambda d: d["expected"][2], "torsion", [3, 2]),
        ".expected[2]: torsion [3, 2] is not a list of invariant factors"),
    "expected-torsion-second-string": (
        "homology", "s2-z2",
        set_in(lambda d: d["expected"][0], "torsion", [2, "2"]),
        ".expected[0].torsion[1] has type str"),
    "morse-count-string": (
        "morse", "t2-morse-4pt", set_key("counts", [["inner", "bottom", "2"]]),
        ".counts[0][2] has type str"),
    "morse-count-point-int": (
        "morse", "t2-morse-4pt", set_key("counts", [[1, "bottom", 1]]),
        ".counts[0][0] has type int"),
    "morse-critical-name-int": (
        "morse", "t2-morse-4pt",
        set_in(lambda d: d["critical"], "1", ["inner", 7]),
        ".critical['1'][1] has type int"),
    "morse-critical-negative": (
        "morse", "t2-morse-4pt", set_in(lambda d: d["critical"], "-1", ["a"]),
        ".critical: key '-1' is negative"),
    "morse-critical-key-zero-padded": (
        "morse", "t2-morse-4pt",
        set_in(lambda d: d["critical"], "01", ["extra"]),
        ".critical: key '01' is not 1"),
    "morse-critical-key-underscore": (
        "morse", "t2-morse-4pt",
        set_in(lambda d: d["critical"], "1_0", ["extra"]),
        ".critical: key '1_0' is not 10"),
    "morse-critical-name-twice": (
        "morse", "t2-morse-4pt",
        set_in(lambda d: d["critical"], "1", ["inner", "inner"]),
        ".critical['1']: point inner listed twice at index 1"),
    "morse-column-cap-odd": (
        "morse", "t2-morse-4pt", set_key("column_cap", 7),
        ": column cap 7 must be even and at least 4"),
    "morse-column-cap-zero": (
        "morse", "t2-morse-4pt", set_key("column_cap", 0),
        ": column cap 0 must be even and at least 4"),
    "flow-column-cap-odd": (
        "homology", "s2-z2", set_key("column_cap", 7),
        ": column cap 7 must be even and at least 4"),
    "flow-column-cap-small": (
        "validate", "s2-z2", set_key("column_cap", 2),
        ": column cap 2 must be even and at least 4"),
    # s2-z2's first component has a point source; s2-minus-z2's first one
    # covers a circle
    "point-domain-vertex-huge": (
        "homology", "s2-z2", domain_edge(10 ** 6),
        ".moduli[0]: malformed complex: (1000000,) uses vertices outside "
        "range"),
    "point-domain-vertex-negative": (
        "validate", "s2-z2", domain_edge(-1),
        ".moduli[0]: malformed complex: (-1,) uses vertices outside range"),
    "covering-domain-vertex-huge": (
        "validate", "s2-minus-z2", domain_edge(10 ** 6),
        ".moduli[0]: malformed complex: (1000000,) uses vertices outside "
        "range"),
    "covering-domain-vertex-negative": (
        "homology", "s2-minus-z2", domain_edge(-1),
        ".moduli[0]: malformed complex: (-1,) uses vertices outside range"),
    # a listing must hold every face of every listed simplex; the first
    # facet the reader does not find, lowest dimension first, is named
    "not-closed-edges-without-vertices": (
        "validate", "t2-height",
        set_in(lambda d: d["critical"][0], "complex",
               {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]}),
        ".critical[0]: malformed complex: face (0,) is not listed"),
    "not-closed-domain-edges-without-vertices": (
        "homology", "s2-z2",
        set_in(first_component, "domain",
               {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]}),
        ".moduli[0]: malformed complex: face (0,) is not listed"),
    "not-closed-triangle-missing-edge": (
        "homology", "s2-constant",
        lambda doc: doc["critical"][0]["complex"]["simplices"].remove([1, 2]),
        ".critical[0]: malformed complex: face (1, 2) is not listed"),
    "not-closed-simplex-16": (
        "homology", "t2-height", replace_doc(unbounded_cost_doc(SIMPLEX_16)),
        f".critical[0]: malformed complex: face {tuple(range(15))} is not "
        "listed"),
    "not-closed-facets-16": (
        "validate", "t2-height", replace_doc(unbounded_cost_doc(FACETS_16)),
        f".critical[0]: malformed complex: face {tuple(range(14))} is not "
        "listed"),
    # a point source's domain is oriented by the reader, which names the
    # component
    "point-domain-ridge-in-three": (
        "homology", "s2-z2",
        point_domain([[0], [1], [2], [3], [0, 1], [0, 2], [0, 3]]),
        ".moduli[0]: domain: not a pseudomanifold: ridge (0,) lies in 3 top "
        "simplices"),
    "point-domain-maximal-vertex": (
        "validate", "s2-z2",
        point_domain([[0], [1], [2], [3], [0, 1], [1, 2]]),
        ".moduli[0]: domain: not a pseudomanifold: (3,) is maximal below "
        "dimension 1"),
    # what a well-typed listing can still get wrong, each refused once, by
    # the reader, at the entry it concerns (a model too big for dim - index
    # is TestErrorExitCodes::test_model_too_big_for_its_index)
    "unknown-critical-kind": (
        "homology", "s2-z2", set_in(lambda d: d["critical"][1], "kind",
                                    "torus"),
        ".critical[1]: unknown kind 'torus'"),
    "duplicate-point-names": (
        "validate", "s2-z2", set_in(lambda d: d["critical"][1], "names",
                                    ["n", "n"]),
        ".critical[1]: duplicate point names"),
    "two-models-for-an-index": (
        "homology", "s2-z2",
        add_critical({"index": 2, "kind": "points", "names": ["x", "y"]}),
        ".critical[2]: two models for index 2"),
    # the moduli images are read against the first model of an index, so
    # a second one too small for them is named as the second model
    "second-model-too-small-for-the-images": (
        "homology", "s2-z2",
        add_critical({"index": 2, "kind": "points", "names": ["x"]}),
        ".critical[2]: two models for index 2"),
    "index-above-dim": (
        "validate", "s2-z2",
        add_critical({"index": 3, "kind": "points", "names": ["x"]}),
        ".critical[2]: index 3 outside 0..2"),
    "endpoints-not-critical": (
        "homology", "s2-z2", set_in(first_component, "from", 1),
        ".moduli[0]: endpoints 1->0 not among the critical indices"),
    "index-does-not-drop": (
        "validate", "s2-minus-z2", set_in(first_component, "to", 1),
        ".moduli[0]: index must strictly decrease along flows"),
    "sign-two": (
        "homology", "s2-z2", set_in(first_component, "sign", 2),
        ".moduli[0]: sign 2 is not +-1"),
    "domain-dimension-wrong": (
        "validate", "s2-z2",
        lambda doc: first_component(doc).update(
            domain={"vertices": 1, "simplices": [[0]]}, ev_minus=[0],
            ev_plus=[0]),
        ".moduli[0]: domain has dimension 0, expected 1"),
    "point-source-ev-minus-not-constant": (
        "homology", "s2-z2", two_circles_over_two_points,
        ".moduli[0]: ev_minus of a point source must be constant"),
    "positive-dimensional-source-drops-two": (
        "homology", "s2-z2", replace_doc(disk_over_circle_drop_two()),
        ".moduli[0]: positive-dimensional sources are supported only for "
        "index drop one"),
    "morse-point-at-two-indices": (
        "morse", "t2-morse-4pt",
        set_in(lambda d: d["critical"], "1", ["inner", "bottom"]),
        ".critical['1']: point bottom listed at indices 0 and 1"),
    "morse-count-drops-two": (
        "morse", "t2-morse-4pt", set_key("counts", [["top", "bottom", 1]]),
        ".counts[0]: count n(top,bottom) does not drop index by one"),
    "morse-count-unknown-point": (
        "morse", "t2-morse-4pt", set_key("counts", [["inner", "bottom", 1],
                                                    ["top", "nowhere", 1]]),
        ".counts[1]: count n(top,nowhere) uses unknown points"),
    "morse-critical-key-not-an-integer": (
        "morse", "t2-morse-4pt", set_in(lambda d: d["critical"], "x", ["a"]),
        ".critical: key 'x' is not an integer"),
}


class TestMalformedDocuments:
    """A malformed document exits 2 and names its JSON path."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_exits_2_with_json_path(self, tmp_path, capsys, case):
        command, name, change, where = MALFORMED[case]
        doc = load_corpus_doc(name)
        change(doc)
        path = write_doc(tmp_path, doc)
        assert main([command, path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {path}{where}\n"

    # a count [q, p, n] of exact types is taken at once; any other goes to
    # the typed check, which names the first wrong slot as it always has
    @pytest.mark.parametrize("item, slot, message", [
        ([1, "a", 1], 0, "doc.json.counts[1][0] has type int"),
        (["b", 2, 1], 1, "doc.json.counts[1][1] has type int"),
        (["b", "a", 1.5], 2, "doc.json.counts[1][2] has type float"),
        (["b", "a", True], 2, "doc.json.counts[1][2] has type bool"),
    ])
    def test_count_type_fault_in_each_slot(self, monkeypatch, item, slot,
                                           message):
        checked = []
        typed = schema._typed

        def recorded(value, kind, what, *idx):
            if what == "doc.json.counts":
                checked.append(idx)
            return typed(value, kind, what, *idx)

        monkeypatch.setattr(schema, "_typed", recorded)
        doc = {"critical": {"0": ["a"], "1": ["b"]},
               "counts": [["b", "a", 1], item]}
        with pytest.raises(schema.SchemaError) as err:
            morse_from_doc(doc, where="doc.json")
        assert str(err.value) == message
        assert checked == [(1, s) for s in range(slot + 1)]


class TestClosureBound:
    """The reader forms no face beyond the facets of the listed simplices,
    each once, and none of a simplex refused above `dim` or outside its
    model's range, so the cost of a document follows its size.  Closing
    an n-vertex simplex made 2^n - 1 faces: 20 vertices took 2.3 s and
    345 MiB before these checks."""

    @staticmethod
    def big_simplex_doc(tmp_path, vertices, dim):
        doc = load_corpus_doc("t2-height")
        doc["dim"] = dim
        doc["critical"][0]["complex"]["simplices"].append(
            list(range(vertices)))
        return write_doc(tmp_path, doc)

    @staticmethod
    def homology_formed(monkeypatch, path):
        """The exit code of `homology` on `path`, and the (simplex, face)
        pairs that the reader formed."""
        formed = formed_faces(monkeypatch)
        return main(["homology", path]), formed

    @pytest.mark.parametrize("vertices", [20, 40])
    def test_simplex_above_dim(self, tmp_path, capsys, monkeypatch,
                               vertices):
        path = self.big_simplex_doc(tmp_path, vertices, 2)
        assert self.homology_formed(monkeypatch, path) == (EXIT_INPUT, [])
        n = len(load_corpus_doc("t2-height")["critical"][0]["complex"][
            "simplices"])
        assert capsys.readouterr().err == (
            f"input error: {path}.critical[0].complex.simplices[{n}] has "
            f"dimension {vertices - 1}, above dim 2\n")

    def test_accepted_document_is_closed_by_the_guard(self, monkeypatch,
                                                      capsys):
        # an accepted document forms each facet of each distinct listing
        # once, so a reader that formed faces some other way, or more of
        # them, fails this test
        doc = load_corpus_doc("t2-height")
        listings = {json.dumps(data) for data in
                    [entry["complex"] for entry in doc["critical"]
                     if "complex" in entry]
                    + [comp["domain"] for comp in doc["moduli"]]}
        facets = sum(len(s) for data in map(json.loads, listings)
                     for s in data["simplices"] if len(s) > 1)
        code, formed = self.homology_formed(monkeypatch,
                                            corpus_path("t2-height"))
        assert code == EXIT_OK and len(formed) == facets > 0
        assert all(len(face) == len(s) - 1 and set(face) < set(s)
                   for s, face in formed)

    @pytest.mark.parametrize("vertices", [20, 40])
    def test_vertices_outside_range(self, tmp_path, capsys, monkeypatch,
                                    vertices):
        # with dim raised past the simplex, the range check refuses it
        # with the message the constructor gives, naming the lowest vertex
        # outside the model's 3
        path = self.big_simplex_doc(tmp_path, vertices, 60)
        assert self.homology_formed(monkeypatch, path) == (EXIT_INPUT, [])
        assert capsys.readouterr().err == (
            f"input error: {path}.critical[0]: malformed complex: (3,) uses "
            "vertices outside range\n")

    @pytest.mark.parametrize("listing", [SIMPLEX_16, FACETS_16],
                             ids=["simplex", "facets"])
    def test_unbounded_cost_documents(self, tmp_path, capsys, monkeypatch,
                                      listing):
        # one simplex on 16 vertices, or its 16 facets, is refused after
        # one face is formed: the first facet of the first simplex
        path = write_doc(tmp_path, unbounded_cost_doc(listing))
        first = tuple(listing[0])
        assert self.homology_formed(monkeypatch, path) == (
            EXIT_INPUT, [(first, first[:-1])])
        assert capsys.readouterr().err == (
            f"input error: {path}.critical[0]: malformed complex: face "
            f"{first[:-1]} is not listed\n")


def nonsquaring_morse_doc():
    """Flow-line counts whose d o d is not zero."""
    return {"schema": 1, "kind": "morse",
            "critical": {"0": ["p"], "1": ["q"], "2": ["r"]},
            "counts": [["r", "q", 1], ["q", "p", 1]]}


def expected_degree_twice_doc():
    doc = load_corpus_doc("s2-z2")
    doc["expected"].append(doc["expected"][0])
    return doc


def two_models_doc():
    doc = load_corpus_doc("s2-z2")
    doc["critical"] += [{"index": 1, "kind": "points", "names": ["a"]}] * 2
    return doc


class TestSeveralFaults:
    """Which refusal a listing with several faults meets: a type fault
    first, in listing order, then a simplex above `dim`, then an empty
    simplex, then the lowest vertex outside the model's range.  The
    listing is put in front of the simplices of t2-height's critical[0],
    a circle on 3 vertices in a `dim` 2 document.  A bad column cap is
    refused by the reader once the listing is read, before any fault of
    the presentation, the expected table or the flow-line counts."""

    @pytest.mark.parametrize("listed, fault", [
        ([[]], ": empty simplex"),
        ([[0, 99], []], ": empty simplex"),
        ([[0, 1, 2, 3], [0, 1.5]],
         ".complex.simplices[1][1] has type float"),
        ([[0, True], [0, 1, 2, 3]],
         ".complex.simplices[0][1] has type bool"),
        ([[0, 1, 2, 3], [0, 99]],
         ".complex.simplices[0] has dimension 3, above dim 2"),
        ([[], [0, 1, 2, 3]],
         ".complex.simplices[1] has dimension 3, above dim 2"),
        ([[0, 99], [-4, 1], [50, 60]],
         ": malformed complex: (-4,) uses vertices outside range"),
    ])
    def test_first_fault_is_named(self, tmp_path, capsys, listed, fault):
        doc = load_corpus_doc("t2-height")
        doc["critical"][0]["complex"]["simplices"][:0] = listed
        path = write_doc(tmp_path, doc)
        assert main(["homology", path]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"input error: {path}.critical[0]{fault}\n")

    @pytest.mark.parametrize("command, make_doc", [
        ("morse", nonsquaring_morse_doc),
        ("homology", expected_degree_twice_doc),
        ("validate", two_models_doc),
    ])
    def test_cap_before_other_faults(self, tmp_path, capsys, command,
                                     make_doc):
        doc = make_doc()
        doc["column_cap"] = 7
        path = write_doc(tmp_path, doc)
        assert main([command, path]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"input error: {path}: column cap 7 must be even and at "
            "least 4\n")


    def test_flow_document_refused_before_expected(self, tmp_path, capsys):
        # `morse` refuses a flow document before it reads `expected` or
        # builds, so neither a bad `expected` nor a non-covering ev_minus
        # (exit 1 from the build) is named
        doc = non_covering_doc()
        doc["expected"] = 5
        path = write_doc(tmp_path, doc)
        assert main(["morse", path]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"input error: {path}: expected a morse document\n")

    def test_expected_before_counts(self, tmp_path, capsys):
        # `expected` is read before the flow-line counts are squared
        doc = nonsquaring_morse_doc()
        doc["expected"] = [1]
        path = write_doc(tmp_path, doc)
        assert main(["morse", path]) == EXIT_INPUT
        assert capsys.readouterr() == (
            "", f"input error: {path}.expected[0]: expected an object, "
            "got int\n")


REFUSALS = ([], ["nosuch"], ["homology"])


class TestParser:
    """One argument parser per process, refusing as a fresh one would."""

    def test_built_once_for_many_calls(self, monkeypatch, capsys):
        built = []
        real = argparse.ArgumentParser

        def counted(*args, **kwargs):
            built.append(kwargs.get("prog"))
            return real(*args, **kwargs)

        cli._parser.cache_clear()  # an earlier test may have built it
        monkeypatch.setattr(cli, "argparse",
                            types.SimpleNamespace(ArgumentParser=counted))
        for _ in range(5):
            assert main(["homology", corpus_path("s2-z2")]) == EXIT_OK
        assert built == ["mbhomology"]

    def test_refusals_do_not_depend_on_earlier_calls(self, capsys):
        def refusals():
            out = []
            for argv in REFUSALS:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                out.append((exc.value.code, capsys.readouterr().err))
            return out

        cli._parser.cache_clear()  # the first refusals build the parser
        first = refusals()
        assert main(["homology", corpus_path("s2-z2")]) == EXIT_OK
        capsys.readouterr()
        assert refusals() == first
        assert [code for code, _ in first] == [2, 2, 2]
        assert all(err.startswith("usage: mbhomology") for _, err in first)


@pytest.mark.parametrize("module", ["mbhomology", "mbhomology.cli"])
def test_module_entry_points(module):
    src = str(Path(mbhomology.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", module, "homology", corpus_path("s2-z2")],
        capture_output=True, text=True, env=env, timeout=120)
    assert (result.returncode, result.stdout, result.stderr) == \
        (EXIT_OK, "HB_0=Z, HB_1=0, HB_2=Z\n", "")

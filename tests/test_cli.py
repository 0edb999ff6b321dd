import argparse
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import mbhomology
from mbhomology import cli, simplicial
from mbhomology.cli import EXIT_INPUT, EXIT_OK, EXIT_SEMANTIC, main
from mbhomology.schema import (
    canonical_json,
    morse_from_doc,
    morse_to_doc,
    presentation_from_doc,
    presentation_to_doc,
)
from mbhomology.corpus import data_dir, entry_names
from mbhomology.flowdata import morse_to_flow


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
        doc = {
            "schema": 1,
            "kind": "morse",
            "critical": {"0": ["p"], "1": ["q"], "2": ["r"]},
            "counts": [["r", "q", 1], ["q", "p", 1]],
        }
        path = write_doc(tmp_path, doc)
        assert main(["morse", path]) == EXIT_SEMANTIC
        assert "invalid Morse-Smale data" in capsys.readouterr().err

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


class TestCompare:
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
        assert canonical_json(presentation_to_doc(fp, meta)) == raw

    @pytest.mark.parametrize("name", [
        "s2-morse-2pt", "s2-morse-4pt", "t2-morse-4pt",
    ])
    def test_morse_files(self, name):
        raw = (data_dir() / f"{name}.json").read_text("utf-8")
        doc = json.loads(raw)
        md = morse_from_doc(doc)
        meta = {k: v for k, v in doc.items() if k not in self.SEMANTIC_KEYS}
        assert canonical_json(morse_to_doc(md, meta)) == raw

    def test_multiplicity_is_not_dropped(self):
        # a flow document has no multiplicity field, so a component of
        # multiplicity 2 cannot be written without changing its meaning
        md = morse_from_doc({"critical": {"0": ["m"], "1": ["s"]},
                             "counts": [["s", "m", 2]]})
        with pytest.raises(ValueError, match="multiplicity 2"):
            presentation_to_doc(morse_to_flow(md))


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
        "domain": {"vertices": 4, "simplices": [[0, 1], [0, 2], [0, 3]]},
        "ev_minus": [0, 0, 0, 0],
        "ev_plus": [0, 1, 2, 1],
    })
    return doc


def non_covering_doc():
    """A circle source whose ev_minus collapses an edge."""
    circle = {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]}
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
        assert captured.err.startswith(f"{prefix}{path}: ")

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
        circle = {"vertices": 3, "simplices": [[0, 1], [0, 2], [1, 2]]}
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
        assert captured.err == (f"input error: {path}: index 1: model of "
                                "dimension 1 exceeds dim - index = 0\n")

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
        ": point inner listed twice at index 1"),
    "morse-column-cap-odd": (
        "morse", "t2-morse-4pt", set_key("column_cap", 7),
        ": column cap 7 must be even and at least 4"),
    "morse-column-cap-zero": (
        "morse", "t2-morse-4pt", set_key("column_cap", 0),
        ": column cap 0 must be even and at least 4"),
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
}


class TestMalformedDocuments:
    """A wrongly typed field exits 2 and names its JSON path."""

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


class TestClosureBound:
    """A listed simplex is refused before its faces are formed, so the
    cost of a refusal follows the size of the document.  Closing an
    n-vertex simplex makes 2^n - 1 faces: 20 vertices took 2.3 s and
    345 MiB before these checks."""

    @staticmethod
    def big_simplex_doc(tmp_path, vertices, dim):
        doc = load_corpus_doc("t2-height")
        doc["dim"] = dim
        doc["critical"][0]["complex"]["simplices"].append(
            list(range(vertices)))
        return write_doc(tmp_path, doc)

    @staticmethod
    def homology_unclosed(monkeypatch, path):
        """`homology` on `path`, failing at once if the closure is handed
        a simplex above dimension 2, the top of every model of the
        document."""
        real = simplicial._close

        def guarded(by_dim):
            assert max(by_dim, default=0) <= 2, "a large simplex was closed"
            real(by_dim)

        monkeypatch.setattr(simplicial, "_close", guarded)
        return main(["homology", path])

    @pytest.mark.parametrize("vertices", [20, 40])
    def test_simplex_above_dim(self, tmp_path, capsys, monkeypatch,
                               vertices):
        path = self.big_simplex_doc(tmp_path, vertices, 2)
        assert self.homology_unclosed(monkeypatch, path) == EXIT_INPUT
        n = len(load_corpus_doc("t2-height")["critical"][0]["complex"][
            "simplices"])
        assert capsys.readouterr().err == (
            f"input error: {path}.critical[0].complex.simplices[{n}] has "
            f"dimension {vertices - 1}, above dim 2\n")

    @pytest.mark.parametrize("vertices", [20, 40])
    def test_vertices_outside_range(self, tmp_path, capsys, monkeypatch,
                                    vertices):
        # with dim raised past the simplex, the range check refuses it
        # with the message the constructor gives, naming the lowest vertex
        # outside the model's 3
        path = self.big_simplex_doc(tmp_path, vertices, 60)
        assert self.homology_unclosed(monkeypatch, path) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"input error: {path}.critical[0]: malformed complex: (3,) uses "
            "vertices outside range\n")


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

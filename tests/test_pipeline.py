import json
import random
import sys

import pytest

import mbhomology.multicomplex as multicomplex
from mbhomology.chain import HomologyGroup, validate_complex
from mbhomology.cli import (
    EXIT_OK,
    EXIT_SEMANTIC,
    _expected_mismatches,
    main,
)
from mbhomology.corpus import data_dir, entry_names
from mbhomology.exactalg import IntMatrix
from mbhomology.flowdata import CritModel, FlowPresentation, build_multicomplex
from mbhomology.multicomplex import InvalidMulticomplex, MBSMulticomplex
from mbhomology.pipeline import homology_table
from mbhomology.simplicial import SimplicialComplexData
from support import closed, corpus_names, forbid_dense_rows, read_corpus

Z = HomologyGroup(1, ())
ZERO = HomologyGroup(0, ())


def relabeled_torus(n, seed):
    """Constant function on the n x n grid torus (6 n^2 simplices) with
    its vertices shuffled."""
    perm = list(range(n * n))
    random.Random(seed).shuffle(perm)

    def v(i, j):
        return perm[(i % n) * n + j % n]

    tris = [tri for i in range(n) for j in range(n)
            for tri in ((v(i, j), v(i + 1, j), v(i + 1, j + 1)),
                        (v(i, j), v(i, j + 1), v(i + 1, j + 1)))]
    cx = SimplicialComplexData.from_simplices(closed(tris))
    return FlowPresentation(dim=2, crit=(CritModel(index=0, complex=cx),))


def count_calls(monkeypatch, original):
    """Counts calls of a library function, wherever a module calls it."""
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    name = original.__name__
    for modname, module in list(sys.modules.items()):
        if modname.startswith("mbhomology") and \
                getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def validations(monkeypatch):
    return count_calls(monkeypatch, multicomplex.validate_multicomplex)


@pytest.fixture
def reports(monkeypatch):
    """Counts MulticomplexReport constructions: one per validation, by
    whatever path it runs."""
    made = []
    original = multicomplex.MulticomplexReport.__init__

    def counting(self, *args):
        made.append(self)
        original(self, *args)

    monkeypatch.setattr(multicomplex.MulticomplexReport, "__init__", counting)
    return made


NAMES = entry_names()
MORSE_NAMES = corpus_names("morse")


def corpus_build(name):
    return build_multicomplex(read_corpus(name)[0], check=False)


class TestValidatedOnce:
    @pytest.mark.parametrize("argv, presentations", [
        (["validate", "s2-z2"], 1),
        (["homology", "s2-z2"], 1),
        (["compare", "s2-z2", "s2-round"], 2),
        (["morse", "t2-morse-4pt"], 1),
        *((["validate", name], 1) for name in NAMES),
        *((["homology", name], 1) for name in NAMES),
        *((["morse", name], 1) for name in MORSE_NAMES),
        *((["compare", name, name], 2) for name in NAMES),
    ])
    def test_cli(self, monkeypatch, validations, reports, capsys, argv,
                 presentations):
        # one report per multicomplex, by whatever path it is validated,
        # and no second d o d check: for morse, identity j = 2 of the
        # validation is d o d of the flow-line counts
        complex_checks = count_calls(monkeypatch, validate_complex)
        paths = [str(data_dir() / f"{name}.json") for name in argv[1:]]
        assert main(argv[:1] + paths) == EXIT_OK
        assert len(validations) == len(reports) == presentations
        assert complex_checks == []


class TestHomologyTable:
    def test_default_degrees_run_to_one_above_dim(self):
        mc = corpus_build("s2-z2")
        table = homology_table(mc)
        assert len(table) == mc.ambient_dim + 2
        assert table[:3] == [Z, ZERO, Z]

    def test_degrees_argument(self):
        mc = corpus_build("t2-height")
        table = homology_table(mc, range(1, 3))
        assert [(g.betti, g.torsion) for g in table] == [(2, ()), (1, ())]

    def test_relabeled_torus(self):
        # constant function on an 8 x 8 grid torus with shuffled vertices
        table = homology_table(build_multicomplex(relabeled_torus(8, 8),
                                                  check=False), range(0, 3))
        assert [str(g) for g in table] == ["Z", "Z^2", "Z"]

    def test_cost_follows_the_nonzeros(self, monkeypatch):
        # the 2400-simplex torus is built, validated, totalized and reduced
        # without a dense matrix: no dense rows outside snf and describe
        fp = relabeled_torus(20, 20)
        built = forbid_dense_rows(monkeypatch)
        with pytest.raises(AssertionError):
            IntMatrix.identity(2).data
        table = homology_table(build_multicomplex(fp, check=False),
                               range(0, 3))
        assert [str(g) for g in table] == ["Z", "Z^2", "Z"]
        assert all(caller == "snf" for _, caller in built)

    def test_invalid_raises_with_report(self):
        base = corpus_build("t2-deformed")
        key = next(k for k in base.maps if k[0] == 2)
        mc = MBSMulticomplex(
            ambient_dim=base.ambient_dim, row_ranks=base.row_ranks,
            maps={**base.maps, key: base.maps[key].scaled(-1)})
        with pytest.raises(InvalidMulticomplex) as info:
            homology_table(mc)
        assert not info.value.report.ok


class TestHelpers:
    def test_mismatch_message(self):
        lines = _expected_mismatches({0: Z, 1: Z},
                                     {0: Z, 1: HomologyGroup(0, (2,))})
        assert lines == ["degree 1: computed Z, expected betti 0, torsion [2]"]

    def test_uncomputed_degrees_are_skipped(self):
        assert _expected_mismatches({0: Z}, {5: Z}) == []

    def test_compare_covers_common_degrees(self, tmp_path, capsys):
        # `compare` pairs the two tables from degree 0 on: a torus of dim 3
        # against a sphere of dim 2 is compared in degrees 0..2
        doc = json.loads((data_dir() / "t2-height.json").read_text("utf-8"))
        doc["dim"] = 3
        path = tmp_path / "t2-height-dim3.json"
        path.write_text(json.dumps(doc), "utf-8")
        argv = ["compare", str(data_dir() / "s2-z2.json"), str(path), "--json"]
        assert main(argv) == EXIT_SEMANTIC
        rows = json.loads(capsys.readouterr().out)["comparisons"]
        assert [(r["degree"], r["isomorphic"]) for r in rows] == \
            [(0, True), (1, False), (2, True)]

    def test_group_text(self):
        assert str(HomologyGroup(2, (2, 4))) == "Z^2 ⊕ Z/2 ⊕ Z/4"

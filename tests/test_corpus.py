import json
from math import gcd

import pytest

from mbhomology.chain import HomologyGroup, homology_at
from mbhomology.cli import EXIT_OK, main
from mbhomology.corpus import data_dir, entry_names
from mbhomology.exactalg import invariant_factors, snf
from mbhomology.flowdata import build_multicomplex
from mbhomology.multicomplex import totalize
from mbhomology.schema import SchemaError, presentation_from_file
from mbhomology.simplicial import chain_complex_of

from support import (
    chain_to_vector,
    cycle_chain,
    load_file,
    read_corpus,
    structure_map,
    times_vector,
)


EXPECTED_NAMES = {
    "s2-constant", "s2-z2", "s2-minus-z2", "s2-round",
    "s2-morse-2pt", "s2-morse-4pt",
    "t2-height", "t2-deformed", "t2-morse-4pt",
}


class TestEntries:
    def test_all_entries_present(self):
        assert set(entry_names()) == EXPECTED_NAMES

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_entry_matches_expected(self, name, capsys):
        # the file's expected groups are the table `homology` prints
        expected = read_corpus(name)[3]
        argv = ["homology", str(data_dir() / f"{name}.json"),
                "--degrees", f"0..{max(expected)}", "--json"]
        assert main(argv) == EXIT_OK
        table = json.loads(capsys.readouterr().out)["homology"]
        assert {g["degree"]: HomologyGroup(g["betti"], tuple(g["torsion"]))
                for g in table} == expected

    def test_every_entry_has_expected_and_group(self):
        for name in entry_names():
            _, _, doc, expected = read_corpus(name)
            assert expected, name
            assert doc["manifold"] in {"s2", "t2"}


class TestRefusals:
    """A shipped file with one key changed is refused by the reader every
    command uses."""

    @pytest.fixture
    def change(self, tmp_path):
        """Writes a copy of a shipped file with `keys` changed and reads
        it by schema.presentation_from_file."""
        def edit(name, **keys):
            doc = json.loads((data_dir() / f"{name}.json").read_text("utf-8"))
            doc.update(keys)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc), "utf-8")
            return presentation_from_file(str(path))
        return edit

    def test_unsupported_schema(self, change):
        with pytest.raises(SchemaError, match="unsupported schema 99$"):
            change("t2-morse-4pt", schema=99)

    def test_unknown_kind(self, change):
        with pytest.raises(SchemaError, match="unknown kind 'nosuch'$"):
            change("s2-z2", kind="nosuch")

    def test_morse_column_cap_is_kept(self, change):
        with pytest.raises(SchemaError, match=": column cap 7 must be even "
                           "and at least 4$"):
            change("t2-morse-4pt", column_cap=7)


class TestTotalBoundaries:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_invariant_factors_match_snf(self, name):
        mc = build_multicomplex(read_corpus(name)[0], check=False)
        cx = totalize(mc).complex
        for k in range(0, max(cx.ranks) + 2):
            b = cx.boundary(k)
            assert invariant_factors(b) == snf(b).invariant_factors, k


class TestIntermediateChains:
    def test_z2_images_are_opposite_fundamental_cycles(self):
        fp = read_corpus("s2-z2")[0]
        mc = build_multicomplex(fp, check=False)
        rim = fp.crit_at(0).complex
        cycle = chain_to_vector(rim, 1, cycle_chain(rim))
        sparse = {i: x for i, x in enumerate(cycle) if x}
        d2 = structure_map(mc, 2, 0, 2)
        names = fp.crit_at(2).names
        assert d2.columns[names.index("n")] == sparse
        assert d2.columns[names.index("s")] == {i: -x for i, x in
                                                sparse.items()}
        # each image generates H_1 of the bottom row: H_1 is Z and, with
        # no 2-simplices, equal to the kernel of d_1, in which the cycle
        # is primitive
        row = chain_complex_of(rim)
        [h1] = homology_at(row, [1])
        assert str(h1) == "Z" and row.rank(2) == 0
        assert times_vector(row.boundary(1), cycle) == (0,) * row.rank(0)
        assert gcd(*cycle) == 1

    def test_minus_z2_vertex_image(self):
        fp = read_corpus("s2-minus-z2")[0]
        mc = build_multicomplex(fp, check=False)
        d1 = structure_map(mc, 1, 0, 1)
        names = fp.crit_at(0).names
        n_row, s_row = names.index("n"), names.index("s")
        for image in d1.columns:
            assert image.get(n_row, 0) == -image.get(s_row, 0)
            assert abs(image.get(n_row, 0)) == 1

    def test_height_interaction_vanishes(self):
        mc = build_multicomplex(read_corpus("t2-height")[0], check=False)
        for p in (0, 1):
            assert structure_map(mc, 1, p, 1).is_zero()

    def test_deformed_torus_pinned_identities(self):
        fp = read_corpus("t2-deformed")[0]
        mc = build_multicomplex(fp, check=False)
        mid_names = fp.crit_at(1).names
        top_names = fp.crit_at(2).names
        # rows of the base circle's column 0 are its vertices, in order
        base = fp.crit_at(0).complex
        base_vertices = [v for (v,) in base.simplices_of_dim(0)]
        d1_mid = structure_map(mc, 1, 0, 1)
        # d[1](p1) = p0 - p0' and d[1](q1) = q0 - q0'
        p1 = d1_mid.columns[mid_names.index("p1")]
        q1 = d1_mid.columns[mid_names.index("q1")]
        assert {base_vertices[i]: x for i, x in p1.items()} == {0: 1, 1: -1}
        assert {base_vertices[i]: x for i, x in q1.items()} == {2: -1, 3: 1}
        # d[1](p2 + q2) = 0, each summand a generator of Z(p1 - q1)
        d1_top = structure_map(mc, 1, 0, 2)
        p2 = d1_top.columns[top_names.index("p2")]
        q2 = d1_top.columns[top_names.index("q2")]
        assert q2 == {i: -x for i, x in p2.items()}
        assert p2 in ({0: 1, 1: -1}, {0: -1, 1: 1})
        # the two arc sums cancel as chains
        d2 = structure_map(mc, 2, 0, 2)
        assert d2.columns[1] == {i: -x for i, x in d2.columns[0].items()}

    def test_deformed_base_vertex_labels(self):
        # the base circle is a square whose vertex labels are 0..3
        fp = read_corpus("t2-deformed")[0]
        assert fp.crit_at(0).complex.vertex_count == 4


def test_generator_writes_the_shipped_files():
    # scripts/make_corpus.py regenerates every shipped file byte for byte;
    # its texts are compared here without writing anything
    texts = dict(load_file("scripts/make_corpus.py").documents())
    assert set(texts) == EXPECTED_NAMES
    for name, text in texts.items():
        assert text == (data_dir() / f"{name}.json").read_text("utf-8"), name

import json
from math import gcd

import pytest

from mbhomology import corpus
from mbhomology.chain import homology_at
from mbhomology.corpus import (
    data_dir,
    entry_names,
    independence_suite,
    load_entries,
    load_entry,
    run_entry,
)
from mbhomology.exactalg import invariant_factors, snf
from mbhomology.multicomplex import totalize
from mbhomology.schema import SchemaError
from mbhomology.simplicial import chain_complex_of, fundamental_cycle

from support import chain_to_vector


EXPECTED_NAMES = {
    "s2-constant", "s2-z2", "s2-minus-z2", "s2-round",
    "s2-morse-2pt", "s2-morse-4pt",
    "t2-height", "t2-deformed", "t2-morse-4pt",
}


class TestEntries:
    def test_all_entries_present(self):
        assert set(entry_names()) == EXPECTED_NAMES

    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_entry_matches_expected(self, name):
        report = run_entry(load_entry(name))
        assert report.built, report.diagnostics
        assert report.mismatches == []

    def test_every_entry_has_expected_and_group(self):
        for entry in load_entries():
            assert entry.expected, entry.name
            assert entry.manifold in {"s2", "t2"}


class TestRefusals:
    """The corpus reads its files through the command line's reader, so
    it refuses what the command line refuses."""

    @pytest.fixture
    def change(self, tmp_path, monkeypatch):
        """Edits a copy of the shipped files that `corpus` then reads."""
        for name in entry_names():
            (tmp_path / f"{name}.json").write_text(
                (data_dir() / f"{name}.json").read_text("utf-8"), "utf-8")
        monkeypatch.setattr(corpus, "data_dir", lambda: tmp_path)

        def edit(name, **keys):
            path = tmp_path / f"{name}.json"
            doc = json.loads(path.read_text("utf-8"))
            doc.update(keys)
            path.write_text(json.dumps(doc), "utf-8")
        return edit

    def test_unsupported_schema(self, change):
        change("t2-morse-4pt", schema=99)
        with pytest.raises(SchemaError, match="unsupported schema 99$"):
            load_entry("t2-morse-4pt")

    def test_unknown_kind(self, change):
        change("s2-z2", kind="nosuch")
        with pytest.raises(SchemaError, match="unknown kind 'nosuch'$"):
            load_entry("s2-z2")

    def test_morse_column_cap_is_kept(self, change):
        change("t2-morse-4pt", column_cap=7)
        report = run_entry(load_entry("t2-morse-4pt"))
        assert not report.built
        assert report.diagnostics == "column cap 7 must be even and at least 4"


class TestTotalBoundaries:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
    def test_invariant_factors_match_snf(self, name):
        mc = load_entry(name).build()
        cx = totalize(mc).complex
        for k in range(0, mc.column_cap + mc.ambient_dim + 2):
            b = cx.boundary(k)
            assert invariant_factors(b) == snf(b).invariant_factors, k


class TestIndependence:
    def test_all_groups_pairwise_isomorphic(self):
        report = independence_suite()
        assert report.ok
        assert set(report.groups) == {"s2", "t2"}
        # every pair inside each group was actually compared
        s2 = len(report.groups["s2"])
        t2 = len(report.groups["t2"])
        assert len(report.comparisons) == s2 * (s2 - 1) // 2 + \
            t2 * (t2 - 1) // 2

    def test_singleton_group_vacuous(self):
        report = independence_suite([load_entry("s2-z2")])
        assert report.ok
        assert report.comparisons == []

    def test_cross_manifold_tables_differ(self):
        s2 = run_entry(load_entry("s2-z2")).table
        t2 = run_entry(load_entry("t2-height")).table
        assert not s2[1].iso(t2[1])


class TestIntermediateChains:
    def test_z2_images_are_opposite_fundamental_cycles(self):
        entry = load_entry("s2-z2")
        mc = entry.build()
        rim = entry.presentation.crit_at(0).complex
        cycle = chain_to_vector(rim, 1, fundamental_cycle(rim).as_chain())
        d2 = mc.map(2, 0, 2)
        names = mc.labels(0, 2)
        n_col = d2.col(names.index("n"))
        s_col = d2.col(names.index("s"))
        assert n_col == cycle
        assert s_col == tuple(-x for x in cycle)
        # each image generates H_1 of the bottom row: H_1 is Z and, with
        # no 2-simplices, equal to the kernel of d_1, in which the cycle
        # is primitive
        row = chain_complex_of(rim)
        [h1] = homology_at(row, [1])
        assert str(h1) == "Z" and row.rank(2) == 0
        assert row.boundary(1).times_vector(cycle) == (0,) * row.rank(0)
        assert gcd(*cycle) == 1

    def test_minus_z2_vertex_image(self):
        entry = load_entry("s2-minus-z2")
        mc = entry.build()
        d1 = mc.map(1, 0, 1)
        names = mc.labels(0, 0)
        n_row, s_row = names.index("n"), names.index("s")
        for col in range(d1.cols):
            image = d1.col(col)
            assert image[n_row] == -image[s_row]
            assert abs(image[n_row]) == 1

    def test_height_interaction_vanishes(self):
        mc = load_entry("t2-height").build()
        for p in (0, 1):
            assert mc.map(1, p, 1).is_zero()

    def test_deformed_torus_pinned_identities(self):
        entry = load_entry("t2-deformed")
        mc = entry.build()
        mid_names = mc.labels(0, 1)
        top_names = mc.labels(0, 2)
        # rows of the base circle's column 0 are its vertices, in order
        base = entry.presentation.crit_at(0).complex
        base_vertices = [v for (v,) in base.simplices_of_dim(0)]
        d1_mid = mc.map(1, 0, 1)
        # d[1](p1) = p0 - p0' and d[1](q1) = q0 - q0'
        p1_img = dict(zip(base_vertices, d1_mid.col(mid_names.index("p1"))))
        q1_img = dict(zip(base_vertices, d1_mid.col(mid_names.index("q1"))))
        assert p1_img == {0: 1, 1: -1, 2: 0, 3: 0}
        assert q1_img == {0: 0, 1: 0, 2: -1, 3: 1}
        # d[1](p2 + q2) = 0, each summand a generator of Z(p1 - q1)
        d1_top = mc.map(1, 0, 2)
        p2 = d1_top.col(top_names.index("p2"))
        q2 = d1_top.col(top_names.index("q2"))
        assert tuple(a + b for a, b in zip(p2, q2)) == (0, 0)
        assert p2 in ((1, -1), (-1, 1))
        # the two arc sums cancel as chains
        d2 = mc.map(2, 0, 2)
        assert tuple(a + b for a, b in
                     zip(d2.col(0), d2.col(1))) == (0,) * d2.rows

    def test_deformed_base_vertex_labels(self):
        # the base circle is a square whose vertex labels are 0..3
        entry = load_entry("t2-deformed")
        assert entry.presentation.crit_at(0).complex.vertex_count == 4

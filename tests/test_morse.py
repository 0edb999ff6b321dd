import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import support
from mbhomology import chain, cli, exactalg, morse
from mbhomology.chain import HomologyGroup, homology_at
from mbhomology.corpus import data_dir
from mbhomology.exactalg import IntMatrix
from mbhomology.flowdata import build_multicomplex, morse_to_flow
from mbhomology.morse import (
    InvalidMorseData,
    MorseData,
    is_critical_point_complex,
    morse_complex,
)
from mbhomology.multicomplex import (
    InvalidMulticomplex,
    MBSMulticomplex,
    totalize,
    validate_multicomplex,
)
from mbhomology.schema import (
    morse_from_doc,
    presentation_from_doc,
    presentation_from_file,
)

from support import (
    brute_homology,
    chain_map_residuals,
    corpus_names,
    degrees_of,
    equals_morse_complex,
    forbid_dense_rows,
    full_point_rows,
    load_file,
    mapping_cone,
    morse_doc_of,
    phi_chain_map,
    phi_embed,
    random_complex,
    read_corpus,
    structure_map,
    submatrix_cols,
    times_vector,
    verify_morse_mb,
)

workloads = load_file("perfbench/workloads.py")


def torus_md():
    return MorseData(crit_by_index={0: ("bottom",),
                                    1: ("inner", "outer"),
                                    2: ("top",)},
                     counts={})


def sphere2_md():
    return MorseData(crit_by_index={0: ("bottom",), 2: ("top",)}, counts={})


def sphere4_md():
    # two maxima over one saddle: d(east) = s, d(west) = -s, d(s) = 0
    return MorseData(crit_by_index={0: ("bottom",), 1: ("saddle",),
                                    2: ("east", "west")},
                     counts={("east", "saddle"): 1, ("west", "saddle"): -1})


class TestMorseData:
    def test_normalizes_indices_names_and_counts(self):
        md = MorseData(crit_by_index={"1": ["s"], 0: ("m",), 2: []},
                       counts={("s", "m"): 2.0})
        assert md.crit_by_index == {1: ("s",), 0: ("m",)}
        assert md.counts == {("s", "m"): 2}
        assert type(md.counts[("s", "m")]) is int


class TestMorseComplex:
    def test_torus(self):
        cx = morse_complex(torus_md())
        h0, h1, h2 = homology_at(cx, range(3))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(2, ())
        assert h2 == HomologyGroup(1, ())

    def test_round_sphere(self):
        cx = morse_complex(sphere2_md())
        h0, h1, h2 = homology_at(cx, range(3))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(0, ())
        assert h2 == HomologyGroup(1, ())

    def test_two_maxima_sphere(self):
        cx = morse_complex(sphere4_md())
        assert cx.boundary(2) == IntMatrix.from_rows([[1, -1]])
        h0, h1, h2 = homology_at(cx, range(3))
        assert h0 == HomologyGroup(1, ())
        assert h1 == HomologyGroup(0, ())
        assert h2 == HomologyGroup(1, ())

    def test_rejects_nonsquaring(self):
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={("r", "q"): 1, ("q", "p"): 1})
        with pytest.raises(InvalidMorseData):
            morse_complex(md)


def synthetic_three_row(d2_entry=5, flipped_row=None):
    """Three one-point rows with a hand-chosen nonzero d[2]; d[1] = 0, so
    anticommutation holds for any d[2] value.  The d[0] blocks carry the
    checkerboard sign, reversed on `flipped_row`."""
    ranks = {}
    maps = {}
    for i in (0, 1, 2):
        for p in range(5):
            ranks[(p, i)] = 1
        for p in (2, 4):
            sign = (-1) ** (p + i + (i == flipped_row))
            maps[(0, p, i)] = IntMatrix.from_rows([[sign]])
    maps[(2, 0, 2)] = IntMatrix.from_rows([[d2_entry]])
    return MBSMulticomplex(ambient_dim=2, row_ranks=ranks, maps=maps)


def fat(md):
    """The build of morse_to_flow(md) with its point rows run on to the
    smallest even column cap >= dim + 2."""
    fp = morse_to_flow(md)
    return full_point_rows(build_multicomplex(fp), fp,
                           fp.dim + 2 + fp.dim % 2)


def verify(md, mc):
    """verify_morse_mb of `mc` against morse_complex(md), whose points are
    named by md's own presentation."""
    return verify_morse_mb(morse_complex(md), morse_to_flow(md), mc)


def lift(md, mc, k, c0):
    """phi_chain_map applied to a column-zero vector of row k, cut into its
    slots {i: c_i}; checked against the reference phi_embed."""
    view = totalize(mc)
    phi = phi_chain_map(morse_complex(md), morse_to_flow(md), view)
    image = times_vector(phi.component(k), c0)
    parts = {}
    for i in range(k + 1):
        off = view.block_offsets.get((i, k - i), 0)
        parts[i] = image[off:off + mc.rank(i, k - i)]
    assert parts == phi_embed(mc, k, c0)
    return parts


def reference_components(cm, mc):
    """phi_embed of every basis vector of cm, as one matrix per degree."""
    components = {}
    for k in degrees_of(cm):
        n = cm.rank(k)
        cols = []
        for t in range(n):
            col = {}
            parts = phi_embed(mc, k, [int(s == t) for s in range(n)])
            for i, vec in parts.items():
                if vec:
                    off = mc.block_offsets[(i, k - i)]
                    col.update((off + s, x) for s, x in enumerate(vec))
            cols.append(col)
        components[k] = IntMatrix.from_columns(mc.complex.rank(k), n, cols)
    return components


def matches_reference(outcome, mc):
    phi = outcome.embedding
    want = reference_components(phi.source, mc)
    return {k: phi.component(k) for k in want} == want


class TestPhiEmbed:
    def test_zero_interaction_gives_inclusion(self):
        md = torus_md()
        mc = fat(md)
        parts = lift(md, mc, 2, (1,))
        assert parts[0] == (1,)
        assert parts[1] == (0, 0)
        assert parts[2] == (0,)

    def test_synthetic_nonzero_d2(self):
        mc = synthetic_three_row()
        assert validate_multicomplex(mc).ok
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        parts = lift(md, mc, 2, (1,))
        # c_2 = -d[0]^{-1} d[2] c_0 with d[0] = +identity at (2, 0)
        assert parts[1] == (0,)
        assert parts[2] == (-5,)

    def test_chain_map_identity_as_matrices(self):
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        mc = synthetic_three_row()
        view = totalize(mc)
        phi = phi_chain_map(morse_complex(md), morse_to_flow(md), view)
        assert all(r.is_zero() for r in chain_map_residuals(phi).values())
        for k in range(0, 3):
            lhs = view.complex.boundary(k) @ phi.component(k)
            rhs = phi.component(k - 1) @ phi.source.boundary(k)
            assert lhs == rhs

    def test_odd_components_zero_on_corpus(self):
        for md in (torus_md(), sphere2_md(), sphere4_md()):
            mc = build_multicomplex(morse_to_flow(md))
            for k, names in md.crit_by_index.items():
                for t in range(len(names)):
                    c0 = [1 if s == t else 0 for s in range(len(names))]
                    parts = lift(md, mc, k, c0)
                    for i in range(1, k + 1, 2):
                        assert all(x == 0 for x in parts[i])

    def test_uniqueness_under_reordering(self):
        # permuting the point basis and lifting again gives the same
        # embedding after undoing the permutation
        md = sphere4_md()
        mc = fat(md)
        perm = [1, 0]
        maps = dict(mc.maps)
        for p in (2, 4):
            mat = structure_map(mc, 0, p, 2)
            maps[(0, p, 2)] = IntMatrix(
                2, 2, [[mat.data[perm[r]][perm[c]] for c in range(2)]
                       for r in range(2)])
        d1 = structure_map(mc, 1, 0, 2)
        maps[(1, 0, 2)] = submatrix_cols(d1, perm)
        permuted = MBSMulticomplex(ambient_dim=2, row_ranks=mc.row_ranks,
                                   maps=maps)
        assert validate_multicomplex(permuted).ok
        top = md.crit_by_index[2]
        permuted_md = MorseData(
            crit_by_index={**md.crit_by_index,
                           2: tuple(top[t] for t in perm)},
            counts=md.counts)
        direct = lift(md, mc, 2, (1, 0))
        via_perm = lift(permuted_md, permuted, 2, (0, 1))
        assert direct[2] == via_perm[2]
        assert direct[1] == via_perm[1]

    def test_rejects_non_morse_shaped(self):
        from test_multicomplex import s2_z2_presentation
        fp = s2_z2_presentation()
        mc = build_multicomplex(fp)
        empty = morse_complex(MorseData(crit_by_index={}, counts={}))
        # the circle row has rank 3 at columns 0 and 1: constant, but it
        # ends at an odd column
        with pytest.raises(ValueError,
                           match="row 0 has varying rank or ends at odd "
                                 "column 1"):
            phi_chain_map(empty, fp, totalize(mc))

    @pytest.mark.parametrize("d0", [[[0, 1], [1, 0]], [[1, 1], [0, 1]],
                                    [[1, 0], [0, -1]]],
                             ids=["swap", "shear", "mixed-signs"])
    def test_rejects_other_unimodular_d0(self, d0):
        # a unimodular d[0] that is not +-I is refused, by bidegree, though
        # the reference lift could solve through it
        mc = MBSMulticomplex(
            ambient_dim=0, row_ranks={(p, 0): 2 for p in range(3)},
            maps={(0, 2, 0): IntMatrix.from_rows(d0)})
        assert validate_multicomplex(mc).ok
        md = MorseData(crit_by_index={0: ("a", "b")}, counts={})
        with pytest.raises(ValueError, match=r"d\[0\] at \(p=2, i=0\)"):
            phi_chain_map(morse_complex(md), morse_to_flow(md), totalize(mc))

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_accepts_either_sign(self, row):
        # -I where the checkerboard puts +I, and the reverse, is accepted;
        # the lift divides by that sign
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        mc = synthetic_three_row(flipped_row=row)
        assert validate_multicomplex(mc).ok
        outcome = verify(md, mc)
        assert outcome.ok
        assert matches_reference(outcome, mc)
        assert lift(md, mc, 2, (1,))[2] == ((5,) if row == 0 else (-5,))

    @pytest.mark.parametrize("name", corpus_names("morse"))
    def test_matches_reference_on_corpus(self, name):
        md = read_corpus(name)[1]
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify(md, mc)
        assert outcome.ok
        assert matches_reference(outcome, mc)


class TestVerify:
    @pytest.mark.parametrize("md_factory", [torus_md, sphere2_md, sphere4_md])
    def test_corpus_morse_data(self, md_factory):
        md = md_factory()
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify(md, mc)
        assert outcome.chain_map_exact
        assert outcome.odd_components_zero
        assert outcome.is_quasi_iso
        for a, b in zip(outcome.morse_homology, outcome.mb_homology):
            assert a == b
        assert outcome.ok

    def test_synthetic_instance(self):
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        outcome = verify(md, synthetic_three_row())
        assert outcome.chain_map_exact
        assert outcome.is_quasi_iso
        assert outcome.ok

    def test_invalid_multicomplex_raises_with_report(self):
        # d[1] o d[1] from row 2 to row 0 is 1, so the identity for j=2
        # fails at (p=0, i=2) before any embedding is built
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        mc = synthetic_three_row()
        bad = MBSMulticomplex(
            ambient_dim=2, row_ranks=mc.row_ranks,
            maps={**mc.maps, (1, 0, 2): IntMatrix.from_rows([[1]]),
                  (1, 0, 1): IntMatrix.from_rows([[1]])})
        with pytest.raises(InvalidMulticomplex) as err:
            verify(md, bad)
        assert (2, 0, 2) in [(j, p, i) for j, p, i, _ in
                             err.value.report.identity_failures]

    def test_induced_maps_are_unimodular(self):
        # the embedding induces isomorphisms on homology exactly when its
        # mapping cone is acyclic, in every degree the cone has
        md = torus_md()
        outcome = verify(md, build_multicomplex(morse_to_flow(md)))
        assert [str(g) for g in outcome.morse_homology] == ["Z", "Z^2", "Z"]
        cone = mapping_cone(outcome.embedding)
        lo, hi = cone.degree_range
        assert all(h == HomologyGroup(0, ())
                   for h in homology_at(cone, range(lo, hi + 2)))

    def test_each_check_runs_once(self, monkeypatch):
        # the chain-map identity is evaluated once, for the residuals; the
        # cone is built only after they are all zero, without a second
        # check; the embedding takes no Smith form, so snf runs only on
        # the cores that the unit-pivot elimination leaves
        residual_calls = []
        smith_callers = []
        real_residuals, real_snf = support.chain_map_residuals, exactalg.snf

        def counted_residuals(f):
            residual_calls.append(f)
            return real_residuals(f)

        def counted_snf(a):
            smith_callers.append(sys._getframe(1).f_code)
            return real_snf(a)

        monkeypatch.setattr(support, "chain_map_residuals",
                            counted_residuals)
        monkeypatch.setattr(exactalg, "snf", counted_snf)
        # two projective planes on one vertex: d(c) = 2 b and d(f) = 2 e,
        # so H_1 = Z/2 + Z/2 is torsion
        md = MorseData(crit_by_index={0: ("a",), 1: ("b", "e"),
                                      2: ("c", "f")},
                       counts={("c", "b"): 2, ("f", "e"): 2})
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify(md, mc)
        assert outcome.ok
        assert [str(g) for g in outcome.mb_homology] == \
            ["Z", "Z/2 ⊕ Z/2", "0"]
        assert len(residual_calls) == 1
        assert not hasattr(morse, "snf")
        # the torsion leaves a 2 x 2 core (a narrower one ends by its gcd),
        # so snf does run, from one caller
        assert set(smith_callers) == {exactalg._reduce.__code__}

    def test_cmd_morse_builds_one_morse_complex(self, monkeypatch, capsys):
        # a call that succeeds compares the build with the counts and forms
        # no morse_complex; one whose build is not the critical-point
        # complex forms one, for its Morse table
        built = []
        real = morse.morse_complex

        def counted(md):
            built.append(md)
            return real(md)

        monkeypatch.setattr(morse, "morse_complex", counted)
        path = str(data_dir() / "s2-morse-4pt.json")
        assert cli.main(["morse", path]) == cli.EXIT_OK
        assert "quasi-isomorphism: yes" in capsys.readouterr().out
        assert built == []
        real_build = cli.build_multicomplex

        def flipped(fp, check=True):
            mc = real_build(fp, check)
            return with_map(mc, (1, 0, 2),
                            structure_map(mc, 1, 0, 2).scaled(-1))

        monkeypatch.setattr(cli, "build_multicomplex", flipped)
        assert cli.main(["morse", path]) == cli.EXIT_SEMANTIC
        assert "quasi-isomorphism: NO" in capsys.readouterr().out
        assert len(built) == 1

    def test_lone_top_row(self):
        # rows 0 and 1 are absent, so the column-2 slot of a row-2 lift is
        # empty and has no d[0] block to divide by
        md = MorseData(crit_by_index={2: ("a",)}, counts={})
        outcome = verify(md, build_multicomplex(morse_to_flow(md)))
        assert outcome.ok
        assert [str(g) for g in outcome.morse_homology] == ["0", "0", "Z"]
        assert outcome.embedding.component(2) == IntMatrix.from_rows([[1]])


def morse_files():
    return [data_dir() / f"{n}.json" for n in corpus_names("morse")]


def count_calls(monkeypatch, fn):
    """Replace `fn` in every loaded mbhomology module that holds it with a
    wrapper that records each call; returns the list of calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "mbhomology" or name.startswith("mbhomology."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, counted)
    return calls


def run_morse(path, *flags):
    """(exit code, stdout, stderr) of one `morse` call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["morse", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def with_map(mc, key, mat):
    """`mc` with map `key` replaced by `mat`."""
    return MBSMulticomplex(ambient_dim=mc.ambient_dim, row_ranks=mc.row_ranks,
                           maps={**mc.maps, key: mat})


def compared(md, fp, mc):
    """The verdict of is_critical_point_complex(md, fp, mc), once it is
    seen to agree with the reference equality against morse_complex(md)."""
    verdict = is_critical_point_complex(md, fp, mc)
    assert verdict == equals_morse_complex(morse_complex(md), fp, mc)
    return verdict


def negated_entry(mc, rng):
    """`mc` with one nonzero entry of one nonzero map negated."""
    key = rng.choice(sorted(k for k, m in mc.maps.items() if not m.is_zero()))
    mat = mc.maps[key]
    c = rng.choice([c for c, col in enumerate(mat.columns) if col])
    r = rng.choice(sorted(mat.columns[c]))
    columns = [dict(col) for col in mat.columns]
    columns[c][r] = -columns[c][r]
    return with_map(mc, key, IntMatrix.from_columns(mat.rows, mat.cols,
                                                    columns))


def assert_build_is_critical_point_complex(md, fp):
    # the build has the critical-point complex's nonzero ranks and
    # boundaries, and the reference embedding is the identity on it; the
    # comparison with the counts agrees with the reference equality, here
    # and once one entry of the build is negated or one count dropped
    cm = morse_complex(md)
    mc = build_multicomplex(fp)
    total = mc.complex
    assert {k: r for k, r in total.ranks.items() if r} == cm.ranks
    for k in {*total.boundaries, *cm.boundaries}:
        assert total.boundary(k) == cm.boundary(k), k
    phi = phi_chain_map(cm, fp, mc)
    for k, n in cm.ranks.items():
        assert fp.crit_at(k).names == cm.labels[k]
        assert phi.component(k) == IntMatrix.identity(n), k
    assert compared(md, fp, mc)
    nonzero = sorted(key for key, n in md.counts.items() if n)
    if nonzero:
        rng = random.Random(len(nonzero))
        assert not compared(md, fp, negated_entry(mc, rng))
        dropped = dict(md.counts)
        del dropped[rng.choice(nonzero)]
        fewer = morse_to_flow(MorseData(md.crit_by_index, dropped))
        assert not compared(md, fewer, build_multicomplex(fewer, check=False))


class TestMorseCommand:
    """`morse` compares the build with the flow-line counts, and computes
    one homology table."""

    @pytest.mark.parametrize("path", morse_files(), ids=lambda p: p.stem)
    def test_shipped_builds_are_critical_point_complexes(self, path):
        fp, md, _ = presentation_from_file(str(path))
        assert_build_is_critical_point_complex(md, fp)

    def test_random_builds_are_critical_point_complexes(self):
        for seed in range(40):
            c = random_complex(random.Random(7000 + seed), max_total_rank=10)
            md, _ = morse_data_of(c)
            assert_build_is_critical_point_complex(md, morse_to_flow(md))

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_seeded_workload_builds_are_critical_point_complexes(self, size):
        for seed in range(1, 4):
            for call in range(3):
                doc = workloads.make("morse-random", seed, call,
                                     size=size)[0]
                md = morse_from_doc(doc)
                assert_build_is_critical_point_complex(md, morse_to_flow(md))

    def test_lone_top_row_build(self):
        md = MorseData({2: ("a",)}, {})
        assert_build_is_critical_point_complex(md, morse_to_flow(md))

    def test_other_complexes_are_refused(self):
        md = sphere4_md()
        fp = morse_to_flow(md)
        mc = build_multicomplex(fp)
        assert compared(md, fp, mc)
        # a sign flipped, a presentation whose index-2 names are swapped,
        # and rows run past column 0
        flipped = with_map(mc, (1, 0, 2),
                           structure_map(mc, 1, 0, 2).scaled(-1))
        swapped = morse_to_flow(MorseData(
            {**md.crit_by_index, 2: ("west", "east")}, md.counts))
        for presented, other in ((fp, flipped), (swapped, mc),
                                 (fp, full_point_rows(mc, fp, 4))):
            assert validate_multicomplex(other).ok
            assert not compared(md, presented, other)
        # a dropped count, and a build with one point more, at an index
        # of its own that no count touches
        assert not compared(MorseData(md.crit_by_index,
                                      {("east", "saddle"): 1}), fp, mc)
        more = morse_to_flow(MorseData({**md.crit_by_index, 3: ("far",)},
                                       md.counts))
        assert not compared(md, more, build_multicomplex(more))

    def test_counts_that_sum_to_zero_are_no_entry(self):
        # two entries of n(west, saddle) that sum to 0 leave a count of 0:
        # its build has no entry there, whether the count is written as 0
        # (two entries read from a document) or left out, and a build with
        # an entry there is refused either way
        doc = {"critical": {"0": ["bottom"], "1": ["saddle"],
                            "2": ["east", "west"]},
               "counts": [["east", "saddle", 1], ["west", "saddle", 1],
                          ["west", "saddle", -1]]}
        written = morse_from_doc(doc)
        assert written.counts == {("east", "saddle"): 1,
                                  ("west", "saddle"): 0}
        left_out = MorseData(written.crit_by_index, {("east", "saddle"): 1})
        with_entry = build_multicomplex(morse_to_flow(sphere4_md()))
        for md in (written, left_out):
            fp = morse_to_flow(md)
            assert compared(md, fp, build_multicomplex(fp))
            assert not compared(md, fp, with_entry)

    def test_one_validation_and_one_table_per_call(self, monkeypatch):
        # the chain-map verdicts follow from the comparison with the
        # counts, so a call validates the multicomplex once (its identity
        # j = 2 is d o d of the counts), computes one homology table, and
        # forms no critical-point complex and no second d o d check
        counts = {fn.__name__: count_calls(monkeypatch, fn) for fn in (
            validate_multicomplex, chain.validate_complex, homology_at,
            morse.morse_complex)}
        code, out, _ = run_morse(data_dir() / "s2-morse-4pt.json", "--json")
        assert code == cli.EXIT_OK
        assert json.loads(out)["ok"] is True
        assert {name: len(calls) for name, calls in counts.items()} == {
            "validate_multicomplex": 1, "validate_complex": 0,
            "homology_at": 1, "morse_complex": 0}

    def test_reductions_do_not_grow_with_column_cap(self, monkeypatch,
                                                    tmp_path):
        # the build stops every point row at column 0, so a larger cap
        # adds no boundary to reduce and no Smith form
        reductions = count_calls(monkeypatch, exactalg._reduce)
        smith_forms = count_calls(monkeypatch, exactalg.snf)
        for name in ("t2-morse-4pt", "s2-morse-4pt"):
            doc = json.loads((data_dir() / f"{name}.json").read_text("utf-8"))
            seen = set()
            for cap in (8, 64):
                doc["column_cap"] = cap
                path = tmp_path / f"{name}-cap{cap}.json"
                path.write_text(json.dumps(doc))
                reductions.clear()
                smith_forms.clear()
                assert run_morse(path)[0] == cli.EXIT_OK, (name, cap)
                seen.add((len(reductions), len(smith_forms)))
            assert len(seen) == 1, name
        assert seen == {(1, 0)}  # s2-morse-4pt: d_2 = (1 -1), no core

    @pytest.mark.parametrize("as_json", [False, True])
    def test_broken_build_is_reported(self, monkeypatch, as_json):
        # a build whose d_2 has the wrong sign is still a valid
        # multicomplex with the same homology, but not the critical-point
        # complex: every verdict is false and the exit is 1
        real = cli.build_multicomplex

        def flipped(fp, check=True):
            mc = real(fp, check)
            return with_map(mc, (1, 0, 2),
                            structure_map(mc, 1, 0, 2).scaled(-1))

        path = data_dir() / "s2-morse-4pt.json"
        flags = ["--json"] if as_json else []
        code, want, _ = run_morse(path, *flags)
        assert code == cli.EXIT_OK
        monkeypatch.setattr(cli, "build_multicomplex", flipped)
        code, out, _ = run_morse(path, *flags)
        assert code == cli.EXIT_SEMANTIC
        if not as_json:
            assert "chain map: BROKEN; quasi-isomorphism: NO" in out
            assert out.splitlines()[:2] == want.splitlines()[:2]
            return
        data, good = json.loads(out), json.loads(want)
        assert [data[key] for key in ("chain_map_exact",
                                      "odd_components_zero",
                                      "quasi_isomorphism", "ok")] == \
            [False] * 4
        assert data["morse_homology"] == good["morse_homology"]
        assert data["mb_homology"] == good["mb_homology"]

    def test_invalid_build_is_reported(self, monkeypatch):
        # d[1] o d[1] from row 2 to row 0 is 2: the validation report, on
        # standard error, and exit 1
        real = cli.build_multicomplex

        def broken(fp, check=True):
            mc = real(fp, check)
            return with_map(mc, (1, 0, 1), IntMatrix.from_rows([[1]]))

        monkeypatch.setattr(cli, "build_multicomplex", broken)
        code, out, err = run_morse(data_dir() / "s2-morse-4pt.json")
        assert code == cli.EXIT_SEMANTIC
        assert out == ""
        assert err.startswith("multicomplex: INVALID\n")

    @pytest.mark.parametrize("seed", range(6))
    def test_order_and_names_do_not_matter(self, seed, tmp_path):
        # shuffling the counts, shuffling the points of each index and
        # renaming every point leave the output of `morse` unchanged
        rng = random.Random(9100 + seed)
        paths = morse_files()
        if seed < len(paths):
            doc = json.loads(paths[seed].read_text("utf-8"))
        else:
            c = random_complex(rng, max_total_rank=10)
            doc = support.load_file("scripts/make_corpus.py").morse_to_doc(
                morse_data_of(c)[0])
        names = sorted({n for pts in doc["critical"].values() for n in pts})
        fresh = [f"pt{t}" for t in range(len(names))]
        rng.shuffle(fresh)
        rename = dict(zip(names, fresh))
        moved = dict(doc)
        moved["critical"] = {}
        for k, pts in doc["critical"].items():
            pts = [rename[n] for n in pts]
            rng.shuffle(pts)
            moved["critical"][k] = pts
        moved["counts"] = [[rename[q], rename[p], n]
                           for q, p, n in doc["counts"]]
        rng.shuffle(moved["counts"])
        assert moved != doc
        for flags in ([], ["--json"]):
            outputs = []
            for name, d in (("a", doc), ("b", moved)):
                path = tmp_path / f"{name}.json"
                path.write_text(json.dumps(d))
                outputs.append(run_morse(path, *flags))
            assert outputs[0] == outputs[1], flags
            assert outputs[0][0] == cli.EXIT_OK


def morse_data_of(c):
    """Morse data with one critical point per basis vector of c, indices
    shifted to start at 0, and the boundary entries as flow-line counts."""
    lo = min(c.ranks)
    crit = {k - lo: tuple(f"x{k}.{t}" for t in range(r))
            for k, r in c.ranks.items()}
    counts = {}
    for k, d in c.boundaries.items():
        for row, entries in enumerate(d.data):
            for col, n in enumerate(entries):
                if n:
                    counts[(f"x{k}.{col}", f"x{k - 1}.{row}")] = n
    return MorseData(crit_by_index=crit, counts=counts), lo


class TestRandomMorseData:
    def test_cost_follows_the_nonzeros(self, monkeypatch):
        # building and verifying the embedding makes dense rows only for
        # the Smith forms of the cores left by unit-pivot elimination
        c = random_complex(random.Random(7003), max_total_rank=10)
        md, lo = morse_data_of(c)
        built = forbid_dense_rows(monkeypatch)
        outcome = verify(md, build_multicomplex(morse_to_flow(md)))
        assert outcome.ok
        assert any(g.torsion for g in outcome.mb_homology)
        assert built and all(caller == "snf" for _, caller in built)

    def test_each_boundary_is_reduced_once(self, monkeypatch):
        # one homology pass per complex: the cone verdict, the
        # critical-point table and the total table each reduce every
        # stored boundary they read exactly once, in that order, each from
        # the top degree down, and leave an absent (zero) one alone
        c = random_complex(random.Random(7003), max_total_rank=10)
        md, lo = morse_data_of(c)
        mc = build_multicomplex(morse_to_flow(md))
        seen = []
        real = chain._reduce

        def counted(a, cleared=()):
            seen.append(a)
            return real(a, cleared)

        monkeypatch.setattr(chain, "_reduce", counted)
        outcome = verify(md, mc)
        assert outcome.ok
        cm, total = outcome.embedding.source, outcome.embedding.target
        cone = mapping_cone(outcome.embedding)
        c_lo, c_hi = cone.degree_range
        table = range(mc.ambient_dim + 2)
        assert cm.rank(1) and mc.ambient_dim >= 1
        down = range(c_hi + 2, c_lo - 1, -1)

        def stored(cx, degrees):
            return [cx.boundaries[k] for k in degrees if k in cx.boundaries]

        assert c_hi + 1 not in cone.boundaries
        assert any(k not in cm.boundaries for k in table)
        assert seen == (stored(cone, down) + stored(cm, reversed(table))
                        + stored(total, reversed(table)))

    def test_clearing_on_the_cones(self):
        # on the mapping cones of the random embeddings, each boundary
        # without the columns cleared by the one above has the invariant
        # factors of the whole boundary, and the groups match the oracle
        cleared_any = False
        for seed in range(30):
            c = random_complex(random.Random(7000 + seed), max_total_rank=10)
            md, lo = morse_data_of(c)
            outcome = verify(md, build_multicomplex(morse_to_flow(md)))
            cone = mapping_cone(outcome.embedding)
            c_lo, c_hi = cone.degree_range
            for k in range(c_lo, c_hi + 2):
                _, pivots = exactalg._reduce(cone.boundary(k + 1))
                cleared_any |= bool(pivots)
                assert exactalg._reduce(cone.boundary(k), set(pivots))[0] \
                    == exactalg.invariant_factors(cone.boundary(k)), (seed, k)
            degrees = range(c_lo - 1, c_hi + 2)
            for k, h in zip(degrees, homology_at(cone, degrees), strict=True):
                assert (h.betti, h.torsion) == brute_homology(cone, k) \
                    == (0, ()), (seed, k)
        assert cleared_any

    def test_embedding_is_a_quasi_iso(self):
        # the paper's Morse embedding on scrambled complexes with torsion:
        # both tables match the oracle and every check passes
        for seed in range(60):
            c = random_complex(random.Random(7000 + seed), max_total_rank=10)
            md, lo = morse_data_of(c)
            outcome = verify(md, build_multicomplex(morse_to_flow(md)))
            assert outcome.ok, seed
            for k, (a, b) in enumerate(zip(outcome.morse_homology,
                                           outcome.mb_homology)):
                want = brute_homology(c, k + lo)
                assert (a.betti, a.torsion) == want, (seed, k)
                assert (b.betti, b.torsion) == want, (seed, k)

    def test_embedding_matches_reference_at_every_cap(self):
        # truncation stability: on the build (cap None) and on its fat
        # rows at the smallest even cap >= m + 2, at 2m + 4 and at 64,
        # every column of the embedding equals the reference lift, and the
        # verdicts and both tables agree
        for seed in range(60):
            c = random_complex(random.Random(7000 + seed), max_total_rank=10)
            md, lo = morse_data_of(c)
            cm = morse_complex(md)
            m = max(md.crit_by_index)
            seen = set()
            fp = morse_to_flow(md)
            built = build_multicomplex(fp)
            for cap in (None, m + 2 + m % 2, 2 * m + 4, 64):
                mc = built if cap is None else full_point_rows(built, fp, cap)
                outcome = verify_morse_mb(cm, fp, mc)
                assert matches_reference(outcome, mc), (seed, cap)
                seen.add((outcome.ok, outcome.chain_map_exact,
                          outcome.odd_components_zero,
                          outcome.is_quasi_iso,
                          tuple(outcome.morse_homology),
                          tuple(outcome.mb_homology)))
            assert len(seen) == 1, seed
            assert seen.pop()[0], seed

    def test_lift_recursion_with_higher_maps(self):
        # flow-line counts store only d[1], so every even slot C_i of the
        # embedding is zero; a d[2] = Y d[1] at column 0 keeps the identity,
        # since d[2] d[1] = Y d[1] d[1] = 0, and makes C_2 = -eps d[2] the
        # lift of a nonzero right-hand side
        possible, lifted = 0, []
        for seed in range(60):
            rng = random.Random(7000 + seed)
            c = random_complex(rng, max_total_rank=10)
            md, lo = morse_data_of(c)
            flat = fat(md)
            maps = dict(flat.maps)
            for i in range(2, flat.ambient_dim + 1):
                rows, cols = flat.rank(1, i - 2), flat.rank(0, i - 1)
                y = IntMatrix(rows, cols, [[rng.randint(-2, 2)
                                            for _ in range(cols)]
                                           for _ in range(rows)])
                d2 = y @ structure_map(flat, 1, 0, i)
                if not d2.is_zero():
                    maps[(2, 0, i)] = d2
            possible += any(not structure_map(flat, 1, 0, i).is_zero()
                            for i in range(2, flat.ambient_dim + 1))
            mc = MBSMulticomplex(ambient_dim=flat.ambient_dim,
                                 row_ranks=flat.row_ranks, maps=maps)
            assert validate_multicomplex(mc).ok, seed
            outcome = verify(md, mc)
            assert outcome.ok, seed
            assert matches_reference(outcome, mc), seed
            offsets = totalize(mc).block_offsets
            phi = outcome.embedding
            lifted.extend(
                (seed, k) for k in degrees_of(phi.source)
                if (2, k - 2) in offsets
                and any(0 <= r - offsets[(2, k - 2)] < mc.rank(2, k - 2)
                        for col in phi.component(k).columns for r in col))
        # C_2 is nonzero on most seeds where a row i >= 2 has a nonzero
        # d[1], including rows where the checkerboard makes eps = -1
        assert len({seed for seed, _ in lifted}) > 0.75 * possible > 15
        assert any(k % 2 for _, k in lifted)


def conjugated(flat, rng):
    """`flat` with its total boundary D replaced by g D g^-1, where
    g = I + h and h is a random map of bidegree (1, -1).

    g D g^-1 squares to zero, and each of its blocks runs from (p, i) to
    some (p + j - 1, i - j) with j >= 0, so the blocks are the maps d[j]
    of a multicomplex.  d[0] stays as it was, and so does d[1] on column
    0, since d[0] vanishes on the odd columns of point rows.
    """
    view = totalize(flat)
    total = view.complex
    at = {}  # total degree -> [(p, i, offset)]
    for (p, i), off in view.block_offsets.items():
        at.setdefault(p + i, []).append((p, i, off))

    def g_and_inverse(k):
        cols = [{} for _ in range(total.rank(k))]
        for p, i, off in at.get(k, ()):
            if (p + 1, i - 1) in view.block_offsets:
                r0 = view.block_offsets[(p + 1, i - 1)]
                for s in range(flat.rank(p, i)):
                    for t in range(flat.rank(p + 1, i - 1)):
                        cols[off + s][r0 + t] = rng.randint(-2, 2)
        h = IntMatrix.from_columns(total.rank(k), total.rank(k), cols)
        minus_h = h.scaled(-1)
        inverse, power = IntMatrix.identity(total.rank(k)), minus_h
        while not power.is_zero():
            inverse, power = inverse + power, power @ minus_h
        return IntMatrix.identity(total.rank(k)) + h, inverse

    gs = {k: g_and_inverse(k) for k in at}
    maps = {}
    for k in at:
        if k - 1 not in at:
            continue
        d = gs[k - 1][0] @ total.boundary(k) @ gs[k][1]
        for p, i, off in at[k]:
            for q, r, row0 in at[k - 1]:
                block = IntMatrix.from_columns(
                    flat.rank(q, r), flat.rank(p, i),
                    [{x - row0: y for x, y in col.items()
                      if row0 <= x < row0 + flat.rank(q, r)}
                     for col in d.columns[off:off + flat.rank(p, i)]])
                if not block.is_zero():
                    assert r <= i
                    maps[(i - r, p, i)] = block
    return MBSMulticomplex(ambient_dim=flat.ambient_dim,
                           row_ranks=flat.row_ranks, maps=maps)


class TestConjugatedMulticomplex:
    def test_lift_recursion_reaches_later_terms(self):
        # the embedding of a multicomplex with d[j] on every column: C_4 =
        # -eps (d[4] C_0 + d[2] C_2) has its t = 2 term d[2] C_2, with d[2]
        # at column 2, nonzero, and phi_chain_map matches phi_embed
        md = MorseData(
            crit_by_index={0: ("a",), 1: ("b", "b'"), 2: ("c", "c'"),
                           3: ("e",), 4: ("f",)},
            counts={("c", "b"): 2, ("e", "c'"): 1})
        flat = fat(md)
        later = 0
        for seed in range(12):
            mc = conjugated(flat, random.Random(seed))
            assert validate_multicomplex(mc).ok, seed
            assert structure_map(mc, 0, 2, 2) == structure_map(flat, 0, 2, 2)
            assert structure_map(mc, 1, 0, 2) == structure_map(flat, 1, 0, 2)
            outcome = verify(md, mc)
            assert outcome.ok, seed
            assert matches_reference(outcome, mc), seed
            c2 = phi_embed(mc, 4, (1,))[2]
            later += any(times_vector(structure_map(mc, 2, 2, 2), c2))
        assert later > 6


def simplicial_rows():
    """(label, complex) of every simplicial critical model of the corpus
    and of seeded torus-grid and bott-twist documents."""
    workloads = load_file("perfbench/workloads.py")
    presentations = [(name, read_corpus(name)[0])
                     for name in corpus_names("flow")]
    presentations += [
        (f"{workload}:{call}",
         presentation_from_doc(workloads.make(workload, 7, call)[0]))
        for workload in ("torus-grid", "bott-twist") for call in range(3)]
    for label, fp in presentations:
        for t, model in enumerate(fp.crit):
            if not model.is_points:
                yield f"{label}:{t}", model.complex


class TestMorseHomologyTheorem:
    """The paper's comparison theorem on every simplicial row: the Morse
    document with one critical point per simplex has the simplicial chain
    complex as its critical-point complex, so `morse` finds the build
    equal to it, and its table is the one `homology` prints for the
    one-row flow document of the same model."""

    @pytest.mark.parametrize("k", [pytest.param(k, id=label)
                                   for label, k in simplicial_rows()])
    def test_morse_table_is_the_row_table(self, tmp_path, k):
        morse_path = tmp_path / "morse.json"
        morse_path.write_text(json.dumps(morse_doc_of(k)), "utf-8")
        code, out, err = run_morse(morse_path, "--json")
        assert (code, err) == (cli.EXIT_OK, "")
        report = json.loads(out)
        assert report["ok"] is True
        flow_path = tmp_path / "flow.json"
        flow_path.write_text(json.dumps({
            "schema": 1, "kind": "flow", "dim": k.top_dim,
            "critical": [{"index": 0, "kind": "simplicial", "complex": {
                "vertices": k.vertex_count,
                "simplices": list(map(list, k.all_simplices()))}}],
            "moduli": []}), "utf-8")
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["homology", "--json", str(flow_path)]) == \
                cli.EXIT_OK
        table = json.loads(out.getvalue())["homology"]
        assert report["morse_homology"] == report["mb_homology"] == table

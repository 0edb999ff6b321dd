import json
import random
import sys

import pytest

from mbhomology import chain, cli, exactalg, morse
from mbhomology.chain import (
    HomologyGroup,
    chain_map_residuals,
    homology_at,
    mapping_cone,
)
from mbhomology.corpus import data_dir, entry_names, load_entry
from mbhomology.exactalg import IntMatrix
from mbhomology.flowdata import (
    build_multicomplex,
    default_column_cap,
    morse_to_flow,
)
from mbhomology.morse import (
    InvalidMorseData,
    MorseData,
    morse_complex,
    phi_chain_map,
    verify_morse_mb,
)
from mbhomology.multicomplex import (
    InvalidMulticomplex,
    MBSMulticomplex,
    totalize,
    validate_multicomplex,
)

from support import brute_homology, forbid_dense_rows, phi_embed, random_complex


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
        assert h0.iso(HomologyGroup(1, ()))
        assert h1.iso(HomologyGroup(2, ()))
        assert h2.iso(HomologyGroup(1, ()))

    def test_round_sphere(self):
        cx = morse_complex(sphere2_md())
        h0, h1, h2 = homology_at(cx, range(3))
        assert h0.iso(HomologyGroup(1, ()))
        assert h1.is_trivial()
        assert h2.iso(HomologyGroup(1, ()))

    def test_two_maxima_sphere(self):
        cx = morse_complex(sphere4_md())
        assert cx.boundary(2) == IntMatrix.from_rows([[1, -1]])
        h0, h1, h2 = homology_at(cx, range(3))
        assert h0.iso(HomologyGroup(1, ()))
        assert h1.is_trivial()
        assert h2.iso(HomologyGroup(1, ()))

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
    labels = {(p, 0): ("p",) for p in range(5)}
    labels.update({(p, 1): ("q",) for p in range(5)})
    labels.update({(p, 2): ("r",) for p in range(5)})
    return MBSMulticomplex(ambient_dim=2, column_cap=4, row_ranks=ranks,
                           row_labels=labels, maps=maps)


def lift(md, mc, k, c0):
    """phi_chain_map applied to a column-zero vector of row k, cut into its
    slots {i: c_i}; checked against the reference phi_embed."""
    view = totalize(mc)
    phi = phi_chain_map(morse_complex(md), view)
    image = phi.component(k).times_vector(c0)
    parts = {}
    for i in range(k + 1):
        off = view.block_offsets.get((i, k - i), 0)
        parts[i] = image[off:off + mc.rank(i, k - i)]
    assert parts == phi_embed(mc, k, c0)
    return parts


def reference_components(cm, mc):
    """phi_embed of every basis vector of cm, as one matrix per degree."""
    components = {}
    for k in cm.degrees():
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
        parts = lift(md, build_multicomplex(morse_to_flow(md)), 2, (1,))
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
        phi = phi_chain_map(morse_complex(md), view)
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
        mc = build_multicomplex(morse_to_flow(md))
        perm = [1, 0]
        ranks = dict(mc.row_ranks)
        labels = {k: v for k, v in mc.row_labels.items()}
        maps = dict(mc.maps)
        for p in (2, 4):
            mat = mc.map(0, p, 2)
            maps[(0, p, 2)] = IntMatrix(
                2, 2, [[mat[perm[r], perm[c]] for c in range(2)]
                       for r in range(2)])
        d1 = mc.map(1, 0, 2)
        maps[(1, 0, 2)] = d1.submatrix_cols(perm)
        for p in range(5):
            labels[(p, 2)] = tuple(mc.row_labels[(p, 2)][t] for t in perm)
        permuted = MBSMulticomplex(ambient_dim=2, column_cap=4,
                                   row_ranks=ranks, row_labels=labels,
                                   maps=maps)
        assert validate_multicomplex(permuted).ok
        permuted_md = MorseData(
            crit_by_index={**md.crit_by_index, 2: labels[(0, 2)]},
            counts=md.counts)
        direct = lift(md, mc, 2, (1, 0))
        via_perm = lift(permuted_md, permuted, 2, (0, 1))
        assert direct[2] == via_perm[2]
        assert direct[1] == via_perm[1]

    def test_rejects_non_morse_shaped(self):
        from test_multicomplex import s2_z2_presentation
        mc = build_multicomplex(s2_z2_presentation())
        empty = morse_complex(MorseData(crit_by_index={}, counts={}))
        with pytest.raises(ValueError, match="full point rows"):
            phi_chain_map(empty, totalize(mc))

    @pytest.mark.parametrize("d0", [[[0, 1], [1, 0]], [[1, 1], [0, 1]],
                                    [[1, 0], [0, -1]]],
                             ids=["swap", "shear", "mixed-signs"])
    def test_rejects_other_unimodular_d0(self, d0):
        # a unimodular d[0] that is not +-I is refused, by bidegree, though
        # the reference lift could solve through it
        mc = MBSMulticomplex(
            ambient_dim=0, column_cap=2,
            row_ranks={(p, 0): 2 for p in range(3)},
            row_labels={(p, 0): ("a", "b") for p in range(3)},
            maps={(0, 2, 0): IntMatrix.from_rows(d0)})
        assert validate_multicomplex(mc).ok
        cm = morse_complex(MorseData(crit_by_index={0: ("a", "b")},
                                     counts={}))
        with pytest.raises(ValueError, match=r"d\[0\] at \(p=2, i=0\)"):
            phi_chain_map(cm, totalize(mc))

    @pytest.mark.parametrize("row", [0, 1, 2])
    def test_accepts_either_sign(self, row):
        # -I where the checkerboard puts +I, and the reverse, is accepted;
        # the lift divides by that sign
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        mc = synthetic_three_row(flipped_row=row)
        assert validate_multicomplex(mc).ok
        outcome = verify_morse_mb(morse_complex(md), mc)
        assert outcome.ok
        assert matches_reference(outcome, mc)
        assert lift(md, mc, 2, (1,))[2] == ((5,) if row == 0 else (-5,))

    @pytest.mark.parametrize(
        "name", [n for n in entry_names() if load_entry(n).kind == "morse"])
    def test_matches_reference_on_corpus(self, name):
        md = load_entry(name).morse
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify_morse_mb(morse_complex(md), mc)
        assert outcome.ok
        assert matches_reference(outcome, mc)


class TestVerify:
    @pytest.mark.parametrize("md_factory", [torus_md, sphere2_md, sphere4_md])
    def test_corpus_morse_data(self, md_factory):
        md = md_factory()
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify_morse_mb(morse_complex(md), mc)
        assert outcome.chain_map_exact
        assert outcome.odd_components_zero
        assert outcome.is_quasi_iso
        for a, b in zip(outcome.morse_homology, outcome.mb_homology):
            assert a.iso(b)
        assert outcome.ok

    def test_synthetic_instance(self):
        md = MorseData(crit_by_index={0: ("p",), 1: ("q",), 2: ("r",)},
                       counts={})
        outcome = verify_morse_mb(morse_complex(md), synthetic_three_row())
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
            ambient_dim=2, column_cap=4, row_ranks=mc.row_ranks,
            row_labels=mc.row_labels,
            maps={**mc.maps, (1, 0, 2): IntMatrix.from_rows([[1]]),
                  (1, 0, 1): IntMatrix.from_rows([[1]])})
        with pytest.raises(InvalidMulticomplex) as err:
            verify_morse_mb(morse_complex(md), bad)
        assert (2, 0, 2) in [(j, p, i) for j, p, i, _ in
                             err.value.report.identity_failures]

    def test_induced_maps_are_unimodular(self):
        # the embedding induces isomorphisms on homology exactly when its
        # mapping cone is acyclic, in every degree the cone has
        md = torus_md()
        outcome = verify_morse_mb(morse_complex(md),
                                  build_multicomplex(morse_to_flow(md)))
        assert [str(g) for g in outcome.morse_homology] == ["Z", "Z^2", "Z"]
        cone = mapping_cone(outcome.embedding)
        lo, hi = cone.degree_range
        assert all(h.is_trivial()
                   for h in homology_at(cone, range(lo, hi + 2)))

    def test_each_check_runs_once(self, monkeypatch):
        # the chain-map identity is evaluated once, for the residuals; the
        # cone is built only after they are all zero, without a second
        # check; the embedding takes no Smith form, so snf runs only on
        # the cores that the unit-pivot elimination leaves
        residual_calls = []
        smith_callers = []
        real_residuals, real_snf = chain.chain_map_residuals, exactalg.snf

        def counted_residuals(f):
            residual_calls.append(f)
            return real_residuals(f)

        def counted_snf(a):
            smith_callers.append(sys._getframe(1).f_code)
            return real_snf(a)

        for module in (chain, morse):
            monkeypatch.setattr(module, "chain_map_residuals",
                                counted_residuals)
        monkeypatch.setattr(exactalg, "snf", counted_snf)
        # a projective plane: d(c) = 2 b, so H_1 = Z/2 is torsion
        md = MorseData(crit_by_index={0: ("a",), 1: ("b",), 2: ("c",)},
                       counts={("c", "b"): 2})
        mc = build_multicomplex(morse_to_flow(md))
        outcome = verify_morse_mb(morse_complex(md), mc)
        assert outcome.ok
        assert [str(g) for g in outcome.mb_homology] == ["Z", "Z/2", "0"]
        assert len(residual_calls) == 1
        assert not hasattr(morse, "snf")
        # the torsion leaves a core, so snf does run, from one caller
        assert set(smith_callers) == {exactalg._reduce.__code__}

    def test_cmd_morse_builds_one_morse_complex(self, monkeypatch, capsys):
        built = []
        real = morse.morse_complex

        def counted(md):
            built.append(md)
            return real(md)

        monkeypatch.setattr(morse, "morse_complex", counted)
        path = str(data_dir() / "t2-morse-4pt.json")
        assert cli.main(["morse", path]) == cli.EXIT_OK
        assert "quasi-isomorphism: yes" in capsys.readouterr().out
        assert len(built) == 1

    def test_smith_forms_do_not_grow_with_column_cap(self, monkeypatch,
                                                     tmp_path, capsys):
        # the d[0] blocks are +-I, so building the embedding takes no
        # Smith form at all, however many blocks the cap adds
        runs = []
        inside = []
        during = []
        real_phi, real_snf = morse.phi_chain_map, exactalg.snf

        def watched_phi(*args, **kwargs):
            runs.append(True)
            inside.append(True)
            try:
                return real_phi(*args, **kwargs)
            finally:
                inside.pop()

        def watched_snf(a):
            if inside:
                during.append(a)
            return real_snf(a)

        monkeypatch.setattr(morse, "phi_chain_map", watched_phi)
        monkeypatch.setattr(exactalg, "snf", watched_snf)
        doc = json.loads((data_dir() / "t2-morse-4pt.json").read_text("utf-8"))
        for cap in (8, 64):
            doc["column_cap"] = cap
            path = tmp_path / f"cap{cap}.json"
            path.write_text(json.dumps(doc))
            runs.clear()
            assert cli.main(["morse", str(path)]) == cli.EXIT_OK
            assert runs == [True], cap
            assert during == [], cap
        capsys.readouterr()

    def test_lone_top_row(self):
        # rows 0 and 1 are absent, so the column-2 slot of a row-2 lift is
        # empty and has no d[0] block to divide by
        md = MorseData(crit_by_index={2: ("a",)}, counts={})
        outcome = verify_morse_mb(morse_complex(md),
                                  build_multicomplex(morse_to_flow(md)))
        assert outcome.ok
        assert [str(g) for g in outcome.morse_homology] == ["0", "0", "Z"]
        assert outcome.embedding.component(2) == IntMatrix.from_rows([[1]])


def morse_data_of(c):
    """Morse data with one critical point per basis vector of c, indices
    shifted to start at 0, and the boundary entries as flow-line counts."""
    lo = min(c.ranks)
    crit = {k - lo: tuple(f"x{k}.{t}" for t in range(r))
            for k, r in c.ranks.items()}
    counts = {}
    for k, d in c.boundaries.items():
        for row in range(d.rows):
            for col in range(d.cols):
                if d[row, col]:
                    counts[(f"x{k}.{col}", f"x{k - 1}.{row}")] = d[row, col]
    return MorseData(crit_by_index=crit, counts=counts), lo


class TestRandomMorseData:
    def test_cost_follows_the_nonzeros(self, monkeypatch):
        # building and verifying the embedding makes dense rows only for
        # the Smith forms of the cores left by unit-pivot elimination
        c = random_complex(random.Random(7003), max_total_rank=10)
        md, lo = morse_data_of(c)
        built = forbid_dense_rows(monkeypatch)
        outcome = verify_morse_mb(morse_complex(md),
                                  build_multicomplex(morse_to_flow(md)))
        assert outcome.ok
        assert any(g.torsion for g in outcome.mb_homology)
        assert built and all(caller == "snf" for _, caller in built)

    def test_each_boundary_is_reduced_once(self, monkeypatch):
        # one homology pass per complex: the cone verdict, the
        # critical-point table and the total table each reduce every
        # boundary they read exactly once, in that order, each from the
        # top degree down
        c = random_complex(random.Random(7003), max_total_rank=10)
        md, lo = morse_data_of(c)
        mc = build_multicomplex(morse_to_flow(md))
        seen = []
        real = chain._reduce

        def counted(a, cleared=()):
            seen.append(a)
            return real(a, cleared)

        monkeypatch.setattr(chain, "_reduce", counted)
        outcome = verify_morse_mb(morse_complex(md), mc)
        assert outcome.ok
        cm, total = outcome.embedding.source, outcome.embedding.target
        cone = mapping_cone(outcome.embedding)
        c_lo, c_hi = cone.degree_range
        table = range(mc.ambient_dim + 2)
        assert cm.rank(1) and mc.ambient_dim >= 1
        down = range(c_hi + 2, c_lo - 1, -1)
        assert seen == ([cone.boundary(k) for k in down]
                        + [cm.boundary(k) for k in reversed(table)]
                        + [total.boundary(k) for k in reversed(table)])

    def test_clearing_on_the_cones(self):
        # on the mapping cones of the random embeddings, each boundary
        # without the columns cleared by the one above has the invariant
        # factors of the whole boundary, and the groups match the oracle
        cleared_any = False
        for seed in range(30):
            c = random_complex(random.Random(7000 + seed), max_total_rank=10)
            md, lo = morse_data_of(c)
            outcome = verify_morse_mb(morse_complex(md),
                                      build_multicomplex(morse_to_flow(md)))
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
            outcome = verify_morse_mb(morse_complex(md),
                                      build_multicomplex(morse_to_flow(md)))
            assert outcome.ok, seed
            for k, (a, b) in enumerate(zip(outcome.morse_homology,
                                           outcome.mb_homology)):
                want = brute_homology(c, k + lo)
                assert (a.betti, a.torsion) == want, (seed, k)
                assert (b.betti, b.torsion) == want, (seed, k)

    def test_embedding_matches_reference_at_every_cap(self):
        # truncation stability: at the smallest even cap >= m + 2, at
        # 2m + 4 and at 64 every column of the embedding equals the
        # reference lift, and the verdicts and both tables agree
        for seed in range(60):
            c = random_complex(random.Random(7000 + seed), max_total_rank=10)
            md, lo = morse_data_of(c)
            cm = morse_complex(md)
            m = max(md.crit_by_index)
            seen = set()
            for cap in (default_column_cap(m), 2 * m + 4, 64):
                mc = build_multicomplex(morse_to_flow(md, cap=cap))
                outcome = verify_morse_mb(cm, mc)
                assert matches_reference(outcome, mc), (seed, cap)
                seen.add((outcome.ok, outcome.chain_map_exact,
                          outcome.odd_components_zero, outcome.is_quasi_iso,
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
            flat = build_multicomplex(morse_to_flow(md))
            maps = dict(flat.maps)
            for i in range(2, flat.ambient_dim + 1):
                rows, cols = flat.rank(1, i - 2), flat.rank(0, i - 1)
                y = IntMatrix(rows, cols, [[rng.randint(-2, 2)
                                            for _ in range(cols)]
                                           for _ in range(rows)])
                d2 = y @ flat.map(1, 0, i)
                if not d2.is_zero():
                    maps[(2, 0, i)] = d2
            possible += any(not flat.map(1, 0, i).is_zero()
                            for i in range(2, flat.ambient_dim + 1))
            mc = MBSMulticomplex(
                ambient_dim=flat.ambient_dim, column_cap=flat.column_cap,
                row_ranks=flat.row_ranks, row_labels=flat.row_labels,
                maps=maps)
            assert validate_multicomplex(mc).ok, seed
            outcome = verify_morse_mb(morse_complex(md), mc)
            assert outcome.ok, seed
            assert matches_reference(outcome, mc), seed
            offsets = totalize(mc).block_offsets
            phi = outcome.embedding
            lifted.extend(
                (seed, k) for k in phi.source.degrees()
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
        inverse, power = IntMatrix.identity(total.rank(k)), -h
        while not power.is_zero():
            inverse, power = inverse + power, power @ -h
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
                           column_cap=flat.column_cap,
                           row_ranks=flat.row_ranks,
                           row_labels=flat.row_labels, maps=maps)


class TestConjugatedMulticomplex:
    def test_lift_recursion_reaches_later_terms(self):
        # the embedding of a multicomplex with d[j] on every column: C_4 =
        # -eps (d[4] C_0 + d[2] C_2) has its t = 2 term d[2] C_2, with d[2]
        # at column 2, nonzero, and phi_chain_map matches phi_embed
        md = MorseData(
            crit_by_index={0: ("a",), 1: ("b", "b'"), 2: ("c", "c'"),
                           3: ("e",), 4: ("f",)},
            counts={("c", "b"): 2, ("e", "c'"): 1})
        flat = build_multicomplex(morse_to_flow(md))
        later = 0
        for seed in range(12):
            mc = conjugated(flat, random.Random(seed))
            assert validate_multicomplex(mc).ok, seed
            assert mc.map(0, 2, 2) == flat.map(0, 2, 2)
            assert mc.map(1, 0, 2) == flat.map(1, 0, 2)
            outcome = verify_morse_mb(morse_complex(md), mc)
            assert outcome.ok, seed
            assert matches_reference(outcome, mc), seed
            c2 = phi_embed(mc, 4, (1,))[2]
            later += any(mc.map(2, 2, 2).times_vector(c2))
        assert later > 6

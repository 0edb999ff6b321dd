"""Shared test helpers: random complexes, independent homology oracles,
chain-level views of simplicial maps that only tests need, the paper's
comparison theorem checked on fat point rows (the embedding of the
critical-point complex, chain maps and mapping cones), the repo's
scripts and benchmark generators loaded from their files, the shipped
corpus read as the commands read it, and a family of mapping tori with
answers known from the Wang sequence."""

import functools
import importlib.util
from itertools import combinations
from pathlib import Path

from sympy import Matrix as SymMatrix
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sym_invariant_factors

from mbhomology import exactalg, simplicial
from mbhomology.chain import ChainComplex, HomologyGroup, homology_at
from mbhomology.corpus import data_dir, entry_names
from mbhomology.exactalg import IntMatrix
from mbhomology.multicomplex import MBSMulticomplex, MulticomplexReport
from mbhomology.pipeline import homology_table
from mbhomology.schema import expected_from_doc, presentation_from_file
from mbhomology.simplicial import CoveringError, fundamental_cycle


def times_vector(mat, v):
    """The integer matrix `mat` applied to the vector `v`, as a tuple."""
    v = tuple(v)
    if len(v) != mat.cols:
        raise ValueError(f"vector of length {len(v)} against {mat.shape}")
    out = [0] * mat.rows
    for x, col in zip(v, mat.columns):
        for i, a in col.items():
            out[i] += a * x
    return tuple(out)


def submatrix_cols(mat, col_indices):
    """The columns `col_indices` of `mat`, in that order."""
    return IntMatrix.from_columns(mat.rows, len(col_indices),
                                  [mat.columns[j] for j in col_indices])


def index_of(k, simplex):
    """Position of `simplex` among the simplices of its dimension in `k`."""
    return k._index[tuple(simplex)]


def degrees_of(c):
    """Every degree from the lowest to the highest nonzero one of `c`."""
    lo, hi = c.degree_range
    return range(lo, hi + 1)


def structure_map(mc, j, p, i):
    """d[j] of the multicomplex `mc` out of (p, i); zero when not stored."""
    got = mc.maps.get((j, p, i))
    if got is not None:
        return got
    return IntMatrix.zeros(mc.rank(p + j - 1, i - j), mc.rank(p, i))


def to_sympy(mat):
    return SymMatrix(mat.rows, mat.cols, [x for row in mat.data for x in row])


def sym_rank(mat):
    if mat.rows == 0 or mat.cols == 0:
        return 0
    return to_sympy(mat).rank()


def sym_torsion(mat):
    """Invariant factors > 1 of an integer matrix, via sympy."""
    if mat.rows == 0 or mat.cols == 0:
        return ()
    factors = sym_invariant_factors(to_sympy(mat), domain=ZZ)
    return tuple(abs(int(d)) for d in factors if abs(int(d)) > 1)


def brute_homology(c, k):
    """(betti, torsion) by rank-nullity over Q plus invariant factors.

    betti_k = rank C_k - rank d_k - rank d_{k+1}; the torsion of H_k equals
    the torsion of C_k / im d_{k+1} because the ambient quotient's torsion
    lives inside the kernel of d_k.
    """
    betti = c.rank(k) - sym_rank(c.boundary(k)) - sym_rank(c.boundary(k + 1))
    return betti, sym_torsion(c.boundary(k + 1))


def random_complex(rng, max_total_rank=12, max_degree=3):
    """Random valid chain complex: an elementary model (zero maps and
    Z --d--> Z pieces) scrambled by integer basis changes that preserve
    d o d = 0."""
    lo = rng.randint(-1, 1)
    hi = lo + rng.randint(1, max_degree)
    ranks = {k: 0 for k in range(lo, hi + 1)}
    cols = {k: [] for k in range(lo, hi + 1)}  # boundary columns per degree
    total = 0
    while total < max_total_rank:
        kind = rng.random()
        k = rng.randint(lo, hi)
        if kind < 0.4:
            ranks[k] += 1
            cols[k].append(None)  # free generator, zero boundary
            total += 1
        else:
            if k == lo or total + 2 > max_total_rank:
                continue
            d = rng.choice([0, 1, 1, 2, 2, 3, 4, 6])
            target = ranks[k - 1]
            ranks[k - 1] += 1
            cols[k - 1].append(None)
            ranks[k] += 1
            cols[k].append((target, d))
            total += 2
        if rng.random() < 0.15:
            break

    boundaries = {}
    for k in range(lo, hi + 1):
        mat = [[0] * ranks[k] for _ in range(ranks.get(k - 1, 0))]
        for j, entry in enumerate(cols[k]):
            if entry is not None:
                i, d = entry
                mat[i][j] = d
        boundaries[k] = IntMatrix(ranks.get(k - 1, 0), ranks[k], mat)

    c = ChainComplex(ranks=ranks, boundaries=boundaries)
    scramble_basis(rng, c, steps=3 * max_total_rank)
    return c


def scramble_basis(rng, c, steps=20):
    """Apply random elementary basis changes in place; d o d stays zero."""
    for _ in range(steps):
        candidates = [k for k, r in c.ranks.items() if r >= 1]
        if not candidates:
            return
        k = rng.choice(candidates)
        n = c.ranks[k]
        lower = c.boundaries.get(k)
        upper = c.boundaries.get(k + 1)
        if rng.random() < 0.5 and n >= 2:
            # add c * (basis vector i) to basis vector j
            i, j = rng.sample(range(n), 2)
            coef = rng.choice([-2, -1, 1, 2])
            if lower is not None:
                rows = [list(r) for r in lower.data]
                for row in rows:
                    row[j] += coef * row[i]
                c.boundaries[k] = IntMatrix(lower.rows, lower.cols, rows)
            if upper is not None:
                rows = [list(r) for r in upper.data]
                for col in range(upper.cols):
                    rows[i][col] -= coef * rows[j][col]
                c.boundaries[k + 1] = IntMatrix(upper.rows, upper.cols, rows)
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            if lower is not None:
                c.boundaries[k] = submatrix_cols(lower, perm)
            if upper is not None:
                rows = [upper.data[p] for p in perm]
                c.boundaries[k + 1] = IntMatrix(upper.rows, upper.cols, rows)


def forbid_dense_rows(monkeypatch):
    """Make every dense-row form of IntMatrix raise outside `snf` and
    `MulticomplexReport.describe`: building a matrix from dense rows and
    reading its dense rows.  Returns the list of (shape, caller) built
    inside those two."""
    allowed = []
    built = []
    real_init, real_rows = IntMatrix.__init__, IntMatrix._dense_rows

    def guarded(real):
        def dense(self, *args):
            if not allowed:
                raise AssertionError("dense rows built outside snf and "
                                     "describe")
            result = real(self, *args)
            built.append((self.shape, allowed[-1]))
            return result
        return dense

    def allowing(fn, name):
        def call(*args, **kwargs):
            allowed.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                allowed.pop()
        return call

    monkeypatch.setattr(IntMatrix, "__init__", guarded(real_init))
    monkeypatch.setattr(IntMatrix, "_dense_rows", guarded(real_rows))
    monkeypatch.setattr(exactalg, "snf", allowing(exactalg.snf, "snf"))
    monkeypatch.setattr(MulticomplexReport, "describe",
                        allowing(MulticomplexReport.describe, "describe"))
    return built


def closed(simplices):
    """Every face of every listed simplex, as increasing tuples, lowest
    dimension first: the face closure the reader no longer forms, kept so
    that a test can write a complex by its top simplices."""
    faces = set()
    for s in simplices:
        s = sorted(set(s))
        faces.update(face for size in range(1, len(s) + 1)
                     for face in combinations(s, size))
    return sorted(faces, key=lambda s: (len(s), s))


def listed_by_dim(vertex_count, simplices):
    """{dimension: set of increasing simplices} of a listing, by one
    Python loop: `int` on each vertex in listing order, an empty simplex
    refused where it stands, then the lowest vertex outside the range,
    then the first facet not listed, lowest dimension first, in
    lexicographic order there, omitting the last vertex first."""
    by_dim = {}
    outside = []
    for s in simplices:
        s = tuple(sorted(set(map(int, s))))
        if not s:
            raise ValueError("empty simplex")
        if s[0] < 0 or s[-1] >= vertex_count:
            outside.append(s)
        by_dim.setdefault(len(s) - 1, set()).add(s)
    if outside:
        low = min(v for s in outside for v in s
                  if not 0 <= v < vertex_count)
        raise ValueError(f"malformed complex: {(low,)} uses vertices "
                         "outside range")
    for d in sorted(d for d in by_dim if d > 0):
        for s in sorted(by_dim[d]):
            for face in combinations(s, d):
                if face not in by_dim.get(d - 1, ()):
                    raise ValueError(f"malformed complex: face {face} is "
                                     "not listed")
    return by_dim


def facet_table(by_dim):
    """(index, facets) of the complex {dimension: simplices}, built simplex
    by simplex with `combinations`: the position of each simplex in the
    lexicographic order of its dimension, and per dimension d >= 1 the
    positions of the facets of each simplex, facet i omitting vertex i."""
    index, facets = {}, {}
    for d in sorted(by_dim):
        level = sorted(by_dim[d])
        index.update((s, t) for t, s in enumerate(level))
        if d > 0:
            facets[d] = tuple(tuple(index[face] for face in
                                    reversed(list(combinations(s, d))))
                              for s in level)
    return index, facets


def formed_faces(monkeypatch):
    """The list of (simplex, face) pairs, one per face that the simplicial
    module forms from here on, in the order it forms them.  Its constructor
    forms faces one way: `combinations` picks d of the d + 1 vertex columns
    of a level, and `zip` of those forms one facet of each simplex in turn,
    as the lookups ask for it.  So each picked set of columns is handed on
    with its first column counting the faces that `zip` draws from it."""
    formed = []
    real = simplicial.combinations

    def counted(column, pairs):
        for vertex, pair in zip(column, pairs):
            formed.append(pair)
            yield vertex

    def recorded(columns, r):
        simplices = list(zip(*columns))
        for rest in real(columns, r):
            yield (counted(rest[0], zip(simplices, zip(*rest))), *rest[1:])

    monkeypatch.setattr(simplicial, "combinations", recorded)
    return formed


def image_simplex(f, s):
    """(target simplex, sign) of a source simplex of the simplicial map
    `f`, read from its index and sign lists, or (None, 0) when the image is
    degenerate."""
    s = tuple(s)
    d, u = len(s) - 1, index_of(f.source, s)
    sign = f.image_sign[d][u]
    if not sign:
        return None, 0
    return f.target.simplices_of_dim(d)[f.image_index[d][u]], sign


def pushforward(f, chain):
    """Image of a sparse chain {simplex: coefficient} under a simplicial
    map: a simplex whose vertices collapse maps to zero, any other to its
    image simplex with the orientation sign of the sorting permutation."""
    out = {}
    for s, coeff in chain.items():
        image, sign = image_simplex(f, s)
        if image is not None:
            out[image] = out.get(image, 0) + sign * coeff
    return {s: c for s, c in out.items() if c}


def cycle_chain(k):
    """The fundamental cycle of `k` as a sparse chain {top simplex: +-1}."""
    return dict(zip(k.simplices_of_dim(k.top_dim), fundamental_cycle(k)[0]))


def count_walks(monkeypatch):
    """The list of complexes that `simplicial.fundamental_cycle` orients
    from here on, one entry per orientation walk."""
    walks = []
    orient = simplicial._orient

    def counted(k):
        walks.append(k)
        return orient(k)

    monkeypatch.setattr(simplicial, "_orient", counted)
    return walks


def covering_lifts(f):
    """Lifts of every target simplex under a simplicial covering, as
    {target simplex: [(source simplex, orientation sign), ...]}; raises
    CoveringError.

    A covering must be nondegenerate on every simplex, every lift of a face
    must extend to exactly one lift of each coface, and the number of lifts
    must be the same over every target simplex.  This is the check by
    simplices and faces that simplicial.check_covering makes by counts.
    """
    lifts = {}
    for s in f.source.all_simplices():
        image, sign = image_simplex(f, s)
        if image is None:
            raise CoveringError(f"simplex {s} collapses under the map",
                                witness=s)
        lifts.setdefault(image, []).append((s, sign))

    counts = set()
    for s in f.target.all_simplices():
        counts.add(len(lifts.get(s, [])))
    if len(counts) != 1:
        offending = next(s for s in f.target.all_simplices()
                         if len(lifts.get(s, [])) != max(counts))
        raise CoveringError(
            f"target simplex {offending} has {len(lifts.get(offending, []))} "
            f"lifts while others have {max(counts)}", witness=offending)

    # unique lifting: a lift of a face extends to exactly one lift per
    # coface, that is, it is a facet of exactly one lift of the coface
    source = f.source
    for d in sorted(f.target.simplices_by_dim):
        if d == 0:
            continue
        facets = source._facets.get(d, ())
        for s in f.target.simplices_of_dim(d):
            extensions = {}
            for up, _ in lifts.get(s, []):
                for face_lift in facets[index_of(source, up)]:
                    extensions[face_lift] = extensions.get(face_lift, 0) + 1
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                for face_lift, _ in lifts.get(face, []):
                    n = extensions.get(index_of(source, face_lift), 0)
                    if n != 1:
                        raise CoveringError(
                            f"lift {face_lift} of {face} extends to "
                            f"{n} lifts of {s}", witness=face)
    return lifts


def chain_to_column(k, d, chain):
    """Sparse matrix column {basis index: coefficient} of a degree-d
    sparse chain."""
    col = {}
    for s, coeff in chain.items():
        if len(s) - 1 != d:
            raise ValueError(f"simplex {s} is not of dimension {d}")
        col[index_of(k, s)] = coeff
    return col


def covering_pullback(f, chain):
    """Signed sum of lifts of each simplex of a chain on the target.

    Lift signs are chosen so that pushing the pullback forward returns the
    original chain multiplied by the sheet count; the operation commutes
    with boundaries.
    """
    lifts = covering_lifts(f)
    out = {}
    for s, coeff in chain.items():
        for lift, sign in lifts.get(tuple(s), []):
            out[lift] = out.get(lift, 0) + sign * coeff
    return {s: c for s, c in out.items() if c}


def chain_to_vector(k, d, chain):
    """Dense coefficient vector of a degree-d sparse chain."""
    vec = [0] * len(k.simplices_of_dim(d))
    for i, coeff in chain_to_column(k, d, chain).items():
        vec[i] = coeff
    return tuple(vec)


def matrix_of_pushforward(f, d):
    """Degree-d pushforward as a matrix in the lexicographic bases."""
    src = f.source.simplices_of_dim(d)
    return IntMatrix.from_columns(
        len(f.target.simplices_of_dim(d)), len(src),
        [chain_to_column(f.target, d, pushforward(f, {s: 1})) for s in src])


def matrix_of_pullback(f, d):
    """Degree-d covering pullback as a matrix in the lexicographic bases."""
    lifts = covering_lifts(f)
    tgt = f.target.simplices_of_dim(d)
    return IntMatrix.from_columns(
        len(f.source.simplices_of_dim(d)), len(tgt),
        [chain_to_column(f.source, d, dict(lifts.get(s, ()))) for s in tgt])


def full_point_rows(mc, fp, cap):
    """`mc`, the build of `fp`, with every point row of `fp` run on to
    column `cap`: each point gets e_0 .. e_cap, with d[0] = (-1)^(p+i) I at
    every even positive column past the row's own end.  This is the fat-row
    layout of the paper's truncation at `cap`, which `build_multicomplex`
    leaves out; the pairs it adds are an acyclic direct summand, so it
    serves as a reference for the one build."""
    ends = {}
    for (p, i), r in mc.row_ranks.items():
        if r:
            ends[i] = max(ends.get(i, 0), p)
    ranks, maps = dict(mc.row_ranks), dict(mc.maps)
    for model in fp.crit:
        if not (model.is_points and model.names):
            continue
        i, eye = model.index, IntMatrix.identity(len(model.names))
        for q in range(ends[i] + 1, cap + 1):
            ranks[(q, i)] = eye.rows
            if q % 2 == 0:
                maps[(0, q, i)] = eye.scaled(-1 if (q + i) % 2 else 1)
    return MBSMulticomplex(ambient_dim=mc.ambient_dim, row_ranks=ranks,
                           maps=maps)


def phi_embed(mc, k, c0):
    """Reference lift of a column-zero vector of row k into total degree k,
    one vector at a time: {i: c_i} for i = 0..k, odd c_i zero, and each
    even c_i the solution of

        d[0] c_i = -(d[i] c_0 + d[i-2] c_2 + ... + d[2] c_{i-2})

    found by sympy over the rationals, whatever the invertible d[0] is.  A
    slot of an absent row is empty.  Raises ValueError when some d[0] is
    not invertible or a solution is not integral."""
    c0 = tuple(c0)
    if len(c0) != mc.rank(0, k):
        raise ValueError(f"vector of length {len(c0)} in a rank "
                         f"{mc.rank(0, k)} slot")
    parts = {0: c0}
    for i in range(1, k + 1):
        n = mc.rank(i, k - i)
        if i % 2 or not n:
            parts[i] = (0,) * n
            continue
        rhs = [0] * mc.rank(i - 1, k - i)
        for t in range(0, i, 2):
            image = times_vector(structure_map(mc, i - t, t, k - t), parts[t])
            rhs = [a - b for a, b in zip(rhs, image)]
        d0 = to_sympy(structure_map(mc, 0, i, k - i))
        if not d0.is_square or d0.det() == 0:
            raise ValueError(f"d[0] at (p={i}, i={k - i}) is not invertible")
        solution = d0.LUsolve(SymMatrix(rhs))
        if not all(x.is_integer for x in solution):
            raise ValueError(f"no integer solution at (p={i}, i={k - i})")
        parts[i] = tuple(int(x) for x in solution)
    return parts


def total_residuals(mc):
    """The anticommutation failures of a multicomplex, read off D o D: form
    every D_(k-1) o D_k on the total complex and read each nonzero entry
    back by block, source block (p, i) and target block (p', i') giving
    the residual for j = i - i' at (p, i).  Returns [(j, p, i, residual)]
    for every nonzero residual, by source (i, p), then j: the paper's
    condition as the one equation D o D = 0, the reference for
    validate_multicomplex's identity-by-identity sums."""
    cx = mc.complex
    blocks = {}  # total degree -> [(offset, p, i)], by increasing p
    for (p, i), off in mc.block_offsets.items():
        blocks.setdefault(p + i, []).append((off, p, i))

    def block(k, n):
        """(p, i, rank, place in the block) of generator n of degree k."""
        at = blocks[k]
        b = max(t for t, (off, _, _) in enumerate(at) if off <= n)
        end = at[b + 1][0] if b + 1 < len(at) else cx.rank(k)
        return at[b][1], at[b][2], end - at[b][0], n - at[b][0]

    found = {}  # (i, p, j) -> (rows, cols, {column: {row: entry}})
    for k in cx.boundaries:
        if k - 1 not in cx.boundaries:
            continue
        for n, col in enumerate((cx.boundary(k - 1) @ cx.boundary(k)).columns):
            if not col:
                continue
            p, i, cols, c = block(k, n)
            for r, x in col.items():
                _, t, rows, s = block(k - 2, r)
                entries = found.setdefault((i, p, i - t), (rows, cols, {}))[2]
                entries.setdefault(c, {})[s] = x
    return [(j, p, i, IntMatrix.from_columns(
                rows, cols, [entries.get(c, {}) for c in range(cols)]))
            for (i, p, j), (rows, cols, entries) in sorted(found.items())]


class ChainMap:
    """Degree-zero map of chain complexes, one matrix per degree."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = components

    def component(self, k):
        if k in self.components:
            return self.components[k]
        return IntMatrix.zeros(self.target.rank(k), self.source.rank(k))


def chain_map_residuals(f):
    """{k: d_k f_k - f_{k-1} d_k} over every degree where either complex is
    nonzero, and the degree above each; all zero iff f is a chain map."""
    degs = set(degrees_of(f.source)) | set(degrees_of(f.target))
    return {k: f.target.boundary(k) @ f.component(k)
            + (f.component(k - 1) @ f.source.boundary(k)).scaled(-1)
            for k in sorted(degs | {d + 1 for d in degs})}


def mapping_cone(f):
    """Cone(f)_k = source_{k-1} (+) target_k with the sign-twisted boundary.

    Raises ValueError unless f commutes with the boundaries.
    """
    if not all(r.is_zero() for r in chain_map_residuals(f).values()):
        raise ValueError("not a chain map")
    return _cone(f)


def from_blocks(blocks, row_sizes, col_sizes):
    """Assemble a matrix from a 2d grid of blocks (None means zero)."""
    for bi, rsize in enumerate(row_sizes):
        for bj, csize in enumerate(col_sizes):
            block = blocks[bi][bj]
            if block is not None and block.shape != (rsize, csize):
                raise ValueError(
                    f"block ({bi},{bj}) has shape {block.shape}, "
                    f"expected ({rsize},{csize})")
    columns = []
    for bj, csize in enumerate(col_sizes):
        out = [{} for _ in range(csize)]
        r0 = 0
        for bi, rsize in enumerate(row_sizes):
            block = blocks[bi][bj]
            if block is not None:
                for col, bcol in zip(out, block.columns):
                    for i, x in bcol.items():
                        col[r0 + i] = x
            r0 += rsize
        columns.extend(out)
    return IntMatrix.from_columns(sum(row_sizes), sum(col_sizes), columns)


def _cone(f):
    """mapping_cone(f) for an f the caller has found a chain map."""
    src, tgt = f.source, f.target
    degs = {k + 1 for k in degrees_of(src)} | set(degrees_of(tgt))
    if not degs:
        return ChainComplex(ranks={}, boundaries={})
    ranks, boundaries = {}, {}
    for k in range(min(degs), max(degs) + 1):
        ranks[k] = src.rank(k - 1) + tgt.rank(k)
        boundaries[k] = from_blocks(
            [[src.boundary(k - 1).scaled(-1), None],
             [f.component(k - 1), tgt.boundary(k)]],
            row_sizes=[src.rank(k - 2), tgt.rank(k - 1)],
            col_sizes=[src.rank(k - 1), tgt.rank(k)],
        )
    return ChainComplex(ranks=ranks, boundaries=boundaries)


def quasi_iso(f):
    """True iff f induces isomorphisms on homology in every degree.

    Criterion: the mapping cone is acyclic, read from one homology pass
    over its degrees and the one above.
    """
    return _acyclic(mapping_cone(f))


def _acyclic(cone):
    """True iff `cone` has no homology in its degrees or the one above."""
    lo, hi = cone.degree_range
    return all(h == HomologyGroup(0, ())
               for h in homology_at(cone, range(lo, hi + 2)))


def _check_morse_shaped(cm, fp, mc):
    """Every point of cm must be the point of `fp` at its place, and every
    present row of `mc` a point row: one rank in each of its columns
    0..c, c even, and at every even positive column a d[0] block eps * I
    with eps = +1 or -1 read from the block.  Rows are walked over their
    own columns.  Raises ValueError otherwise."""
    for k in degrees_of(cm):
        if cm.rank(k) and fp.crit_at(k).names != cm.labels.get(k):
            raise ValueError(f"row {k} names {fp.crit_at(k).names} do not "
                             f"match critical points {cm.labels.get(k)}")
    # by increasing p, so each row keeps its last column
    ends = {i: p for (p, i), r in sorted(mc.row_ranks.items()) if r}
    for i, end in sorted(ends.items()):
        if end % 2 or any(mc.rank(p, i) != mc.rank(0, i)
                          for p in range(1, end + 1)):
            raise ValueError(f"row {i} has varying rank or ends at odd "
                             f"column {end}; the embedding needs point rows")
        for p in range(2, end + 1, 2):
            d0 = structure_map(mc, 0, p, i)
            eps = d0.columns[0].get(0, 0)
            if eps not in (1, -1) or any(
                    col != {j: eps} for j, col in enumerate(d0.columns)):
                raise ValueError(
                    f"d[0] at (p={p}, i={i}) is not +-I; the embedding "
                    "needs point rows")


def phi_chain_map(cm, fp, mc):
    """The paper's embedding as a chain map from the critical-point complex
    cm = morse_complex(md) into `mc.complex`, the total complex of a
    multicomplex of point rows whose points are those of the presentation
    `fp`, in its order.  The rows may run past column 0, as the fat
    rows of full_point_rows do; on a Morse document's build they stop
    there and the embedding is the identity.

    Row k lifts all at once: C_0 = I, the odd C_i are zero, and since d[0]
    is eps * I at each even bidegree (i, k - i),
    C_i = -eps * sum over even t < i of d[i - t] C_t.  An absent row, or a
    column past the end of a row, gives an empty slot (see verify_morse_mb).
    phi_embed solves the same recursion one vector at a time."""
    _check_morse_shaped(cm, fp, mc)
    components = {}
    for k in degrees_of(cm):
        n = cm.rank(k)
        parts = {0: IntMatrix.identity(n)}
        for i in range(2, k + 1, 2):
            rows = mc.rank(i, k - i)
            acc = IntMatrix.zeros(rows, n)
            if rows:
                for t in range(0, i, 2):
                    acc = acc + structure_map(mc, i - t, t, k - t) @ parts[t]
                acc = acc.scaled(-structure_map(mc, 0, i, k - i).columns[0][0])
            parts[i] = acc
        cols = [{} for _ in range(n)]
        for i, part in parts.items():
            off = mc.block_offsets.get((i, k - i))
            for col, entries in zip(cols, part.columns):
                col.update((off + s, x) for s, x in entries.items())
        components[k] = IntMatrix.from_columns(mc.complex.rank(k), n, cols)
    return ChainMap(source=cm, target=mc.complex, components=components)


def equals_morse_complex(cm, fp, mc):
    """The reference for morse.is_critical_point_complex: True iff the
    total complex of `mc`, the build of `fp`, equals cm = morse_complex(md)
    as matrices: the same nonzero ranks, the names of fp's index-k points
    in the order of cm for every k, and the same boundary in every
    degree."""
    total = mc.complex
    ranks = {k: r for k, r in total.ranks.items() if r}
    return (ranks == {k: r for k, r in cm.ranks.items() if r}
            and all(fp.crit_at(k).names == cm.labels.get(k) for k in ranks)
            and all(total.boundary(k) == cm.boundary(k)
                    for k in {*total.boundaries, *cm.boundaries}))


class MorseVerification:
    """Outcome of checking the embedding against the multicomplex."""

    def __init__(self, chain_map_residuals, odd_components_zero,
                 is_quasi_iso, morse_homology, mb_homology, embedding=None):
        self.chain_map_residuals = chain_map_residuals
        self.odd_components_zero = odd_components_zero
        self.is_quasi_iso = is_quasi_iso
        self.morse_homology = morse_homology
        self.mb_homology = mb_homology
        self.embedding = embedding

    @property
    def chain_map_exact(self):
        return all(r.is_zero() for r in self.chain_map_residuals.values())

    @property
    def ok(self):
        return (self.chain_map_exact and self.odd_components_zero
                and self.is_quasi_iso
                and self.morse_homology == self.mb_homology)


def verify_morse_mb(cm, fp, mc):
    """The paper's comparison theorem, checked on `mc`: the embedding phi
    of the critical-point complex cm = morse_complex(md), its residuals
    d phi - phi d per degree, zero odd columns, the mapping-cone verdict on
    an exact phi, and both homology tables in degrees 0..ambient_dim.  The
    embedding is kept on the outcome.

    On a build of flow data the outcome is the one the fat rows, run on to
    any column cap, would give.  Point sources land only at column 0, so each
    lift term C_i = -eps d[i] C_0 lies at column i <= c_{k-i}, where point
    row k - i stops (flowdata.build_multicomplex): the fat embedding lands
    in the kept total complex T and is phi.  The fat total complex is T + A
    with A acyclic, so cone(phi_fat) = cone(phi) + A, and the residuals,
    the quasi-isomorphism verdict and both tables are unchanged.  On a
    Morse document's build phi is the identity, and the `morse` command
    checks that against the counts (morse.is_critical_point_complex).

    The total table comes last, from the one table every command makes
    (pipeline.homology_table), which raises InvalidMulticomplex when `mc`
    fails `validate_multicomplex`.
    """
    phi = phi_chain_map(cm, fp, mc)
    residuals = chain_map_residuals(phi)

    odd_zero = not any(
        off <= r < off + mc.rank(i, j)
        for (i, j), off in mc.block_offsets.items() if i % 2
        for col in phi.component(i + j).columns for r in col)
    exact = all(r.is_zero() for r in residuals.values())
    return MorseVerification(
        chain_map_residuals=residuals,
        odd_components_zero=odd_zero,
        is_quasi_iso=exact and _acyclic(_cone(phi)),
        morse_homology=homology_at(cm, range(mc.ambient_dim + 1)),
        mb_homology=homology_table(mc, range(mc.ambient_dim + 1)),
        embedding=phi,
    )


# ---------------------------------------------------------------------------
# files that are not modules of a package


ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def load_file(relative):
    """The Python file at `relative` under the repo root, loaded as a
    module: scripts/make_corpus.py holds the document writers, and
    perfbench/workloads.py the benchmark's generators."""
    path = ROOT / relative
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_corpus(name):
    """(presentation, Morse data or None, document, expected table or
    None) of the shipped file `name`.json, read as every command reads
    it: by schema.presentation_from_file and schema.expected_from_doc."""
    path = str(data_dir() / f"{name}.json")
    fp, md, doc = presentation_from_file(path)
    return fp, md, doc, expected_from_doc(doc, where=path)


def corpus_names(kind):
    """Names of the shipped files of `kind`, "flow" or "morse"."""
    return [name for name in entry_names()
            if read_corpus(name)[2].get("kind", "flow") == kind]


def morse_doc_of(k):
    """The `kind: morse` document of the simplicial complex `k`: one
    critical point per simplex, of index its dimension, and count (-1)^i
    from each simplex to its facet i, so its critical-point complex is the
    simplicial chain complex of `k`."""
    def name(s):
        return ".".join(map(str, s))

    return {
        "schema": 1,
        "kind": "morse",
        "critical": {str(d): list(map(name, level))
                     for d, level in k.simplices_by_dim.items()},
        "counts": [[name(s), name(s[:i] + s[i + 1:]), (-1) ** i]
                   for s in k.all_simplices() if len(s) > 1
                   for i in range(len(s))],
    }


# ---------------------------------------------------------------------------
# mapping tori of the grid torus


def linear_twists():
    """The 12 linear automorphisms of the grid torus
    (workloads.torus_triangles), as 2x2 integer matrices acting on (i, j):
    the group generated by the swap and rho: (i, j) -> (i - j, i)."""
    generators = (((0, 1), (1, 0)), ((1, -1), (1, 0)))
    group, frontier = set(), [((1, 0), (0, 1))]
    while frontier:
        m = frontier.pop()
        if m not in group:
            group.add(m)
            frontier += [tuple(tuple(sum(g[r][t] * m[t][c] for t in range(2))
                                     for c in range(2)) for r in range(2))
                         for g in generators]
    return sorted(group)


def twist_doc(n, phi):
    """The bott-twist document of the benchmark with monodromy `phi`, in
    unshuffled labels: critical tori of index 0 and 1, and two one-sheet
    components from the upper torus to the lower one, the identity with
    sign +1 and `phi` with sign -1.  Its build is the mapping torus of
    phi."""
    wl = load_file("perfbench/workloads.py")
    torus = wl.complex_doc(n, wl.torus_triangles(n), range(n * n))
    (a, b), (c, d) = phi
    image = [(a * i + b * j) % n * n + (c * i + d * j) % n
             for i, j in (divmod(x, n) for x in range(n * n))]
    ident = list(range(n * n))
    return {
        "schema": 1,
        "kind": "flow",
        "dim": 3,
        "critical": [{"index": 0, "kind": "simplicial", "complex": torus},
                     {"index": 1, "kind": "simplicial", "complex": torus}],
        "moduli": [{"from": 1, "to": 0, "domain": torus, "ev_minus": ident,
                    "ev_plus": ident, "sign": 1},
                   {"from": 1, "to": 0, "domain": torus, "ev_minus": ident,
                    "ev_plus": image, "sign": -1}],
    }


def wang_table(phi):
    """[(betti, torsion)] in degrees 0..3 of the mapping torus of phi on
    T^2, from the Wang sequence, which splits here: H_1 = Z + coker(phi -
    1), H_2 = ker(phi - 1) + coker(det phi - 1), H_3 = ker(det phi - 1)."""
    (a, b), (c, d) = phi
    minus_one = IntMatrix(2, 2, [[a - 1, b], [c, d - 1]])
    kernel = 2 - sym_rank(minus_one)
    det_minus_one = IntMatrix(1, 1, [[a * d - b * c - 1]])
    det_kernel = 1 - sym_rank(det_minus_one)
    return [(1, ()),
            (1 + kernel, sym_torsion(minus_one)),
            (kernel + det_kernel, sym_torsion(det_minus_one)),
            (det_kernel, ())]

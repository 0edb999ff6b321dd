"""Shared test helpers: random complexes, independent homology oracles,
and chain-level views of simplicial maps that only tests need."""

import random

from sympy import Matrix as SymMatrix
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors as sym_invariant_factors

from mbhomology import exactalg
from mbhomology.chain import ChainComplex
from mbhomology.exactalg import IntMatrix
from mbhomology.multicomplex import MulticomplexReport
from mbhomology.simplicial import chain_to_column, covering_lifts, pushforward


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
                c.boundaries[k] = lower.submatrix_cols(perm)
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
    tgt = f.target.simplices_of_dim(d)
    return IntMatrix.from_columns(
        len(f.source.simplices_of_dim(d)), len(tgt),
        [chain_to_column(f.source, d, covering_pullback(f, {s: 1}))
         for s in tgt])


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
            image = mc.map(i - t, t, k - t).times_vector(parts[t])
            rhs = [a - b for a, b in zip(rhs, image)]
        d0 = to_sympy(mc.map(0, i, k - i))
        if not d0.is_square or d0.det() == 0:
            raise ValueError(f"d[0] at (p={i}, i={k - i}) is not invertible")
        solution = d0.LUsolve(SymMatrix(rhs))
        if not all(x.is_integer for x in solution):
            raise ValueError(f"no integer solution at (p={i}, i={k - i})")
        parts[i] = tuple(int(x) for x in solution)
    return parts


def pairwise_residuals(mc):
    """The anticommutation failures of a multicomplex, summed pair by pair
    over its stored maps: d[q] o d[a] from (p, i) lands in
    (p+a+q-2, i-a-q) and adds to the residual for j = a+q.  Absent maps
    are zero, so only pairs of stored maps contribute.  Returns
    [(j, p, i, residual)] for every nonzero residual, by source (i, p),
    then j: the reference for validate_multicomplex's read-back of
    D o D by block."""
    by_source = {}
    for (j, p, i), mat in mc.maps.items():
        by_source.setdefault((p, i), []).append((j, mat))
    failures = []
    for p, i in sorted(by_source, key=lambda b: (b[1], b[0])):
        residuals = {}
        for a, first in by_source[(p, i)]:
            for q, second in by_source.get((p + a - 1, i - a), ()):
                j = a + q
                term = second @ first
                residuals[j] = residuals[j] + term if j in residuals else term
        failures.extend((j, p, i, residuals[j]) for j in sorted(residuals)
                        if not residuals[j].is_zero())
    return failures

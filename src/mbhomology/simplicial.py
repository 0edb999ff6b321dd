"""Finite ordered simplicial complexes and the maps between them.

A complex is given by all its simplices, every face listed.  Complexes
model critical submanifolds and moduli components: the fundamental cycle,
+/-1 per top simplex and kept on its complex, stands in for a representing
chain, and a map keeps the index and sign of each simplex's image, so that
pushforward along evaluation maps and pullback along simplicial coverings
are index arithmetic.  Chains keyed by simplex are test references.
"""

from collections import Counter
from itertools import chain, combinations, groupby, repeat

from .chain import ChainComplex
from .exactalg import IntMatrix


class NoFundamentalCycle(ValueError):
    """Raised when a complex is not an orientable pseudomanifold."""


class CoveringError(ValueError):
    """Raised when a map fails the simplicial covering check; carries the
    first witnessing simplex."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SimplicialComplexData:
    """A complex as it is listed: every face of every listed simplex must
    be listed too.  Simplices are strictly increasing vertex tuples.

    The vertex order provides orientations.  Basis order within each
    dimension is lexicographic, so chain-level constructions downstream are
    deterministic.  The constructor takes simplices in any vertex order,
    repeats allowed.  Every listing is normalized in C-level passes that
    apply `int` to each vertex in listing order, so a conversion error is
    raised first, as `int` raises it.  It then refuses an empty simplex,
    then a vertex outside 0 .. vertex_count - 1, naming the lowest.  It
    stores `top_dim` (-1 when empty) and fills the facet table, one pass
    per dimension: `_facets[d][t]` holds the indices, in dimension d - 1,
    of the facets of simplex t of dimension d, facet i omitting vertex i.
    That pass looks up every facet, so it is also the check that the
    listing is closed under faces: the first facet it does not find,
    lowest dimension first and in lexicographic order there, is refused.
    No face is ever added, so the work follows the size of the listing.
    `_cycle` holds the result of `fundamental_cycle` once it is found.

    >>> k = SimplicialComplexData(3, [(0, 2, 1), (0, 1), (0, 2), (1, 2),
    ...                               (0,), (1,), (2,)])
    >>> len(list(k.all_simplices())), k._facets[2]
    (7, ((2, 1, 0),))
    >>> SimplicialComplexData(3, [(0, 5), (-1, 1)])
    Traceback (most recent call last):
    ...
    ValueError: malformed complex: (-1,) uses vertices outside range
    >>> SimplicialComplexData(3, [(0, 1), (0,)])
    Traceback (most recent call last):
    ...
    ValueError: malformed complex: face (1,) is not listed
    """

    __slots__ = ("vertex_count", "simplices_by_dim", "top_dim", "_index",
                 "_facets", "_cycle")

    def __init__(self, vertex_count, simplices):
        self.vertex_count = vertex_count
        listed = set(map(tuple, map(sorted, map(set, map(
            map, repeat(int), simplices)))))
        if () in listed:
            raise ValueError("empty simplex")
        used = set(chain.from_iterable(listed))
        if used and (min(used) < 0 or max(used) >= vertex_count):
            low = min(v for v in used if not 0 <= v < vertex_count)
            raise ValueError(f"malformed complex: {(low,)} uses vertices "
                             "outside range")
        self.simplices_by_dim = {n - 1: tuple(sorted(group)) for n, group in
                                 groupby(sorted(listed, key=len), len)}
        self.top_dim = max(self.simplices_by_dim, default=-1)
        self._cycle = None
        index = self._index = {}
        self._facets = {}
        for d, level in self.simplices_by_dim.items():
            index.update(zip(level, range(len(level))))
            if d > 0:
                try:
                    flat = list(map(index.__getitem__, chain.from_iterable(
                        map(combinations, level, repeat(d)))))
                except KeyError as missing:
                    face = missing.args[0]
                    raise ValueError(f"malformed complex: face {face} is "
                                     "not listed") from None
                # facet i omits vertex i, and combinations omits the last
                # vertex first: cut the reversed indices into (d + 1)-tuples
                flat.reverse()
                self._facets[d] = tuple(zip(*[iter(flat)] * (d + 1)))[::-1]

    @classmethod
    def from_simplices(cls, simplices, vertex_count=None):
        """The constructor, with `vertex_count` one past the highest listed
        vertex unless given."""
        if vertex_count is None:
            simplices = [tuple(map(int, s)) for s in simplices]
            vertex_count = max([v + 1 for s in simplices for v in s] or [0])
        return cls(vertex_count, simplices)

    def simplices_of_dim(self, d):
        return self.simplices_by_dim.get(d, ())

    def all_simplices(self):
        for d in sorted(self.simplices_by_dim):
            yield from self.simplices_by_dim[d]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialComplexData):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.simplices_by_dim == other.simplices_by_dim)

    def __repr__(self):
        return (f"SimplicialComplexData(vertices={self.vertex_count}, "
                f"simplices={list(self.all_simplices())})")


class SimplicialMap:
    """Vertex map whose image of every simplex spans a simplex of the
    target (possibly of lower dimension).

    The constructor checks every source simplex, in the order of
    `all_simplices`, and keeps two lists per source dimension d over the
    d-simplices: `image_index[d][u]`, the index of the image of simplex u
    among the target simplices of the image's dimension, and
    `image_sign[d][u]`, its orientation sign, 0 when the image is
    degenerate.  `check_covering` and the builder read them as index
    arithmetic.

    >>> edge = SimplicialComplexData(2, [(0, 1), (0,), (1,)])
    >>> f = SimplicialMap(edge, edge, [1, 0])
    >>> f.image_index, f.image_sign
    ([[1, 0], [0]], [[1, 1], [-1]])
    """

    def __init__(self, source, target, vertex_image):
        self.source = source
        self.target = target
        self.vertex_image = tuple(map(int, vertex_image))
        if len(self.vertex_image) != self.source.vertex_count:
            raise ValueError(
                f"vertex map covers {len(self.vertex_image)} of "
                f"{self.source.vertex_count} vertices")
        for v in self.vertex_image:
            if not (0 <= v < self.target.vertex_count):
                raise ValueError(f"image vertex {v} outside target")
        self.image_index, self.image_sign = indices, signs = [], []
        at = self.vertex_image.__getitem__
        in_target = target._index.get
        for level in source.simplices_by_dim.values():
            indices.append(index := [])
            signs.append(sign := [])
            for s in level:
                image = tuple(map(at, s))
                spanned = tuple(sorted(set(image)))
                t = in_target(spanned)
                if t is None:
                    raise ValueError(f"image {spanned} of {s} is not a "
                                     "simplex of the target")
                index.append(t)
                # an increasing image keeps the orientation
                sign.append(0 if len(spanned) < len(s) else
                            1 if image == spanned else _sort_sign(image))


def _sort_sign(values):
    """Sign of the permutation that sorts a list of distinct values."""
    sign = 1
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            if a > b:
                sign = -sign
    return sign


def boundary_matrix(k, d, sign):
    """`sign` times the boundary of the d-simplices of `k`, d >= 1: facet
    i of each simplex at sign * (-1)^i, in one C-level pass over the facet
    table (the facets of a simplex are distinct rows)."""
    signs = [sign * (-1) ** i for i in range(d + 1)]
    return IntMatrix._of(len(k.simplices_of_dim(d - 1)),
                         len(k.simplices_of_dim(d)),
                         map(dict, map(zip, k._facets[d], repeat(signs))))


def chain_complex_of(k):
    """Simplicial chain complex: face sums with alternating signs.

    >>> tri = SimplicialComplexData.from_simplices(
    ...     [(0, 1), (1, 2), (0, 2), (0,), (1,), (2,)])
    >>> c = chain_complex_of(tri)
    >>> [c.rank(0), c.rank(1)]
    [3, 3]
    """
    return ChainComplex(
        ranks={d: len(k.simplices_of_dim(d)) for d in range(k.top_dim + 1)},
        boundaries={d: boundary_matrix(k, d, 1)
                    for d in range(1, k.top_dim + 1)})


def fundamental_cycle(k):
    """(coefficients, boundary) of `k`, found once per complex object and
    kept on it: +/-1 per top simplex, in the order of
    `k.simplices_of_dim(k.top_dim)`, the lexicographically first of each
    connected component +1, and the ridges in a single top simplex, in
    order.  A closed complex gives a cycle, one with boundary a relative
    cycle.  Raises NoFundamentalCycle, on every call, if `k` is not a
    pure orientable pseudomanifold.

    >>> path = [(0, 1), (1, 2), (0,), (1,), (2,)]
    >>> fundamental_cycle(SimplicialComplexData(3, path))
    ((1, 1), ((0,), (2,)))
    """
    if k._cycle is None:
        k._cycle = _orient(k)
    return k._cycle


def _orient(k):
    """Purity, ridge incidence, then the walk of `fundamental_cycle`."""
    d = k.top_dim
    if d < 0:
        raise NoFundamentalCycle("empty complex")
    tops = k.simplices_of_dim(d)
    if d == 0:
        return (1,) * len(tops), ()

    # purity: every simplex is a face of some top simplex.  Going down
    # from the top, the first dimension with a simplex outside the faces of
    # the dimension above holds a maximal one
    facets = k._facets
    covered = range(len(tops))
    for dim in range(d, 0, -1):
        below = {f for t in covered for f in facets[dim][t]}
        simplices = k.simplices_of_dim(dim - 1)
        if len(below) < len(simplices):
            first = next(t for t in range(len(simplices)) if t not in below)
            raise NoFundamentalCycle(
                f"not a pseudomanifold: {simplices[first]} is maximal below "
                f"dimension {d}")
        covered = below

    # ridge incidences: (top simplex index, sign of the omitted vertex)
    ridges = k.simplices_of_dim(d - 1)
    incidence = {}
    for t, row in enumerate(facets[d]):
        for i, ridge in enumerate(row):
            incidence.setdefault(ridge, []).append((t, (-1) ** i))
    boundary_ridges = []
    for ridge, hits in incidence.items():
        if len(hits) > 2:
            raise NoFundamentalCycle(
                f"not a pseudomanifold: ridge {ridges[ridge]} lies in "
                f"{len(hits)} top simplices")
        if len(hits) == 1:
            boundary_ridges.append(ridge)

    coeff = [0] * len(tops)  # top simplex index -> +-1, 0 while unvisited
    for start in range(len(tops)):
        if coeff[start]:
            continue
        coeff[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for ridge in facets[d][t]:
                hits = incidence[ridge]
                if len(hits) != 2:
                    continue
                (t1, s1), (t2, s2) = hits
                other, osign, msign = (t2, s2, s1) if t1 == t else (t1, s1, s2)
                # coherent orientation: the two induced signs must cancel
                needed = -coeff[t] * msign * osign
                previous = coeff[other]
                if not previous:
                    coeff[other] = needed
                    stack.append(other)
                elif previous != needed:
                    raise NoFundamentalCycle(
                        f"not orientable: conflicting orientation at "
                        f"ridge {ridges[ridge]}")
    return tuple(coeff), tuple(ridges[r] for r in sorted(boundary_ridges))


def check_covering(f):
    """Raise CoveringError unless `f` is a simplicial covering: no simplex
    collapses, every target simplex has the same number k of lifts, and
    each lift of a face is a facet of exactly one lift of each coface.

    Each condition is a count over the map's index lists.  The facets of
    the lifts of a target d-simplex give k (d + 1) pairs (simplex, source
    facet), all among the k (d + 1) pairs (simplex, lift of a face) that
    must each occur once, so unique lifting holds when no pair repeats.
    Only a failed count looks for its witness, the first that the
    definition names: in source order, in target order, then by target
    simplex, face and lift.
    """
    source, target = f.source, f.target
    for level, sign in zip(source.simplices_by_dim.values(), f.image_sign):
        if 0 in sign:
            s = level[sign.index(0)]
            raise CoveringError(f"simplex {s} collapses under the map",
                                witness=s)
    counts = [Counter(index) for index in f.image_index]
    counts += [Counter()] * (len(target.simplices_by_dim) - len(counts))
    counted = [count[t] for count, level in
               zip(counts, target.simplices_by_dim.values())
               for t in range(len(level))]
    k = max(counted, default=0)
    if min(counted, default=0) != k:
        n, s = next(ns for ns in zip(counted, target.all_simplices())
                    if ns[0] != k)
        raise CoveringError(f"target simplex {s} has {n} lifts while others "
                            f"have {k}", witness=s)
    for d in range(1, len(f.image_index)):
        index, facets = f.image_index[d], source._facets[d]
        if len({(t, g) for t, row in zip(index, facets) for g in row}) == \
                len(index) * (d + 1):
            continue
        lifts = {}  # (dimension, target index) -> source indices
        for e in (d - 1, d):
            for u, t in enumerate(f.image_index[e]):
                lifts.setdefault((e, t), []).append(u)
        faces = target.simplices_of_dim(d - 1)
        for t, s in enumerate(target.simplices_of_dim(d)):
            extensions = Counter(g for u in lifts.get((d, t), ())
                                 for g in facets[u])
            for face in target._facets[d][t]:
                for g in lifts.get((d - 1, face), ()):
                    if extensions[g] != 1:
                        raise CoveringError(
                            f"lift {source.simplices_of_dim(d - 1)[g]} of "
                            f"{faces[face]} extends to {extensions[g]} lifts "
                            f"of {s}", witness=faces[face])

"""Finite ordered simplicial complexes and the maps between them.

These model critical submanifolds and moduli components: oriented
fundamental cycles stand in for representing chains, pushforward along
simplicial maps realizes composition with evaluation maps, and pullback
along simplicial coverings realizes the fibered product with a space whose
projection restricts to sheeted isomorphisms.
"""

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


def _close(by_dim):
    """Add to `by_dim`, {dimension: set of simplices}, the facets of each
    simplex, from the top dimension down, so it is closed under faces."""
    for d in range(max(by_dim, default=0), 0, -1):
        faces = by_dim.setdefault(d - 1, set())
        for s in by_dim.get(d, ()):
            for i in range(d + 1):
                faces.add(s[:i] + s[i + 1:])


class SimplicialComplexData:
    """Simplices as strictly increasing vertex tuples, closed under faces.

    The vertex order provides orientations.  Basis order within each
    dimension is lexicographic, so chain-level constructions downstream are
    deterministic.  The constructor checks all of this once and raises
    ValueError on a malformed complex, so every instance is well formed.
    On the way it fills the facet table: `_facets[d][t]` holds the indices,
    in dimension d - 1, of the facets of simplex t of dimension d, facet i
    omitting vertex i.
    """

    __slots__ = ("vertex_count", "simplices_by_dim", "_index", "_facets")

    def __init__(self, vertex_count, simplices_by_dim):
        self.vertex_count = vertex_count
        self.simplices_by_dim = {
            d: tuple(sorted(tuple(s) for s in simplices))
            for d, simplices in simplices_by_dim.items() if simplices
        }
        self._index = {}
        for simplices in self.simplices_by_dim.values():
            for i, s in enumerate(simplices):
                self._index[s] = i
        self._facets = {}
        problem = self._first_problem()
        if problem:
            raise ValueError(f"malformed complex: {problem}")

    @classmethod
    def from_simplices(cls, simplices, vertex_count=None):
        """Build from any iterable of simplices, closing under faces.

        Vertices outside 0 .. vertex_count - 1 are refused before the
        closure, by the constructor's check of the 0-skeleton, which names
        the lowest of them: an n-vertex simplex has 2^n - 1 faces.
        """
        by_dim = {}
        for s in simplices:
            s = tuple(sorted(set(map(int, s))))
            if not s:
                raise ValueError("empty simplex")
            by_dim.setdefault(len(s) - 1, set()).add(s)
        listed = [s for level in by_dim.values() for s in level]
        lo = min((s[0] for s in listed), default=0)
        hi = max((s[-1] for s in listed), default=-1)
        if vertex_count is None:
            vertex_count = hi + 1
        if lo < 0 or hi >= vertex_count:
            # raises, naming the lowest vertex outside the range
            cls(vertex_count, {0: {(v,) for s in listed for v in s}})
        _close(by_dim)
        return cls(vertex_count, by_dim)

    @property
    def top_dim(self):
        return max(self.simplices_by_dim, default=-1)

    def simplices_of_dim(self, d):
        return self.simplices_by_dim.get(d, ())

    def has(self, simplex):
        return tuple(simplex) in self._index

    def index_of(self, simplex):
        return self._index[tuple(simplex)]

    def all_simplices(self):
        for d in sorted(self.simplices_by_dim):
            yield from self.simplices_by_dim[d]

    def _first_problem(self):
        """What is wrong with the lowest malformed simplex, or None; fills
        `_facets` up to the dimension below it."""
        index = self._index
        for d in sorted(self.simplices_by_dim):
            table = []
            for s in self.simplices_by_dim[d]:
                if len(s) != d + 1:
                    return f"{s} listed at dimension {d}"
                if list(s) != sorted(set(s)):
                    return f"{s} is not strictly increasing"
                if s and (s[0] < 0 or s[-1] >= self.vertex_count):
                    return f"{s} uses vertices outside range"
                if d > 0:
                    facets = tuple(index.get(s[:i] + s[i + 1:])
                                   for i in range(d + 1))
                    if None in facets:
                        # lexicographically first: omit the last vertex
                        i = max(i for i, t in enumerate(facets) if t is None)
                        return f"face {s[:i] + s[i + 1:]} of {s} is missing"
                    table.append(facets)
            if d > 0:
                self._facets[d] = tuple(table)
        return None

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SimplicialComplexData):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self.simplices_by_dim == other.simplices_by_dim)

    def __repr__(self):
        tops = [s for s in self.all_simplices()]
        return (f"SimplicialComplexData(vertices={self.vertex_count}, "
                f"simplices={tops})")


class SimplicialMap:
    """Vertex map whose image of every simplex spans a simplex of the
    target (possibly of lower dimension).

    The constructor checks every source simplex and keeps its image and
    orientation sign, which `image_simplex`, `pushforward` and
    `covering_lifts` read.
    """

    def __init__(self, source, target, vertex_image):
        self.source = source
        self.target = target
        self.vertex_image = tuple(int(v) for v in vertex_image)
        if len(self.vertex_image) != self.source.vertex_count:
            raise ValueError(
                f"vertex map covers {len(self.vertex_image)} of "
                f"{self.source.vertex_count} vertices")
        for v in self.vertex_image:
            if not (0 <= v < self.target.vertex_count):
                raise ValueError(f"image vertex {v} outside target")
        self._images = {}
        for s in self.source.all_simplices():
            image = [self.vertex_image[v] for v in s]
            spanned = tuple(sorted(set(image)))
            if not self.target.has(spanned):
                raise ValueError(f"image {spanned} of {s} is not a simplex "
                                 "of the target")
            self._images[s] = ((spanned, _sort_sign(image))
                               if len(spanned) == len(s) else (None, 0))

    def image_simplex(self, simplex):
        """(target simplex, sign) of a source simplex, or (None, 0) when the
        image is degenerate."""
        return self._images[tuple(simplex)]


def _sort_sign(values):
    """Sign of the permutation that sorts a list of distinct values."""
    sign = 1
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            if a > b:
                sign = -sign
    return sign


class OrientedCycle:
    """Top-dimensional chain with +/-1 coefficients: the fundamental cycle
    of an oriented pseudomanifold, relative to its boundary when there is
    one."""

    def __init__(self, complex, coefficients, boundary_simplices=()):
        self.complex = complex
        self.coefficients = coefficients
        self.boundary_simplices = boundary_simplices

    def as_chain(self):
        return dict(self.coefficients)

    def boundary_chain(self):
        return boundary_of_chain(self.as_chain())

    def is_closed(self):
        return not self.boundary_simplices


def chain_complex_of(k):
    """Simplicial chain complex: face sums with alternating signs.

    >>> tri = SimplicialComplexData.from_simplices([(0, 1), (1, 2), (0, 2)])
    >>> c = chain_complex_of(tri)
    >>> [c.rank(0), c.rank(1)]
    [3, 3]
    """
    ranks = {d: len(k.simplices_of_dim(d)) for d in range(k.top_dim + 1)}
    boundaries = {}
    for d in range(1, k.top_dim + 1):
        signs = [(-1) ** i for i in range(d + 1)]
        columns = [dict(zip(facets, signs)) for facets in k._facets[d]]
        boundaries[d] = IntMatrix.from_columns(ranks[d - 1], ranks[d],
                                               columns)
    return ChainComplex(ranks=ranks, boundaries=boundaries)


def boundary_of_chain(chain):
    """Alternating face sum of a sparse chain {simplex: coefficient}."""
    out = {}
    for s, coeff in chain.items():
        for i in range(len(s)):
            face = s[:i] + s[i + 1:]
            if face:
                out[face] = out.get(face, 0) + (-1) ** i * coeff
    return {s: c for s, c in out.items() if c}


def fundamental_cycle(k):
    """Coherently oriented +/-1 chain on the top simplices.

    Works component by component; in each connected component the
    lexicographically first top simplex gets +1.  Closed components give a
    cycle; components with boundary give a relative cycle whose boundary
    lies on the ridges contained in a single top simplex.

    Raises NoFundamentalCycle if the complex is not a pure pseudomanifold
    or is not orientable.
    """
    d = k.top_dim
    if d < 0:
        raise NoFundamentalCycle("empty complex")
    tops = k.simplices_of_dim(d)
    if d == 0:
        return OrientedCycle(k, {s: 1 for s in tops})

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

    coeff = {}  # top simplex index -> +-1
    for start in range(len(tops)):
        if start in coeff:
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
                previous = coeff.get(other)
                if previous is None:
                    coeff[other] = needed
                    stack.append(other)
                elif previous != needed:
                    raise NoFundamentalCycle(
                        f"not orientable: conflicting orientation at "
                        f"ridge {ridges[ridge]}")
    return OrientedCycle(
        k, {tops[t]: c for t, c in coeff.items()},
        boundary_simplices=tuple(ridges[r] for r in sorted(boundary_ridges)))


def pushforward(f, chain):
    """Image of a sparse chain under a simplicial map.

    Simplices whose vertices collapse map to zero; otherwise the image
    simplex appears with the orientation sign of the sorting permutation.
    """
    out = {}
    for s, coeff in chain.items():
        image, sign = f.image_simplex(s)
        if image is not None:
            out[image] = out.get(image, 0) + sign * coeff
    return {s: c for s, c in out.items() if c}


def covering_lifts(f):
    """Lifts of every target simplex under a simplicial covering, as
    {target simplex: [(source simplex, orientation sign), ...]}; raises
    CoveringError.

    A covering must be nondegenerate on every simplex, every lift of a face
    must extend to exactly one lift of each coface, and the number of lifts
    must be the same over every target simplex.
    """
    lifts = {}
    for s, (image, sign) in f._images.items():
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
                for face_lift in facets[source.index_of(up)]:
                    extensions[face_lift] = extensions.get(face_lift, 0) + 1
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                for face_lift, _ in lifts.get(face, []):
                    n = extensions.get(source.index_of(face_lift), 0)
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
        col[k.index_of(s)] = coeff
    return col

"""Finite ordered simplicial complexes and the maps between them.

These model critical submanifolds and moduli components: oriented
fundamental cycles stand in for representing chains, pushforward along
simplicial maps realizes composition with evaluation maps, and pullback
along simplicial coverings realizes the fibered product with a space whose
projection restricts to sheeted isomorphisms.
"""

from itertools import combinations

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
    """Simplices as strictly increasing vertex tuples, closed under faces.

    The vertex order provides orientations.  Basis order within each
    dimension is lexicographic, so chain-level constructions downstream are
    deterministic.  The constructor checks all of this once and raises
    ValueError on a malformed complex, so every instance is well formed.
    """

    __slots__ = ("vertex_count", "simplices_by_dim", "_index")

    def __init__(self, vertex_count, simplices_by_dim):
        self.vertex_count = vertex_count
        self.simplices_by_dim = {
            d: tuple(sorted(tuple(s) for s in simplices))
            for d, simplices in simplices_by_dim.items() if simplices
        }
        self._index = {}
        for d, simplices in self.simplices_by_dim.items():
            for i, s in enumerate(simplices):
                self._index[s] = (d, i)
        problem = self._first_problem()
        if problem:
            raise ValueError(f"malformed complex: {problem}")

    @classmethod
    def from_simplices(cls, simplices, vertex_count=None):
        """Build from any iterable of simplices, closing under faces."""
        closed = set()
        for s in simplices:
            s = tuple(sorted(set(int(v) for v in s)))
            if not s:
                raise ValueError("empty simplex")
            for size in range(1, len(s) + 1):
                closed.update(combinations(s, size))
        by_dim = {}
        for s in closed:
            by_dim.setdefault(len(s) - 1, []).append(s)
        if vertex_count is None:
            vertex_count = 1 + max((s[-1] for s in closed), default=-1)
        return cls(vertex_count, by_dim)

    @property
    def top_dim(self):
        return max(self.simplices_by_dim, default=-1)

    def simplices_of_dim(self, d):
        return self.simplices_by_dim.get(d, ())

    def has(self, simplex):
        return tuple(simplex) in self._index

    def index_of(self, simplex):
        return self._index[tuple(simplex)][1]

    def all_simplices(self):
        for d in sorted(self.simplices_by_dim):
            yield from self.simplices_by_dim[d]

    def _first_problem(self):
        """What is wrong with the lowest malformed simplex, or None."""
        for d in sorted(self.simplices_by_dim):
            for s in self.simplices_by_dim[d]:
                if len(s) != d + 1:
                    return f"{s} listed at dimension {d}"
                if list(s) != sorted(set(s)):
                    return f"{s} is not strictly increasing"
                if s and (s[0] < 0 or s[-1] >= self.vertex_count):
                    return f"{s} uses vertices outside range"
                if d > 0:
                    for face in combinations(s, d):
                        if face not in self._index:
                            return f"face {face} of {s} is missing"
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
    target (possibly of lower dimension)."""

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
        for s in self.source.all_simplices():
            image = tuple(sorted(set(self.vertex_image[v] for v in s)))
            if not self.target.has(image):
                raise ValueError(f"image {image} of {s} is not a simplex "
                                 "of the target")

    def image_simplex(self, simplex):
        """(target simplex, sign) of a source simplex, or (None, 0) when the
        image is degenerate."""
        image = [self.vertex_image[v] for v in simplex]
        if len(set(image)) < len(image):
            return None, 0
        sign = _sort_sign(image)
        return tuple(sorted(image)), sign


def _sort_sign(values):
    sign = 1
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            if vals[i] > vals[j]:
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
    ranks = {}
    boundaries = {}
    labels = {}
    for d in range(0, k.top_dim + 1):
        simplices = k.simplices_of_dim(d)
        ranks[d] = len(simplices)
        labels[d] = tuple(".".join(str(v) for v in s) for s in simplices)
    for d in range(1, k.top_dim + 1):
        # the faces of a simplex are distinct, so each gets one entry
        columns = [{k.index_of(s[:i] + s[i + 1:]): (-1) ** i
                    for i in range(len(s))}
                   for s in k.simplices_of_dim(d)]
        boundaries[d] = IntMatrix.from_columns(ranks.get(d - 1, 0), ranks[d],
                                               columns)
    return ChainComplex(ranks=ranks, boundaries=boundaries, labels=labels)


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

    # purity: every simplex is a face of some top simplex
    covered = set()
    for s in tops:
        for size in range(1, d + 1):
            covered.update(combinations(s, size))
    for dim, simplices in k.simplices_by_dim.items():
        if dim < d:
            for s in simplices:
                if s not in covered:
                    raise NoFundamentalCycle(
                        f"not a pseudomanifold: {s} is maximal below "
                        f"dimension {d}")

    # ridge incidences: (top simplex index, sign of the omitted vertex)
    incidence = {}
    for t, s in enumerate(tops):
        for i in range(d + 1):
            ridge = s[:i] + s[i + 1:]
            incidence.setdefault(ridge, []).append((t, (-1) ** i))
    boundary_ridges = []
    for ridge, hits in incidence.items():
        if len(hits) > 2:
            raise NoFundamentalCycle(
                f"not a pseudomanifold: ridge {ridge} lies in "
                f"{len(hits)} top simplices")
        if len(hits) == 1:
            boundary_ridges.append(ridge)

    coeff = {}
    for start in range(len(tops)):
        if tops[start] in coeff:
            continue
        coeff[tops[start]] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            s = tops[t]
            for i in range(d + 1):
                ridge = s[:i] + s[i + 1:]
                hits = incidence[ridge]
                if len(hits) != 2:
                    continue
                (t1, s1), (t2, s2) = hits
                other, osign, msign = (t2, s2, s1) if t1 == t else (t1, s1, s2)
                # coherent orientation: the two induced signs must cancel
                needed = -coeff[s] * msign * osign
                previous = coeff.get(tops[other])
                if previous is None:
                    coeff[tops[other]] = needed
                    stack.append(other)
                elif previous != needed:
                    raise NoFundamentalCycle(
                        f"not orientable: conflicting orientation at "
                        f"ridge {ridge}")
    return OrientedCycle(k, coeff,
                         boundary_simplices=tuple(sorted(boundary_ridges)))


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
    for s in f.source.all_simplices():
        image, sign = f.image_simplex(s)
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

    # unique lifting: a lift of a face extends to exactly one lift per coface
    for d in sorted(f.target.simplices_by_dim):
        if d == 0:
            continue
        for s in f.target.simplices_of_dim(d):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                for face_lift, _ in lifts.get(face, []):
                    extensions = [up for up, _ in lifts.get(s, [])
                                  if set(face_lift) <= set(up)]
                    if len(extensions) != 1:
                        raise CoveringError(
                            f"lift {face_lift} of {face} extends to "
                            f"{len(extensions)} lifts of {s}", witness=face)
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

"""Quiver representation spaces and their discriminants.

A dimension vector with Tits form 1 makes Rep(Q, d) a prehomogeneous
space for the product of general linear groups at the vertices, acting
by phi |-> A_tgt phi - phi A_src on each arrow.  The center acts
trivially, so one scalar generator is dropped to match dim Rep.
"""

from fractions import Fraction

from . import liealg
from .errors import CapacityError, ContextError, DomainError

# variable cap of generated inputs (nc-N, atilde-N, quiver dimension
# vectors): n variables take about n^3 dense matrix entries to build, and
# 128 variables build in seconds
MAX_GENERATED_VARIABLES = 128


class Quiver:
    """Finite quiver: ordered vertex names and directed edges (src, tgt).

    Loops are rejected; the action of the vertex groups on a loop edge
    would not be by independent left/right multiplications.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise DomainError("duplicate vertex names")
        if not vertices:
            raise DomainError("quiver needs at least one vertex")
        edges = tuple(edges)
        for e in edges:
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise DomainError(f"edge {e!r} is not a (source, target) pair")
        edges = tuple((a, b) for a, b in edges)
        known = set(vertices)
        for a, b in edges:
            if a not in known or b not in known:
                raise DomainError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise DomainError(f"loop at vertex {a!r} is not supported")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def is_connected(self):
        if len(self.vertices) == 1:
            return True
        adj = {v: set() for v in self.vertices}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, edges={list(self.edges)})"


class DimensionVector:
    """Positive integer dimension per vertex name."""

    __slots__ = ("dims",)

    def __init__(self, dims):
        if not isinstance(dims, dict):
            raise DomainError("dimensions must map vertex names to integers")
        clean = {}
        for v, d in dims.items():
            if type(d) is not int:  # no bool, float or string dimensions
                raise DomainError(
                    f"dimension at vertex {v!r} must be an integer, got {d!r}")
            if d <= 0:
                raise DomainError(f"dimension at vertex {v!r} must be positive")
            clean[v] = d
        object.__setattr__(self, "dims", clean)

    def __setattr__(self, name, value):
        raise AttributeError("DimensionVector is immutable")

    def __getitem__(self, v):
        try:
            return self.dims[v]
        except KeyError:
            raise ContextError(f"no dimension for vertex {v!r}") from None

    def __eq__(self, other):
        if not isinstance(other, DimensionVector):
            return NotImplemented
        return self.dims == other.dims

    def __repr__(self):
        return f"DimensionVector({self.dims})"


def _check(quiver: Quiver, d: DimensionVector):
    if set(d.dims) != set(quiver.vertices):
        raise ContextError("dimension vector does not match the vertex set")


def tits_form(quiver: Quiver, d: DimensionVector) -> int:
    """q(d) = sum d_i^2 - sum over edges d_src d_tgt."""
    _check(quiver, d)
    q = sum(d[v] ** 2 for v in quiver.vertices)
    q -= sum(d[a] * d[b] for a, b in quiver.edges)
    return q


def _layout(quiver: Quiver, d: DimensionVector):
    """Per edge: (offset, rows, cols); rows = target dim, cols = source dim.

    The block for edge e is stored row-major, coordinate (r, c) at flat
    index offset + r*cols + c.
    """
    out = []
    off = 0
    for a, b in quiver.edges:
        rows, cols = d[b], d[a]
        out.append((off, rows, cols))
        off += rows * cols
    return out, off


def rep_space(quiver: Quiver, d: DimensionVector):
    """Coordinate names on Rep(Q, d): x{edge}_{row}_{col}, all 1-based."""
    _check(quiver, d)
    names = []
    for e, (a, b) in enumerate(quiver.edges, start=1):
        for r in range(1, d[b] + 1):
            for c in range(1, d[a] + 1):
                names.append(f"x{e}_{r}_{c}")
    return tuple(names)


def _vertex_elementary_action(quiver, d, layout, nv, vertex, r, c):
    """Matrix on Rep of E_rc placed at one vertex (zero elsewhere)."""
    M = [[Fraction(0)] * nv for _ in range(nv)]
    for ei, (a, b) in enumerate(quiver.edges):
        off, rows, cols = layout[ei]
        if b == vertex:
            # left multiplication: (E_rc phi) has row r equal to row c of phi
            for j in range(cols):
                M[off + r * cols + j][off + c * cols + j] += 1
        if a == vertex:
            # right multiplication with a minus: (phi E_rc)_{i j} = phi_{i r} [j = c]
            for i in range(rows):
                M[off + i * cols + c][off + i * cols + r] -= 1
    return M


def infinitesimal_generators(quiver: Quiver, d: DimensionVector) -> liealg.GeneratorSet:
    """Elementary matrices at every vertex, minus one scalar.

    Requires a connected quiver with Tits form 1, so the kernel of the
    action is exactly the one dimensional center and dropping the last
    diagonal elementary of the last declared vertex leaves a basis of
    the image, of size dim Rep.
    """
    _check(quiver, d)
    if not quiver.is_connected():
        raise DomainError("quiver must be connected")
    q = tits_form(quiver, d)
    if q != 1:
        raise DomainError(f"Tits form is {q}, need 1 for an open orbit of the right size")
    layout, nv = _layout(quiver, d)
    if nv == 0:
        raise DomainError("representation space is zero dimensional")
    if nv > MAX_GENERATED_VARIABLES:
        raise CapacityError(f"representation space has {nv} variables, more "
                            f"than the limit {MAX_GENERATED_VARIABLES}")

    last_vertex = quiver.vertices[-1]
    mats = []
    center = [[Fraction(0)] * nv for _ in range(nv)]
    for v in quiver.vertices:
        dv = d[v]
        for r in range(dv):
            for c in range(dv):
                M = _vertex_elementary_action(quiver, d, layout, nv, v, r, c)
                if r == c:
                    for i in range(nv):
                        for j in range(nv):
                            center[i][j] += M[i][j]
                if v == last_vertex and r == dv - 1 and c == dv - 1:
                    continue
                mats.append(M)
    if any(any(row) for row in center):
        raise DomainError("center of the vertex groups does not act by zero")
    return liealg.GeneratorSet(mats, variables=rep_space(quiver, d))


def quiver_discriminant(quiver: Quiver, d: DimensionVector, trials=8, seed=0):
    """(discriminant of Rep(Q, d), classification of the generator set)."""
    g = infinitesimal_generators(quiver, d)
    cls = liealg.classify(g, trials=trials, seed=seed)
    return cls.discriminant, cls


# ---------------------------------------------------------------------
# the three families used throughout

def star_quiver():
    """Three one dimensional sources feeding a two dimensional center."""
    qv = Quiver(["c", "s1", "s2", "s3"],
                [("s1", "c"), ("s2", "c"), ("s3", "c")])
    d = DimensionVector({"c": 2, "s1": 1, "s2": 1, "s3": 1})
    return qv, d


def dtilde3_quiver():
    """A two dimensional top and three one dimensional sources feeding
    a two dimensional center."""
    qv = Quiver(["c", "t", "s1", "s2", "s3"],
                [("t", "c"), ("s1", "c"), ("s2", "c"), ("s3", "c")])
    d = DimensionVector({"c": 2, "t": 2, "s1": 1, "s2": 1, "s3": 1})
    return qv, d


def atilde_quiver(n: int):
    """Two dimensional top with arrows to both ends of a path of n
    one dimensional vertices (n >= 1)."""
    n = int(n)
    if n < 1:
        raise DomainError("need at least one path vertex")
    verts = ["top"] + [f"v{i}" for i in range(1, n + 1)]
    edges = [("top", "v1")]
    edges += [(f"v{i}", f"v{i + 1}") for i in range(1, n)]
    if n > 1:
        edges.append(("top", f"v{n}"))
    else:
        edges.append(("top", "v1"))
    qv = Quiver(verts, edges)
    d = DimensionVector({"top": 2, **{f"v{i}": 1 for i in range(1, n + 1)}})
    return qv, d

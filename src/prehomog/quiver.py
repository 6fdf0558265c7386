"""Quiver representation spaces and their discriminants.

A dimension vector with Tits form 1 makes Rep(Q, d) a prehomogeneous
space for the product of general linear groups at the vertices, acting
by phi |-> A_tgt phi - phi A_src on each arrow.  The center acts
trivially (phi |-> phi - phi on every arrow), so one scalar generator is
dropped to match dim Rep.  Each generator is written straight as its
integer form, one +-1 entry per row at most.
"""

from fractions import Fraction

from . import liealg
from .errors import CapacityError, ContextError, DomainError
from .polyring import _Value

# variable cap of generated inputs (nc-N, atilde-N, quiver dimension
# vectors).  Building the integer forms is cheap (atilde-125, at the cap,
# in 0.01 s), but the bracket-closure check of classify grows faster than
# n^3: 0.2 s at n = 63 and 2 s at the cap, on a 2-vCPU Xeon
MAX_GENERATED_VARIABLES = 128


class Quiver(_Value):
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

    def is_connected(self):
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

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, edges={list(self.edges)})"


class DimensionVector(_Value):
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

    def __getitem__(self, v):
        try:
            return self.dims[v]
        except KeyError:
            raise ContextError(f"no dimension for vertex {v!r}") from None

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


def _vertex_elementary_action(quiver, layout, nv, vertex, r, c):
    """Canonical integer form (rows, 1) on Rep of E_rc placed at one vertex
    (zero elsewhere): +1 rows from the arrows into the vertex, -1 rows from
    the arrows out of it.  There are no loops, so each row has at most one
    entry and the form is content-free with scale 1."""
    rows = [()] * nv
    for (a, b), (off, nrows, cols) in zip(quiver.edges, layout):
        if b == vertex:
            # left multiplication: (E_rc phi) has row r equal to row c of phi
            for j in range(cols):
                rows[off + r * cols + j] = ((off + c * cols + j, 1),)
        if a == vertex:
            # right multiplication with a minus: (phi E_rc)_{i j} = phi_{i r} [j = c]
            for i in range(nrows):
                rows[off + i * cols + c] = ((off + i * cols + r, -1),)
    return tuple(rows), Fraction(1)


def infinitesimal_generators(quiver: Quiver, d: DimensionVector) -> liealg.GeneratorSet:
    """Elementary matrices at every vertex, minus one scalar.

    Requires a connected quiver with Tits form 1, so the kernel of the
    action is exactly the one dimensional center and dropping the last
    diagonal elementary of the last declared vertex leaves a basis of
    the image, of size dim Rep.  The generators are built as their
    integer forms; no n x n matrix is written.
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
    forms = [_vertex_elementary_action(quiver, layout, nv, v, r, c)
             for v in quiver.vertices for r in range(d[v]) for c in range(d[v])]
    # the center acts by zero, so the last form, E_dd of the last vertex,
    # is dependent on the others: drop it
    return liealg.GeneratorSet._from_forms(forms[:-1], rep_space(quiver, d))


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
    one dimensional vertices (int n >= 1)."""
    if type(n) is not int:  # no bool, float or string lengths
        raise DomainError(f"path length must be an integer, got {n!r}")
    if n < 1:
        raise DomainError("need at least one path vertex")
    verts = ["top"] + [f"v{i}" for i in range(1, n + 1)]
    edges = [("top", "v1")]
    edges += [(f"v{i}", f"v{i + 1}") for i in range(1, n)]
    edges.append(("top", f"v{n}"))
    qv = Quiver(verts, edges)
    d = DimensionVector({"top": 2, **{f"v{i}": 1 for i in range(1, n + 1)}})
    return qv, d

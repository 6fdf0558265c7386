"""Pointwise geometry of a discriminant: isotropy, normal representation,
an Euler witness at a point, conormal orders, and chain assembly of
b-function factors along an orbit chain.

The orbit tangent at x0 is the span of the images A_k x0, the isotropy the
sums c_k A_k vanishing at x0, kept as c (a matrix is `g.combination(c)`);
`point_context` reads both off one elimination.  Numbers are exact on entry.
"""

from fractions import Fraction

from . import liealg, linalg
from .errors import ContextError, DomainError, InadmissibleCovectorError
from .polyring import UniPoly, _Value, _coerce


class PointContext(_Value):
    """A rational point with its isotropy, orbit tangent, and a chosen
    coordinate complement, built by `point_context` and stored as given.

    isotropy_coeffs has one vector c per isotropy basis element sum c_k A_k
    (its matrix is `g.combination(c)`); tangent rows are in reduced echelon
    form; normal_coords are the non-pivot coordinate indices, so the
    classes of those coordinate vectors form a basis of V / tangent.
    """

    __slots__ = ("x0", "isotropy_coeffs", "tangent", "pivots", "normal_coords")

    def __init__(self, x0, isotropy_coeffs, tangent, pivots, normal_coords):
        object.__setattr__(self, "x0", tuple(x0))
        object.__setattr__(self, "isotropy_coeffs", tuple(map(tuple, isotropy_coeffs)))
        object.__setattr__(self, "tangent", tuple(map(tuple, tangent)))
        object.__setattr__(self, "pivots", tuple(pivots))
        object.__setattr__(self, "normal_coords", tuple(normal_coords))

    def __repr__(self):
        return (f"PointContext(x0={self.x0}, "
                f"dim isotropy={len(self.isotropy_coeffs)}, "
                f"dim tangent={len(self.tangent)})")


class OrderForm(_Value):
    """ord f^s = -m*s - half_mu along a conormal Lagrangian."""

    __slots__ = ("m", "half_mu")

    def __init__(self, m, half_mu):
        object.__setattr__(self, "m", _coerce(m))
        object.__setattr__(self, "half_mu", _coerce(half_mu))

    def to_polynomial(self) -> UniPoly:
        return UniPoly([-self.half_mu, -self.m])

    def __str__(self):
        return str(self.to_polynomial())

    def __repr__(self):
        return f"OrderForm(m={self.m}, half_mu={self.half_mu})"


def point_context(g: liealg.GeneratorSet, x0) -> PointContext:
    """Isotropy, tangent and normal coordinates at a rational point, from the
    RREF of the rows [A_k x0 | e_k], e_k in column 2n-1-k: rows pivoting below
    n are the tangent, the others are relations c, each pivoting at its last
    generator k with c_k = 1: solve_affine's kernel basis, in reverse order."""
    x0, n = linalg.frac_vector(x0), g.n
    R, pivots = linalg.rref([img + [0] * (n - 1 - k) + [1] + [0] * k
                             for k, img in enumerate(g.images(x0))])
    r = sum(p < n for p in pivots)
    iso_coeffs = [row[n:][::-1] for row in reversed(R[r:])]
    normal = sorted(set(range(n)).difference(pivots[:r]))
    return PointContext(x0, iso_coeffs, [row[:n] for row in R[:r]], pivots[:r], normal)


def _quotient_vector(ctx: PointContext, v):
    """Class of v in V / tangent, in the normal coordinates."""
    w = list(v)
    for row, p in zip(ctx.tangent, ctx.pivots):
        c = w[p]
        if c:
            for i, rv in enumerate(row):
                if rv:
                    w[i] -= c * rv
    return [w[q] for q in ctx.normal_coords]


def normal_representation(ctx: PointContext, g: liealg.GeneratorSet):
    """The isotropy action on V / tangent, one matrix per isotropy basis
    element, in the chosen normal coordinates: column c is the class of the
    element's column at the c-th normal coordinate."""
    if len(ctx.x0) != g.n:
        raise ContextError("context does not match the generator set")
    return [linalg.transpose([_quotient_vector(ctx, [row[qc] for row in B])
                              for qc in ctx.normal_coords])
            for B in map(g.combination, ctx.isotropy_coeffs)]


def euler_at_point(g: liealg.GeneratorSet, c, ctx: PointContext):
    """A matrix B with B x0 = 0 and dchi(B) = 1, if the character values c
    do not vanish on the isotropy; None means inconclusive, not a disproof."""
    for cs in ctx.isotropy_coeffs:
        val = liealg.character_of_combination(c, cs)
        if val:
            return tuple(map(tuple, g.combination([v / val for v in cs])))
    return None


def conormal_order(g: liealg.GeneratorSet, c, ctx: PointContext,
                   y0=None) -> OrderForm:
    """Order of f^s along the conormal of the orbit through x0, at the
    covector y0 on the normal coordinates.

    Solves for A0 in the isotropy span whose conormal action (negative
    transpose of the normal representation) sends y0 to y0, then reads
    ord = dchi(A0) s - (conormal trace of A0 - half the normal dimension).
    """
    q = len(ctx.normal_coords)
    y0 = linalg.frac_vector(y0 or ())
    if len(y0) != q:
        raise ContextError(f"covector has {len(y0)} coordinates, expected {q}")
    if q == 0:
        return OrderForm(0, 0)
    if not any(y0):
        raise DomainError("covector must be nonzero")

    normals = normal_representation(ctx, g)
    # rows of the system: sum_j t_j * (-N_j^T y0) = y0
    rows = [[-sum(N[m][r] * y0[m] for m in range(q)) for N in normals]
            for r in range(q)]
    sol = linalg.solve_affine(rows, y0)
    if sol is None:
        raise InadmissibleCovectorError(
            "covector not admissible at this point; no conormal symmetry "
            "reproduces it")
    t0, kernel = sol

    def dchi(t):
        return sum((tv * liealg.character_of_combination(c, cs)
                    for tv, cs in zip(t, ctx.isotropy_coeffs)), Fraction(0))

    def conormal_trace(t):
        return -sum((tv * linalg.trace(N) for tv, N in zip(t, normals)),
                    Fraction(0))

    for w in kernel:
        if dchi(w) or conormal_trace(w):
            raise InadmissibleCovectorError(
                "order form is not constant on the solution space; covector "
                "not generic")
    m = -dchi(t0)
    half_mu = conormal_trace(t0) - Fraction(q, 2)
    return OrderForm(m, half_mu)


def chain_assemble(ratios) -> UniPoly:
    """Monic product of the edge factors along an orbit chain."""
    ratios = list(ratios)
    if not ratios:
        raise DomainError("empty chain")
    prod = UniPoly.one()
    for r in ratios:
        if not isinstance(r, UniPoly):
            raise ContextError("chain factors must be univariate polynomials")
        if r.is_zero:
            raise DomainError("zero chain factor")
        prod = prod * r
    return prod.monic()

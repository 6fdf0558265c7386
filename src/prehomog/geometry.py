"""Pointwise geometry of a discriminant: isotropy, normal representation,
localization, Euler homogeneity at a point, conormal orders, and chain
assembly of b-function factors along an orbit chain.

The orbit tangent at x0 is spanned by the images A_k x0 (`GeneratorSet.images`)
and the isotropy by the combinations sum c_k A_k with sum c_k A_k x0 = 0,
kept as their coefficients c; `GeneratorSet.combination` rebuilds a matrix
where one is needed.  Caller numbers are made exact once, on entry.
"""

from fractions import Fraction

from . import liealg, linalg
from .errors import (ContextError, DomainError, InadmissibleCovectorError,
                     NotTransversalError)
from .polyring import MultiPoly, UniPoly, _coerce


class PointContext:
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

    def __setattr__(self, name, value):
        raise AttributeError("PointContext is immutable")

    def __repr__(self):
        return (f"PointContext(x0={self.x0}, "
                f"dim isotropy={len(self.isotropy_coeffs)}, "
                f"dim tangent={len(self.tangent)})")


class OrderForm:
    """ord f^s = -m*s - half_mu along a conormal Lagrangian."""

    __slots__ = ("m", "half_mu")

    def __init__(self, m, half_mu):
        self.m = _coerce(m)
        self.half_mu = _coerce(half_mu)

    def to_polynomial(self) -> UniPoly:
        return UniPoly([-self.half_mu, -self.m])

    def __eq__(self, other):
        if not isinstance(other, OrderForm):
            return NotImplemented
        return (self.m, self.half_mu) == (other.m, other.half_mu)

    def __str__(self):
        return str(self.to_polynomial())

    def __repr__(self):
        return f"OrderForm(m={self.m}, half_mu={self.half_mu})"


def point_context(g: liealg.GeneratorSet, x0) -> PointContext:
    """Isotropy, tangent, and normal coordinates at a rational point."""
    x0 = linalg.frac_vector(x0)
    if len(x0) != g.n:
        raise ContextError(f"point has {len(x0)} coordinates, expected {g.n}")
    images = g.images(x0)
    # the columns map a coefficient vector c to sum c_k A_k x0
    iso_coeffs = linalg.nullspace(linalg.transpose(images))
    tangent, pivots = linalg.row_space_basis(images)
    normal = sorted(set(range(g.n)).difference(pivots))
    return PointContext(x0, iso_coeffs, tangent, pivots, normal)


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


def localization(f: MultiPoly, x0):
    """(k, f_loc): lowest degree part of f(x0 + x), the local model of f."""
    if f.is_zero:
        raise DomainError("f must be nonzero")
    shifted = f.shift(x0)
    parts = shifted.homogeneous_components()
    k = min(parts)
    return k, parts[k]


def normal_discriminant(ctx: PointContext, g: liealg.GeneratorSet) -> MultiPoly:
    """Discriminant of the induced isotropy action on the normal space."""
    q = len(ctx.normal_coords)
    if len(ctx.isotropy_coeffs) != q:
        raise DomainError(f"isotropy dimension {len(ctx.isotropy_coeffs)} "
                          f"!= normal dimension {q}")
    if q == 0:
        return MultiPoly.constant((), 1)
    names = tuple(g.variables[i] for i in ctx.normal_coords)
    return liealg.matrix_columns_determinant(
        normal_representation(ctx, g), names)


def lemma46_check(f: MultiPoly, ctx: PointContext, g: liealg.GeneratorSet) -> bool:
    """Does the localized divisor agree with the normal discriminant?

    Compares f_loc, restricted to the normal coordinates, with the
    discriminant of the normal representation, up to a nonzero scalar.
    """
    fn = normal_discriminant(ctx, g)
    if fn.is_zero:
        raise DomainError("normal discriminant vanishes; check not applicable")
    _, floc = localization(f, ctx.x0)
    restricted = floc.restrict(ctx.normal_coords)
    if restricted.is_zero:
        return False
    if set(restricted.terms) != set(fn.terms):
        return False
    ratios = {restricted.terms[e] / fn.terms[e] for e in fn.terms}
    return len(ratios) == 1


def euler_at_point(g: liealg.GeneratorSet, c: liealg.CharacterData,
                   ctx: PointContext):
    """A matrix B with B x0 = 0 and dchi(B) = 1, if the character does
    not vanish on the isotropy; None means inconclusive, not a disproof."""
    for cs in ctx.isotropy_coeffs:
        val = liealg.character_of_combination(c, cs)
        if val:
            return tuple(map(tuple, g.combination([v / val for v in cs])))
    return None


def strong_euler_at_point(g: liealg.GeneratorSet, c: liealg.CharacterData,
                          ctx: PointContext) -> bool:
    """With A1 the Euler generator, is A1 x0 in the span of the
    annihilator images {B x0 : dchi(B) = 0}?"""
    if c.values[0] != 1:
        raise DomainError("first generator must have character value 1")
    images = g.images(ctx.x0)
    # B x0 = sum c_k A_k x0 for each B = sum c_k A_k of `annihilator_basis`
    ann = [[sum(ck * v[i] for ck, v in zip(cs, images)) for i in range(g.n)]
           for cs in linalg.nullspace([list(c.values)])]
    return linalg.in_span(ann, images[0]) is not None


def conormal_order(g: liealg.GeneratorSet, c: liealg.CharacterData,
                   ctx: PointContext, y0=None) -> OrderForm:
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


def codim1_ratio(upper: OrderForm, lower: OrderForm) -> UniPoly:
    """(ord_upper - ord_lower) + 1/2 across a smooth transversal
    codimension one crossing; must come out affine of degree one."""
    poly = upper.to_polynomial() - lower.to_polynomial() + \
        UniPoly([Fraction(1, 2)])
    if poly.degree() != 1:
        raise NotTransversalError(
            f"ratio {poly} is not of degree 1; crossing assumption violated")
    return poly


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

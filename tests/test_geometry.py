import random
from fractions import Fraction

import pytest

from conftest import (eigenvalue, fraction_shift, ref_add,
                      ref_annihilator_basis, ref_euler_witness, ref_neg,
                      ref_normal_discriminant,
                      ref_normal_representation, ref_point_context,
                      ref_rref, ref_strong_euler, restrict)
from test_quiver import GENERATED

from prehomog.errors import ContextError, DomainError, InadmissibleCovectorError
from prehomog.fixtures import fixture_names, get_fixture, star_chain
from prehomog.geometry import (OrderForm, PointContext, chain_assemble,
                               conormal_order, euler_at_point,
                               normal_representation, point_context)
from prehomog.liealg import (GeneratorSet, character, discriminant,
                             dual_generators, is_special)
from prehomog.linalg import transpose
from prehomog.polyring import MultiPoly, UniPoly
from prehomog.quiver import infinitesimal_generators

F = Fraction


def nc3():
    return get_fixture("nc-3").generators()


def localization(f, x0):
    """(k, f_loc): the lowest degree part of f(x0 + x), the local model of f."""
    shifted = fraction_shift(f, x0).terms
    k = min(map(sum, shifted))
    return k, MultiPoly(f.variables, {e: c for e, c in shifted.items() if sum(e) == k})


def lemma46(f, ctx, g):
    """Lemma 4.6: f localized at x0 and restricted to the normal
    coordinates is the normal discriminant, up to a nonzero scalar."""
    fn = ref_normal_discriminant(g, ctx).terms
    restricted = restrict(localization(f, ctx.x0)[1], ctx.normal_coords).terms
    return bool(fn) and restricted.keys() == fn.keys() and \
        len({c / fn[e] for e, c in restricted.items()}) == 1


def codim1_ratio(upper, lower):
    """(ord_upper - ord_lower) + 1/2 across a codimension one crossing;
    affine of degree one when the crossing is smooth and transversal."""
    diff = ref_add(upper.to_polynomial().coeffs,
                   ref_neg(lower.to_polynomial().coeffs))
    return UniPoly(ref_add(diff, (F(1, 2),)))


class TestPointContext:
    def test_axis_point(self):
        g = nc3()
        ctx = point_context(g, (1, 0, 0))
        assert ctx.isotropy_coeffs == ((0, 1, 0), (0, 0, 1))
        B = g.combination(ctx.isotropy_coeffs[0])
        assert B == [[0, 0, 0], [0, 1, 0], [0, 0, 0]]
        assert ctx.pivots == (0,)
        assert ctx.normal_coords == (1, 2)

    def test_open_orbit(self):
        ctx = point_context(nc3(), (1, 1, 1))
        assert ctx.isotropy_coeffs == ()
        assert ctx.normal_coords == ()
        assert len(ctx.tangent) == 3

    def test_origin(self):
        ctx = point_context(nc3(), (0, 0, 0))
        assert len(ctx.isotropy_coeffs) == 3
        assert ctx.normal_coords == (0, 1, 2)

    def test_wrong_length(self):
        with pytest.raises(ContextError):
            point_context(nc3(), (1, 0))

    def test_context_of_another_set(self):
        ctx = point_context(get_fixture("nc-4").generators(), (0, 1, 1, 1))
        with pytest.raises(ContextError, match="4 coefficients, expected 3"):
            euler_at_point(nc3(), character(nc3()), ctx)

    def test_immutable(self):
        ctx = point_context(nc3(), (1, 0, 0))
        with pytest.raises(AttributeError):
            ctx.pivots = ()

    def test_rank_nullity(self):
        g = get_fixture("star-2111").generators()
        for pt in star_chain():
            ctx = point_context(g, pt.x0)
            assert len(ctx.isotropy_coeffs) == len(ctx.normal_coords)


class TestNormalRepresentation:
    def test_axis_point(self):
        g = nc3()
        ctx = point_context(g, (1, 0, 0))
        ns = normal_representation(ctx, g)
        assert ns == [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]

    def test_context_mismatch(self):
        ctx = point_context(nc3(), (1, 0, 0))
        with pytest.raises(ContextError):
            normal_representation(ctx, get_fixture("nc-2").generators())


class TestLocalization:
    def test_axis_point(self):
        f = discriminant(nc3())
        k, floc = localization(f, (1, 0, 0))
        assert k == 2
        assert floc == MultiPoly(f.variables, {(0, 1, 1): 1})

    def test_origin(self):
        f = discriminant(nc3())
        assert localization(f, (0, 0, 0)) == (3, f)

    def test_generic(self):
        f = discriminant(nc3())
        k, floc = localization(f, (1, 1, 1))
        assert k == 0
        assert floc == MultiPoly(f.variables, {(0, 0, 0): 1})


class TestNormalDiscriminant:
    def test_axis_point(self):
        g = nc3()
        ctx = point_context(g, (1, 0, 0))
        fn = ref_normal_discriminant(g, ctx)
        assert fn.terms == {(1, 1): F(1)}

    def test_open_orbit_is_unit(self):
        g = nc3()
        ctx = point_context(g, (1, 1, 1))
        fn = ref_normal_discriminant(g, ctx)
        assert fn.degree() == 0 and not fn.is_zero
        assert fn.variables == () and fn.terms == {(): 1}


class TestLemma46:
    def test_holds_on_star_points(self):
        g = get_fixture("star-2111").generators()
        f = discriminant(g)
        for pt in star_chain():
            assert lemma46(f, point_context(g, pt.x0), g)

    def test_fails_for_wrong_divisor(self):
        g = nc3()
        ctx = point_context(g, (1, 0, 0))
        wrong = MultiPoly(g.variables, {(3, 0, 0): 1})  # x^3
        assert not lemma46(wrong, ctx, g)

    def test_degenerate_normal_action(self):
        # a zero isotropy element acts by zero: the normal discriminant
        # vanishes and matches no localized divisor
        g = get_fixture("nc-1").generators()
        ctx = PointContext((F(0),), ((F(0),),), [], (), (0,))
        assert ref_normal_discriminant(g, ctx).is_zero
        assert not lemma46(discriminant(g), ctx, g)


class TestEuler:
    def test_witness_on_divisor(self):
        g = nc3()
        c = character(g)
        ctx = point_context(g, (1, 0, 0))
        w = euler_at_point(g, c, ctx)
        assert w == ((0, 0, 0), (0, 1, 0), (0, 0, 0))

    def test_inconclusive_off_divisor(self):
        g = nc3()
        c = character(g)
        assert euler_at_point(g, c, point_context(g, (1, 1, 1))) is None

    def test_strong_euler(self):
        g = nc3()
        c = character(g)
        assert ref_strong_euler(g, c, (1, 0, 0))
        assert ref_strong_euler(g, c, (1, 1, 0))
        # off the divisor the Euler field leaves the annihilator span
        assert not ref_strong_euler(g, c, (1, 1, 1))

    def test_strong_euler_needs_unit_character(self):
        g = get_fixture("star-2111").generators()
        c = character(g)
        with pytest.raises(DomainError):
            ref_strong_euler(g, c, (0,) * 6)


class TestConormalOrder:
    def test_codim_one(self):
        g = get_fixture("nc-2").generators()
        c = character(g)
        ctx = point_context(g, (1, 0))
        assert conormal_order(g, c, ctx, (1,)) == OrderForm(1, F(1, 2))

    def test_origin(self):
        g = get_fixture("nc-2").generators()
        c = character(g)
        ctx = point_context(g, (0, 0))
        assert conormal_order(g, c, ctx, (1, 1)) == OrderForm(2, 1)

    def test_open_orbit(self):
        g = get_fixture("nc-2").generators()
        c = character(g)
        ctx = point_context(g, (1, 1))
        assert conormal_order(g, c, ctx) == OrderForm(0, 0)

    def test_rescaling_invariance(self):
        g = get_fixture("star-2111").generators()
        c = character(g)
        pt = star_chain()[3]
        ctx = point_context(g, pt.x0)
        a = conormal_order(g, c, ctx, pt.y0)
        b = conormal_order(g, c, ctx, tuple(5 * v for v in pt.y0))
        assert a == b == OrderForm(5, F(5, 2))

    def test_nongeneric_covector(self):
        g = get_fixture("nc-2").generators()
        c = character(g)
        ctx = point_context(g, (0, 0))
        with pytest.raises(InadmissibleCovectorError):
            conormal_order(g, c, ctx, (1, 0))

    def test_zero_covector(self):
        g = get_fixture("nc-2").generators()
        c = character(g)
        ctx = point_context(g, (1, 0))
        with pytest.raises(DomainError):
            conormal_order(g, c, ctx, (0,))

    def test_covector_length(self):
        g = get_fixture("nc-2").generators()
        c = character(g)
        ctx = point_context(g, (1, 0))
        with pytest.raises(ContextError):
            conormal_order(g, c, ctx, (1, 1))


class TestOrderForm:
    def test_polynomial(self):
        assert OrderForm(1, F(1, 2)).to_polynomial() == UniPoly([F(-1, 2), -1])
        assert OrderForm(0, 0).to_polynomial().is_zero

    def test_str(self):
        s = str(OrderForm(2, 1))
        assert "s" in s


class TestChainAssembly:
    def test_codim1_ratio(self):
        upper = OrderForm(0, 0)
        lower = OrderForm(1, F(1, 2))
        assert codim1_ratio(upper, lower) == UniPoly([1, 1])

    def test_deeper_step(self):
        # codim 3 drop: the naive ratio is still affine but is only one
        # factor of the catalogue contribution
        upper = OrderForm(2, 1)
        lower = OrderForm(5, F(5, 2))
        assert codim1_ratio(upper, lower) == UniPoly([2, 3])

    def test_not_transversal(self):
        # equal orders across the crossing: the ratio is not of degree one
        assert codim1_ratio(OrderForm(1, F(1, 2)), OrderForm(1, F(1, 2))) == \
            UniPoly([F(1, 2)])

    def test_assemble(self):
        out = chain_assemble([UniPoly([1, 1]), UniPoly([2, 3])])
        assert out == (UniPoly([1, 1]) * UniPoly([F(2, 3), 1])).monic()
        assert out.leading() == 1

    def test_assemble_errors(self):
        with pytest.raises(DomainError):
            chain_assemble([])
        with pytest.raises(ContextError):
            chain_assemble(["s+1"])
        with pytest.raises(DomainError):
            chain_assemble([UniPoly([])])


def typed(value):
    """value with every leaf replaced by (type, leaf), so == compares types too."""
    if isinstance(value, (tuple, list)):
        return type(value), tuple(typed(v) for v in value)
    return type(value), value


def reference_points(g, rng):
    """e_1, the origin, seeded rational points and seeded 0/1 points."""
    e1 = (1,) + (0,) * (g.n - 1)
    rational = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g.n))
                for _ in range(3)]
    binary = [tuple(rng.randint(0, 1) for _ in range(g.n)) for _ in range(4)]
    return [e1, (0,) * g.n] + rational + binary


def shape(g, x0):
    """(rank, dependent first) of the images A_k x0: the pivots of `ref_rref`
    of their transpose are the generators whose image does not depend on the
    earlier ones, and dependent first says another generator precedes one."""
    _, pivots = ref_rref(transpose(g.images(x0)))
    dependent = [k for k in range(g.n) if k not in pivots]
    return len(pivots), bool(pivots and dependent) and dependent[0] < pivots[-1]


def rank_points(g, rng):
    """[(x0, dependent first)]: for each rank that points with k = 1, ...,
    n - 1 nonzero coordinates reach, on the last k coordinates or on two
    seeded sets of k, one such point, with a dependent generator first if any."""
    by_rank = {}
    for k in range(1, g.n):
        supports = [range(g.n - k, g.n)] + [rng.sample(range(g.n), k) for _ in range(2)]
        for support in supports:
            x0 = tuple(rng.choice((1, -1, 2, F(1, 2))) if i in support else 0
                       for i in range(g.n))
            r, first = shape(g, x0)
            if first or r not in by_rank:
                by_rank[r] = x0, first
    return list(by_rank.values())


class TestAgainstDenseReference:
    """The geometry on the stored integer forms against the dense Fraction
    geometry of conftest (mat_vec images, mat_add combinations), on every
    fixture, its dual and the generated quiver classes."""

    @staticmethod
    def check(g, c, x0):
        ctx, ref = point_context(g, x0), ref_point_context(g, x0)
        for field in PointContext.__slots__:
            assert typed(getattr(ctx, field)) == typed(getattr(ref, field)), field
        assert typed(euler_at_point(g, c, ctx)) == typed(ref_euler_witness(g, c, ref))
        assert typed(normal_representation(ctx, g)) == \
            typed(ref_normal_representation(g, ref))
        # with dchi(A_1) = 1, A_1 x0 = B x0 for some B with dchi(B) = 0
        # exactly when A_1 - B is an isotropy element with dchi = 1, that is
        # when an Euler witness exists
        if c[0] == 1:
            assert ref_strong_euler(g, c, x0) is (euler_at_point(g, c, ctx) is not None)

    @staticmethod
    def with_unit_character(g, c):
        """g with A_1 divided by dchi(A_1), so that strong Euler applies."""
        mats = g.matrices()
        mats[0] = [[v / c[0] for v in row] for row in mats[0]]
        h = GeneratorSet(mats, g.variables)
        return h, character(h)

    def check_points(self, g, c, points):
        """check at the rank points; every set with n >= 3 has one with a
        dependent generator before an independent one."""
        assert g.n < 3 or any(first for _, first in points)
        for x0, _ in points:
            self.check(g, c, x0)

    def check_set(self, g, rng):
        """check at the rank points and a seeded rational point; at the
        origin every set has the same context, which the fixtures check."""
        c = character(g)
        self.check_points(g, c, rank_points(g, rng))
        self.check(g, c, tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(g.n)))

    def test_star_chain(self):
        g = get_fixture("star-2111").generators()
        c = character(g)
        for pt in star_chain():
            self.check(g, c, pt.x0)
            self.check(*self.with_unit_character(g, c), pt.x0)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        g = get_fixture(name).generators()
        c = character(g)
        f = discriminant(g)
        assert all(eigenvalue(B, f) == 0 for B in ref_annihilator_basis(g, c))
        traces = [sum((A[i][i] for i in range(g.n)), F(0)) for A in g.matrices()]
        assert is_special(g, c) == (list(c) == traces)
        rng = random.Random(name)
        unit = self.with_unit_character(g, c) if c[0] else (g, c)
        for h, ch in ((g, c), unit):
            for x0 in reference_points(h, rng):
                self.check(h, ch, x0)
        self.check_points(g, c, rank_points(g, rng))
        self.check_set(dual_generators(g), rng)

    @pytest.mark.parametrize("qv, d", GENERATED)
    def test_generated_quivers(self, qv, d):
        g = infinitesimal_generators(qv, d)
        self.check_set(g, random.Random(str(g.variables)))

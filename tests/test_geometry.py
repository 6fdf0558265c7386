import random
from fractions import Fraction

import pytest

from conftest import (ref_annihilator_basis, ref_euler_witness,
                      ref_normal_discriminant, ref_normal_representation,
                      ref_point_context, ref_strong_euler)

from prehomog.errors import (ContextError, DomainError,
                             InadmissibleCovectorError, NotTransversalError)
from prehomog.fixtures import fixture_names, get_fixture, star_chain
from prehomog.geometry import (OrderForm, PointContext, chain_assemble,
                               codim1_ratio, conormal_order, euler_at_point,
                               lemma46_check, localization,
                               normal_discriminant, normal_representation,
                               point_context, strong_euler_at_point)
from prehomog.liealg import (GeneratorSet, annihilator_basis, character,
                             discriminant)
from prehomog.polyring import MultiPoly, UniPoly

F = Fraction


def nc3():
    return get_fixture("nc-3").generators()


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
        assert floc == MultiPoly.constant(f.variables, 1)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            localization(MultiPoly.zero(("x",)), (0,))


class TestNormalDiscriminant:
    def test_axis_point(self):
        g = nc3()
        ctx = point_context(g, (1, 0, 0))
        fn = normal_discriminant(ctx, g)
        assert fn.terms == {(1, 1): F(1)}

    def test_open_orbit_is_unit(self):
        g = nc3()
        ctx = point_context(g, (1, 1, 1))
        fn = normal_discriminant(ctx, g)
        assert fn.degree() == 0 and not fn.is_zero

    def test_dimension_mismatch_guard(self):
        g = get_fixture("nc-1").generators()
        ctx = PointContext((F(0),), (), [], (), (0,))
        with pytest.raises(DomainError):
            normal_discriminant(ctx, g)


class TestLemma46:
    def test_holds_on_star_points(self):
        g = get_fixture("star-2111").generators()
        f = discriminant(g)
        for pt in star_chain():
            assert lemma46_check(f, ctx=point_context(g, pt.x0), g=g)

    def test_fails_for_wrong_divisor(self):
        g = nc3()
        ctx = point_context(g, (1, 0, 0))
        wrong = MultiPoly(g.variables, {(3, 0, 0): 1})  # x^3
        assert not lemma46_check(wrong, ctx, g)

    def test_degenerate_normal_action(self):
        g = get_fixture("nc-1").generators()
        ctx = PointContext((F(0),), ((F(0),),), [], (), (0,))
        with pytest.raises(DomainError):
            lemma46_check(discriminant(g), ctx, g)


class TestEuler:
    def test_witness_on_divisor(self):
        g = nc3()
        c = character(g, discriminant(g))
        ctx = point_context(g, (1, 0, 0))
        w = euler_at_point(g, c, ctx)
        assert w == ((0, 0, 0), (0, 1, 0), (0, 0, 0))

    def test_inconclusive_off_divisor(self):
        g = nc3()
        c = character(g, discriminant(g))
        assert euler_at_point(g, c, point_context(g, (1, 1, 1))) is None

    def test_strong_euler(self):
        g = nc3()
        c = character(g, discriminant(g))
        assert strong_euler_at_point(g, c, point_context(g, (1, 0, 0)))
        assert strong_euler_at_point(g, c, point_context(g, (1, 1, 0)))
        # off the divisor the Euler field leaves the annihilator span
        assert not strong_euler_at_point(g, c, point_context(g, (1, 1, 1)))

    def test_strong_euler_needs_unit_character(self):
        g = get_fixture("star-2111").generators()
        c = character(g, discriminant(g))
        with pytest.raises(DomainError):
            strong_euler_at_point(g, c, point_context(g, (0,) * 6))


class TestConormalOrder:
    def test_codim_one(self):
        g = get_fixture("nc-2").generators()
        c = character(g, discriminant(g))
        ctx = point_context(g, (1, 0))
        assert conormal_order(g, c, ctx, (1,)) == OrderForm(1, F(1, 2))

    def test_origin(self):
        g = get_fixture("nc-2").generators()
        c = character(g, discriminant(g))
        ctx = point_context(g, (0, 0))
        assert conormal_order(g, c, ctx, (1, 1)) == OrderForm(2, 1)

    def test_open_orbit(self):
        g = get_fixture("nc-2").generators()
        c = character(g, discriminant(g))
        ctx = point_context(g, (1, 1))
        assert conormal_order(g, c, ctx) == OrderForm(0, 0)

    def test_rescaling_invariance(self):
        g = get_fixture("star-2111").generators()
        c = character(g, discriminant(g))
        pt = star_chain()[3]
        ctx = point_context(g, pt.x0)
        a = conormal_order(g, c, ctx, pt.y0)
        b = conormal_order(g, c, ctx, tuple(5 * v for v in pt.y0))
        assert a == b == OrderForm(5, F(5, 2))

    def test_nongeneric_covector(self):
        g = get_fixture("nc-2").generators()
        c = character(g, discriminant(g))
        ctx = point_context(g, (0, 0))
        with pytest.raises(InadmissibleCovectorError):
            conormal_order(g, c, ctx, (1, 0))

    def test_zero_covector(self):
        g = get_fixture("nc-2").generators()
        c = character(g, discriminant(g))
        ctx = point_context(g, (1, 0))
        with pytest.raises(DomainError):
            conormal_order(g, c, ctx, (0,))

    def test_covector_length(self):
        g = get_fixture("nc-2").generators()
        c = character(g, discriminant(g))
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
        with pytest.raises(NotTransversalError):
            codim1_ratio(OrderForm(1, F(1, 2)), OrderForm(1, F(1, 2)))

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


class TestAgainstDenseReference:
    """The geometry on the stored integer forms against the dense Fraction
    geometry of conftest (mat_vec images, mat_add combinations)."""

    @staticmethod
    def check(g, c, x0):
        ctx, ref = point_context(g, x0), ref_point_context(g, x0)
        for field in PointContext.__slots__:
            assert typed(getattr(ctx, field)) == typed(getattr(ref, field)), field
        assert typed(euler_at_point(g, c, ctx)) == typed(ref_euler_witness(g, c, ref))
        assert typed(normal_representation(ctx, g)) == \
            typed(ref_normal_representation(g, ref))
        got, want = normal_discriminant(ctx, g), ref_normal_discriminant(g, ref)
        assert got == want
        assert typed(sorted(got.terms.items())) == typed(sorted(want.terms.items()))
        try:
            want = ref_strong_euler(g, c, x0)
        except DomainError:
            with pytest.raises(DomainError):
                strong_euler_at_point(g, c, ctx)
        else:
            assert strong_euler_at_point(g, c, ctx) is want

    @staticmethod
    def with_unit_character(g, c):
        """g with A_1 divided by dchi(A_1), so that strong Euler applies."""
        mats = g.matrices()
        mats[0] = [[v / c.values[0] for v in row] for row in mats[0]]
        h = GeneratorSet(mats, g.variables)
        return h, character(h, discriminant(h))

    def test_star_chain(self):
        g = get_fixture("star-2111").generators()
        c = character(g, discriminant(g))
        for pt in star_chain():
            self.check(g, c, pt.x0)
            self.check(*self.with_unit_character(g, c), pt.x0)

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixtures(self, name):
        g = get_fixture(name).generators()
        c = character(g, discriminant(g))
        assert typed(annihilator_basis(g, c)) == typed(ref_annihilator_basis(g, c))
        assert typed(list(c.trace_values)) == \
            typed([sum((A[i][i] for i in range(g.n)), F(0)) for A in g.matrices()])
        rng = random.Random(name)
        unit = self.with_unit_character(g, c) if c.values[0] else (g, c)
        for h, ch in ((g, c), unit):
            for x0 in reference_points(h, rng):
                self.check(h, ch, x0)

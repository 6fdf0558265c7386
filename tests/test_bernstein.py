import random
from fractions import Fraction
from itertools import product

import pytest

from prehomog.bernstein import (BFailure, BResult, FirstOrderOperator,
                                SPowerExpression, annihilator_identity_check,
                                apply_constant_coefficient_operator,
                                apply_derivation, apply_operator, bfunction,
                                extract_cofactor, fourier_check,
                                fourier_transform, q_dual_operator, q_operator,
                                substitute_s, symmetry_check)
from prehomog.errors import ClosureError, ContextError, DomainError
from prehomog.fixtures import get_fixture
from prehomog.liealg import GeneratorSet, discriminant, dual_generators
from prehomog.polyring import MultiPoly, UniPoly

XY = ("x", "y")
XYZ = ("x", "y", "z")


def f_xy():
    return MultiPoly(XY, {(1, 1): 1})


class TestSPowerExpression:
    def test_start(self):
        e = SPowerExpression.start(f_xy())
        assert e.k == 0
        assert e.coefficient((0, 0)) == UniPoly([1])
        assert not e.is_zero

    def test_immutable(self):
        e = SPowerExpression.start(f_xy())
        with pytest.raises(AttributeError):
            e.k = 3

    def test_add_requires_same_offset(self):
        e = SPowerExpression.start(f_xy())
        f = apply_derivation(e, "x", f_xy())
        with pytest.raises(DomainError):
            e + f


class TestApplyDerivation:
    def test_first_derivative(self):
        f = f_xy()
        e = apply_derivation(SPowerExpression.start(f), "x", f)
        # d/dx f^{s+1} = (s+1) y f^s
        assert e.k == 1
        assert e.coefficient((0, 1)) == UniPoly([1, 1])

    def test_second_derivative_closes(self):
        f = f_xy()
        e = apply_derivation(SPowerExpression.start(f), "x", f)
        e = apply_derivation(e, "y", f)
        # (s+1)^2 xy f^{s-1}
        assert e.k == 2
        assert e.coefficient((1, 1)) == UniPoly([1, 2, 1])
        assert e.coefficient((2, 0)).is_zero


class TestApplyOperator:
    def test_normal_crossings_two(self):
        f = f_xy()
        q = apply_operator(f, f)
        assert q.k == 2
        assert q.coefficient((1, 1)) == UniPoly([1, 2, 1])

    def test_validation(self):
        f = f_xy()
        with pytest.raises(DomainError):
            apply_operator(MultiPoly.zero(XY), f)
        with pytest.raises(DomainError):
            apply_operator(MultiPoly(XY, {(1, 0): 1}), f)  # degree mismatch
        with pytest.raises(DomainError):
            apply_operator(MultiPoly(XY, {(1, 1): 1, (1, 0): 1}), f)
        with pytest.raises(ContextError):
            apply_operator(MultiPoly(("x",), {(2,): 1}), f)

    def test_against_literal_differentiation(self):
        # at integer s + 1 = m the state evaluates to f*(d/dx) f^m
        for name in ("nc-3", "binary-cubic", "det22-squared"):
            g = get_fixture(name).generators()
            f = discriminant(g)
            fstar = discriminant(dual_generators(g)).with_variables(f.variables)
            q = apply_operator(fstar, f)
            n = f.degree()
            for m in (n, n + 1):
                direct = apply_constant_coefficient_operator(fstar, f ** m)
                fold = MultiPoly.zero(f.variables)
                for e in sorted(q.terms):
                    c = q.coefficient(e).evaluate(m - 1)
                    if c:
                        fold = fold + MultiPoly(f.variables, {e: c})
                assert direct == fold * f ** (m - n)

    def test_linear_in_operator(self):
        g = get_fixture("binary-cubic").generators()
        f = discriminant(g)
        fstar = discriminant(dual_generators(g)).with_variables(f.variables)
        items = sorted(fstar.terms.items())
        half = len(items) // 2
        a = MultiPoly(f.variables, dict(items[:half]))
        b = MultiPoly(f.variables, dict(items[half:]))
        assert apply_operator(a, f) + apply_operator(b, f) == apply_operator(fstar, f)

    def test_scaling_operator_scales_cofactor(self):
        f = f_xy()
        r1 = extract_cofactor(apply_operator(f, f), f)
        r3 = extract_cofactor(apply_operator(f * 3, f), f)
        assert isinstance(r1, BResult) and isinstance(r3, BResult)
        assert r1.b == r3.b
        assert r3.raw_leading == 3 * r1.raw_leading

    def test_scaling_f_scales_cofactor(self):
        f = f_xy()
        g = f * 2
        r1 = extract_cofactor(apply_operator(f, f), f)
        r2 = extract_cofactor(apply_operator(f, g), g)
        assert r1.b == r2.b
        assert r2.raw_leading == 2 * r1.raw_leading


class TestExtractCofactor:
    def test_success(self):
        f = f_xy()
        r = extract_cofactor(apply_operator(f, f), f)
        assert isinstance(r, BResult)
        assert r.b == UniPoly([1, 2, 1])
        assert r.raw_leading == 1
        assert r.spectrum.roots == ((Fraction(-1), 2),)
        assert r.degree == 2

    def test_offset_mismatch(self):
        f = f_xy()
        with pytest.raises(DomainError):
            extract_cofactor(SPowerExpression.start(f), f)

    def test_zero_state(self):
        f = f_xy()
        q = SPowerExpression(XY, 2, {})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure)
        assert r.reason == "functional-equation"
        assert "annihilated" in r.detail
        assert r.message() == "functional equation does not hold"

    def test_missing_cofactor_monomial(self):
        f = f_xy()
        q = SPowerExpression(XY, 2, {(2, 0): [Fraction(1)]})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure)
        assert "missing" in r.detail

    def test_support_mismatch(self):
        f = f_xy()
        q = SPowerExpression(XY, 2, {(1, 1): [Fraction(1)], (2, 0): [Fraction(1)]})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure)
        assert "support mismatch" in r.detail

    def test_residual_nonzero(self):
        f = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
        q = SPowerExpression(XY, 2, {(0, 2): [Fraction(1)], (2, 0): [Fraction(2)]})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure)
        assert "residual nonzero" in r.detail


class TestBFunction:
    def test_normal_crossings(self):
        for n in (1, 2, 3):
            r = bfunction(get_fixture(f"nc-{n}").generators())
            assert isinstance(r, BResult)
            expect = UniPoly([1])
            for _ in range(n):
                expect = expect * UniPoly([1, 1])
            assert r.b == expect
            # dual generators are -A^t, so f* carries a (-1)^n
            assert r.raw_leading == (-1) ** n
            assert r.special and r.symmetric
            assert r.functional_equation_held

    def test_functional_equation_failure(self):
        r = bfunction(get_fixture("bilinear-cone-4").generators())
        assert isinstance(r, BFailure)
        assert r.reason == "functional-equation"
        assert r.special is False
        assert not r.functional_equation_held

    def test_dual_degenerate(self):
        # f = x1^2 with a vanishing dual determinant
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        r = bfunction(g)
        assert isinstance(r, BFailure)
        assert r.reason == "dual-degenerate"
        assert "f* = 0" in r.message() or "f*" in r.message()

    def test_closure_error(self):
        g = GeneratorSet([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        with pytest.raises(ClosureError):
            bfunction(g)

    def test_not_prehomogeneous(self):
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        with pytest.raises(DomainError):
            bfunction(g)


class TestSymmetry:
    def test_cases(self):
        assert symmetry_check(UniPoly([1, 2, 1]))       # (s+1)^2
        assert symmetry_check(UniPoly([1, 1]))          # s+1
        assert symmetry_check(UniPoly([0, 2, 1]))       # s(s+2)
        assert not symmetry_check(UniPoly([2, 3, 1]))   # (s+1)(s+2)
        with pytest.raises(DomainError):
            symmetry_check(UniPoly([]))

    def test_scaling_invariant(self):
        assert symmetry_check(UniPoly([5, 10, 5]))


class TestAnnihilatorIdentity:
    def test_trace_matches(self):
        g = get_fixture("nc-3").generators()
        assert annihilator_identity_check([[1, 0, 0], [0, 1, 0], [0, 0, 1]], g)
        assert annihilator_identity_check([[2, 0, 0], [0, 0, 0], [0, 0, 0]], g)
        assert annihilator_identity_check([[1, 0, 0], [0, -1, 0], [0, 0, 0]], g)

    def test_not_semiinvariant(self):
        g = get_fixture("nc-2").generators()
        assert not annihilator_identity_check([[0, 1], [0, 0]], g)

    def test_character_trace_gap(self):
        # second generator has dchi = 2 but trace 3
        g = get_fixture("quadric-cone-3").generators()
        assert not annihilator_identity_check(g.matrix(1), g)


class TestFourier:
    A = [[1, 2], [3, 4]]

    def test_q_operators(self):
        q = q_operator(self.A, 5)
        assert q.C == [[Fraction(1), Fraction(3)], [Fraction(2), Fraction(4)]]
        assert q.c0 == 0 and q.c1 == -5
        qd = q_dual_operator(self.A, 5)
        assert qd.C == [[Fraction(-1), Fraction(-2)], [Fraction(-3), Fraction(-4)]]
        assert qd.c0 == 0 and qd.c1 == 5

    def test_transform_is_involutive(self):
        op = FirstOrderOperator(self.A, 7, -2)
        assert fourier_transform(fourier_transform(op)) == op

    def test_identity_at_trace(self):
        t = 1 + 4
        lhs = fourier_transform(q_operator(self.A, t))
        rhs = substitute_s(q_dual_operator(self.A, t), -1, -1)
        assert lhs == rhs
        assert fourier_check(self.A)
        assert fourier_check(self.A, t)
        assert not fourier_check(self.A, t + 1)

    def test_substitute(self):
        op = FirstOrderOperator(self.A, 2, 3)
        sub = substitute_s(op, -1, -1)
        assert sub.c1 == -3 and sub.c0 == 2 - 3
        assert sub.C == op.C


def random_form(rng, nvars, degree, bits):
    """Homogeneous integer form with coefficients of both signs below 2^bits."""
    monomials = [e for e in product(range(degree + 1), repeat=nvars)
                 if sum(e) == degree]
    terms = {e: rng.randrange(1, 2 ** bits) * rng.choice((1, -1))
             for e in rng.sample(monomials, rng.randint(1, len(monomials)))}
    return MultiPoly(XYZ[:nvars], terms)


def derivation_reference(fstar, f):
    """sum_alpha c_alpha (composed apply_derivation steps), over Fractions."""
    total = None
    for alpha, c in sorted(fstar.terms.items()):
        e = SPowerExpression.start(f)
        for v, times in zip(f.variables, alpha):
            for _ in range(times):
                e = apply_derivation(e, v, f)
        e = e.scale(c)
        total = e if total is None else total + e
    return total


class TestPackedEngine:
    def test_against_fraction_derivations(self):
        # seeded random inputs whose outputs overflow any machine word
        rng = random.Random(20081)
        widest = 0
        for case in range(12):
            nvars = rng.randint(2, 3)
            degree = rng.randint(2, 4)
            bits = 80 if case % 2 else rng.randint(1, 8)
            f = random_form(rng, nvars, degree, bits)
            fstar = random_form(rng, nvars, degree, bits)
            q = apply_operator(fstar, f)
            assert q == derivation_reference(fstar, f), case
            widest = max([widest] + [abs(c.numerator).bit_length()
                                     for sc in q.terms.values() for c in sc])
        assert widest > 64

    def test_exponent_wider_than_a_byte(self):
        # n(n-1) = 272 > 255: an 8-bit exponent field would wrap
        f = MultiPoly(("x",), {(17,): 1})
        q = apply_operator(f, f)
        expect = UniPoly([1])
        for j in range(17):
            expect = expect * UniPoly([17 - j, 17])
        assert list(q.terms) == [(272,)]
        assert q.coefficient((272,)) == expect

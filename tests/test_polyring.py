import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (fraction_shift, from_roots, random_chain_list, ref_add,
                      ref_compose_linear, ref_derivative, ref_divmod,
                      ref_evaluate, ref_gcd, ref_monic, ref_mul,
                      ref_parse_factored, ref_poly_add, ref_poly_derivative,
                      ref_poly_linear, ref_poly_mul, ref_product,
                      ref_restrict_line,
                      ref_trim, restrict)
from prehomog import liealg, polyring
from prehomog.bernstein import (SPowerExpression, apply_operator,
                               extract_cofactor)
from prehomog.errors import (CapacityError, ContextError, DomainError,
                             ParseError)
from prehomog.fixtures import fixture_names, get_fixture
from prehomog.liealg import classify
from prehomog.polyring import (MultiPoly, Spectrum, UniPoly, _factored,
                               is_squarefree, parse_factored,
                               parse_rational, primitive,
                               rational_root_spectrum, univariate_gcd)

XYZ = ("x", "y", "z")


def mp(terms, variables=XYZ):
    return MultiPoly(variables, terms)


def lin(*coeffs, const=0):
    """The MultiPoly sum coeffs_i x_i + const on as many variables."""
    return MultiPoly(XYZ[:len(coeffs)], ref_poly_linear(coeffs, const))


X, Y, Z = lin(1, 0, 0), lin(0, 1, 0), lin(0, 0, 1)


def random_poly(rng, variables=XYZ, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in variables)
        terms[e] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return MultiPoly(variables, terms)


class TestMultiPolyBasics:
    def test_zero_and_degree(self):
        z = MultiPoly(XYZ, {})
        assert z.is_zero
        assert z.degree() == -1
        assert (z.ints, z.scale) == ({}, 1)

    def test_constant_and_coercion(self):
        c = mp({(0, 0, 0): "3/4"})
        assert c.terms == {(0, 0, 0): Fraction(3, 4)}
        assert (c.ints, c.scale) == ({(0, 0, 0): 1}, Fraction(3, 4))
        assert c == mp({(0, 0, 0): Fraction(3, 4)})
        # no equality with a number
        assert c != Fraction(3, 4)
        with pytest.raises(ContextError):
            mp({(0, 0, 0): 0.75})

    def test_terms_merge_and_drop_zero(self):
        assert mp({(1, 0, 0): 2, (0, 1, 0): 0}).terms == {(1, 0, 0): 2}
        assert mp({(1, 0, 0): 0}).is_zero
        # (x + y)(x - y): the two xy terms merge and cancel
        assert ref_product(lin(1, 1, 0), lin(1, -1, 0)).terms == \
            {(2, 0, 0): 1, (0, 2, 0): -1}

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            mp({(-1, 0, 0): 1})

    def test_exponent_length_mismatch(self):
        with pytest.raises(ContextError):
            mp({(1, 0): 1})

    def test_exponents_must_be_ints(self):
        # a float, bool or str exponent is refused like a float coefficient
        for key in ((1.5, 0), (0, True), (1.0, 0), ("a", 0)):
            with pytest.raises(ContextError, match="exponents must be a tuple of ints"):
                MultiPoly(("x", "y"), {key: 1})
        with pytest.raises(ContextError):
            MultiPoly(("x", "y"), {(1.5, 0): 1, (0, True): 2})
        with pytest.raises(ContextError):
            MultiPoly(("a",), {("a",): 1})
        # a range equals no tuple key, but would stand for (1,) as a tuple
        with pytest.raises(ContextError, match="tuple of ints"):
            MultiPoly(("x",), {(1,): 1, range(1, 2): 2})
        with pytest.raises(DomainError):
            MultiPoly(("x", "y"), {(1, -2): 1})

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ContextError):
            MultiPoly(("x", "x"), {})

    def test_hash_agrees_with_eq(self):
        # polynomials built different ways are equal and hash alike
        pairs = [(mp({(0, 0, 0): 5}), mp({(0, 0, 0): "5"})),
                 (mp({(0, 0, 0): "-3/4"}),
                  ref_product(mp({(0, 0, 0): 3}), Fraction(-1, 4))),
                 (MultiPoly(("x",), {}), MultiPoly(("x",), {(1,): 0})),
                 (MultiPoly(XYZ, {}), ref_product(X, 0)),
                 (ref_product(lin(1, 1, 0), lin(1, -1, 0)),
                  mp({(0, 2, 0): -1, (2, 0, 0): 1})),
                 (mp({(1, 2, 0): 3, (0, 0, 0): Fraction(1, 2)}),
                  ref_product(mp({(1, 2, 0): 6, (0, 0, 0): 1}), Fraction(1, 2)))]
        for a, b in pairs:
            assert a == b and hash(a) == hash(b), (a, b)
        assert len({MultiPoly(("x",), {(1,): 1}), MultiPoly(("y",), {(1,): 1})}) == 2
        assert len({mp({(1, 0, 0): 2}), mp({(1, 0, 0): 1})}) == 2

    def test_arithmetic_needs_one_context(self):
        # the arithmetic left on MultiPoly, the operator walk and the exact
        # division by f, refuses two variable contexts
        a = MultiPoly(("x",), {(1,): 1})
        b = MultiPoly(("y",), {(1,): 1})
        with pytest.raises(ContextError, match="variable context mismatch"):
            extract_cofactor(SPowerExpression(("y",), 1, {(1,): [1]}), a)
        with pytest.raises(ContextError, match="same number of variables"):
            apply_operator(a, MultiPoly(("x", "y"), {(1, 0): 1}))
        assert a != b and a != MultiPoly(("x", "y"), {(1, 0): 1})
        assert MultiPoly(("x",), {(0,): 2}) != MultiPoly(("y",), {(0,): 2})

    def test_immutability(self):
        for name in ("terms", "ints", "scale", "variables"):
            with pytest.raises(AttributeError):
                setattr(X, name, {})

    def test_homogeneous_components(self):
        p = mp({(1, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): 1})
        assert p.is_homogeneous() is False
        assert ref_product(X, Y).is_homogeneous() is True


class TestCalculusAndSubstitution:
    def test_derivative(self):
        # the reference derivative, and the chain rule on a line against
        # restrict_line and UniPoly.derivative
        p = mp({(2, 1, 0): 1, (0, 0, 1): 3})
        assert ref_poly_derivative(p.terms, 0) == {(1, 1, 0): 2}
        assert ref_poly_derivative(p.terms, 1) == {(2, 0, 0): 1}
        assert ref_poly_derivative(p.terms, 2) == {(0, 0, 0): 3}
        a, b = [2, -1, 3], [1, 4, -2]
        want = ()
        for i, bi in enumerate(b):
            part = ref_restrict_line(mp(ref_poly_derivative(p.terms, i)), a, b)
            want = ref_add(want, ref_mul(part, bi))
        assert p.restrict_line(a, b).derivative().coeffs == want

    def test_product_rule_random(self):
        # d(pq) = dp q + p dq on the reference derivative and product
        # that the engine oracles build on
        rng = random.Random(7)
        for _ in range(40):
            p, q = random_poly(rng), random_poly(rng)
            i = XYZ.index(rng.choice(XYZ))
            lhs = ref_poly_derivative(ref_poly_mul(p.terms, q.terms), i)
            rhs = ref_poly_add(ref_poly_mul(ref_poly_derivative(p.terms, i), q.terms),
                               ref_poly_mul(p.terms, ref_poly_derivative(q.terms, i)))
            assert lhs == rhs

    def test_evaluate(self):
        p = mp({(1, 1, 0): 1, (0, 0, 2): -1})
        assert p.evaluate([2, 3, 1]) == 5
        assert p.evaluate([Fraction(1, 2), 4, 0]) == 2
        # integer, Fraction and string coordinates give the same Fraction
        rng = random.Random(5)
        for _ in range(50):
            q = random_poly(rng)
            point = [rng.randint(-4, 4) for _ in XYZ]
            want = sum((c * math.prod(Fraction(v) ** k for v, k in zip(point, e))
                        for e, c in q.terms.items()), Fraction(0))
            for coords in (point, [Fraction(v) for v in point],
                           [str(v) for v in point]):
                got = q.evaluate(coords)
                assert got == want and type(got) is Fraction

    def test_shift(self):
        p = mp({(1, 1, 1): 1})
        s = fraction_shift(p, [1, 0, 0])
        # (1+x) y z
        assert s == mp({(1, 1, 1): 1, (0, 1, 1): 1})
        assert fraction_shift(p, [0, 0, 0]) == p

    def test_restrict(self):
        p = mp({(1, 1, 0): 1, (0, 1, 1): 1, (0, 2, 0): 1})
        r = restrict(p, [1])
        assert r.variables == ("y",)
        assert r == MultiPoly(("y",), {(2,): 1})

    def test_restrict_line_matches_evaluate(self):
        rng = random.Random(3)
        for _ in range(20):
            p = random_poly(rng)
            a = [rng.randint(-4, 4) for _ in XYZ]
            b = [rng.randint(-4, 4) for _ in XYZ]
            u = p.restrict_line(a, b)
            for t in (-2, 0, 1, 3):
                pt = [ai + t * bi for ai, bi in zip(a, b)]
                assert u.evaluate(t) == p.evaluate(pt)


class TestExpansionsAgainstFraction:
    def test_random_lines_and_points(self):
        rng = random.Random(4107)
        seen = dict.fromkeys(("zero", "fraction_coeffs", "int_coeffs",
                              "rational_line", "int_line", "non_homogeneous",
                              "negative_coeffs"), 0)
        for _ in range(320):
            nv = rng.randint(1, 4)
            variables = tuple(f"v{i}" for i in range(nv))
            p = random_expansion_input(rng, variables)
            integral = rng.random() < 0.5
            # the third vector is unused; drawing it keeps the seeded lines
            a, b, _ = ([random_coordinate(rng, integral) for _ in variables]
                       for _ in range(3))
            assert p.restrict_line(a, b).coeffs == ref_restrict_line(p, a, b)
            seen["zero"] += p.is_zero
            seen["fraction_coeffs"] += any(c.denominator > 1
                                           for c in p.terms.values())
            seen["int_coeffs"] += not p.is_zero and all(
                c.denominator == 1 for c in p.terms.values())
            seen["rational_line"] += not integral
            seen["int_line"] += integral
            seen["non_homogeneous"] += not p.is_homogeneous()
            seen["negative_coeffs"] += any(c < 0 for c in p.terms.values())
        assert min(seen.values()) >= 20, seen

    def test_degree_dropping_lines(self):
        # p = l*q + r with l(b) = 0 and deg r < deg l*q: the top component
        # l*top(q) of p vanishes at b, so u = p(a + t*b) loses degree
        rng = random.Random(4108)
        for trial in range(80):
            variables = tuple(f"v{i}" for i in range(rng.randint(2, 4)))
            integral = trial % 2 == 0
            a = [random_coordinate(rng, integral) for _ in variables]
            b = [Fraction(random_coordinate(rng, integral)) for _ in variables]
            i, j = rng.sample(range(len(variables)), 2)
            b[i] = b[i] or Fraction(rng.choice((1, -3)))
            l_ij = ref_poly_linear([b[j] if k == i else -b[i] if k == j else 0
                                    for k in range(len(variables))])
            q = random_expansion_input(rng, variables)
            top = ref_poly_mul(l_ij, q.terms or {(0,) * len(variables): 1})
            r = random_expansion_input(rng, variables)
            p = MultiPoly(variables, ref_poly_add(top, {
                e: c for e, c in r.terms.items() if sum(e) < max(map(sum, top))}))
            u = p.restrict_line(a, b)
            assert u.coeffs == ref_restrict_line(p, a, b)
            assert u.degree() < p.degree()

    def test_integer_line_stays_in_integers(self, monkeypatch):
        # the only Fraction products are of the scales, none per coefficient
        p = mp(ref_poly_add(ref_product(*[lin(1, 2, -1)] * 4, Fraction(1, 3)).terms,
                            {(1, 1, 1): 1}))
        expected = ref_restrict_line(p, [3, -1, 2], [1, 5, -4])
        products = [0]
        mul = Fraction.__mul__

        def counted(self, other):
            products[0] += 1
            return mul(self, other)

        monkeypatch.setattr(Fraction, "__mul__", counted)
        u = p.restrict_line([3, -1, 2], [1, 5, -4])
        monkeypatch.undo()
        assert u.coeffs == expected
        assert products[0] <= 2


def random_coordinate(rng, integral):
    if integral:
        return rng.randint(-6, 6)
    return rng.choice((Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                       rng.randint(-6, 6), "-5/4"))


def random_expansion_input(rng, variables):
    """Sparse polynomials of degree <= 5 per variable, about one in twelve
    zero, half of the rest with integer coefficients."""
    if rng.random() < 1 / 12:
        return MultiPoly(variables, {})
    integral = rng.random() < 0.5
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(0, 5 if len(variables) < 3 else 3)
                  for _ in variables)
        c = rng.randint(-40, 40)
        terms[e] = c if integral else Fraction(c, rng.randint(1, 9))
    return MultiPoly(variables, terms)


class TestUniPoly:
    def test_construction_trims(self):
        p = UniPoly([1, 2, 0, 0])
        assert p.coeffs == (1, 2)
        assert UniPoly([]).is_zero
        assert UniPoly([0]).is_zero

    def test_degree_leading_monic(self):
        p = UniPoly([2, 0, 4])
        assert p.degree() == 2
        assert p.leading() == 4
        assert p.monic() == UniPoly([Fraction(1, 2), 0, 1])
        assert UniPoly([]).degree() == -1
        with pytest.raises(DomainError):
            UniPoly([]).monic()

    def test_compose_linear(self):
        p = UniPoly([1, 2, 1])  # (s+1)^2
        q = p.compose_linear(-1, -2)  # (-s-2+1)^2 = (s+1)^2
        assert q == p
        r = UniPoly([0, 1]).compose_linear(3, 5)
        assert r == UniPoly([5, 3])

    def test_from_roots(self):
        p = from_roots([Fraction(-1, 2), -1])
        assert p.evaluate(Fraction(-1, 2)) == 0

    def test_affine_power_against_repeated_products(self):
        # the parser expands a power of degree <= 1 through one binomial
        # row; the oracle is the product of k copies.  Two affine bases, two
        # constants and zero are compared at 40 seeded exponents in 0..300
        # and at 0, 1 and 300; 30 more affine bases at every exponent up
        # to 20.
        rng = random.Random(20261018)

        def rat():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        def power(p, k):
            c0, c1 = (p.coeffs + (0, 0))[:2]
            return parse_factored(f"(({c1})s+({c0}))^{k}")

        bases = [UniPoly([rng.randint(-9, 9), rng.randint(1, 9)]),
                 UniPoly([rat(), rat() or 7]),
                 UniPoly([rat() or 1]), UniPoly([-1]), UniPoly([])]
        checked = {0, 1, 300} | set(rng.sample(range(2, 300), 40))
        extra = [UniPoly([rat(), rat() or 1]) for _ in range(30)]
        for p, top, ks in ([(p, 300, checked) for p in bases]
                           + [(p, 20, range(21)) for p in extra]):
            want = UniPoly.one()
            for k in range(top + 1):
                if k in ks:
                    assert power(p, k) == want, (p, k)
                want = want * p
        # higher degrees keep the product loop
        q = UniPoly([1, -2, 3])
        assert parse_factored("(3s^2-2s+1)^3") == q * q * q

    def test_str(self):
        assert str(UniPoly([1, 1])) == "s + 1"
        assert str(UniPoly([Fraction(-1, 2), 0, 1])) == "s^2 - 1/2"
        assert str(UniPoly([])) == "0"


def random_unipoly(rng):
    """Coefficient lists: zero, constants, and degree 1..6 with integer or
    rational coefficients of either sign, sometimes given with trailing
    zeros."""
    kind = rng.choice(("zero", "constant", "integer", "rational", "rational"))
    if kind == "zero":
        return [0] * rng.randint(0, 2)
    size = 1 if kind == "constant" else rng.randint(2, 7)
    cs = []
    for _ in range(size):
        c = rng.randint(-30, 30)
        cs.append(c if kind == "integer" else Fraction(c, rng.randint(1, 12)))
    cs[-1] = cs[-1] or rng.choice((1, -1, Fraction(-5, 7)))
    return cs + [0] * rng.randint(0, 1)


def random_rational(rng):
    return rng.choice((rng.randint(-5, 5),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 8))))


class TestUniPolyAgainstFraction:
    """UniPoly on its content-free integer form against the Fraction
    coefficient arithmetic of conftest, on seeded inputs."""

    def check(self, got, want, seen):
        want = ref_trim(want)
        assert got.coeffs == want
        assert all(type(c) is Fraction for c in got.coeffs)
        assert type(got.scale) is Fraction and got.scale > 0
        assert all(type(c) is int for c in got.ints)
        assert math.gcd(*got.ints) == (1 if want else 0)
        assert not got.ints or got.ints[-1]
        same = UniPoly(want)
        assert got == same and hash(got) == hash(same)
        if len(want) < 2:
            value = want[0] if want else 0
            assert got == UniPoly.constant(value) and got != value
        seen["zero"] += not want
        seen["constant"] += len(want) == 1
        seen["negative_leading"] += bool(want) and want[-1] < 0
        seen["rational"] += any(c.denominator > 1 for c in want)

    def test_operations(self):
        rng = random.Random(18)
        seen = dict.fromkeys(("zero", "constant", "negative_leading",
                              "rational", "compose_a_zero"), 0)
        for _ in range(300):
            ca, cb = random_unipoly(rng), random_unipoly(rng)
            a, b = UniPoly(ca), UniPoly(cb)
            fa, fb = ref_trim(ca), ref_trim(cb)
            self.check(a, fa, seen)
            c = random_rational(rng)
            x, y = random_rational(rng), random_rational(rng)
            if rng.random() < 0.2:
                x = 0
            seen["compose_a_zero"] += x == 0
            self.check(a * c, ref_mul(fa, c), seen)
            self.check(c * a, ref_mul(fa, c), seen)
            self.check(a * b, ref_mul(fa, fb), seen)
            self.check(a.compose_linear(x, y), ref_compose_linear(fa, x, y), seen)
            self.check(a.derivative(), ref_derivative(fa), seen)
            assert a.evaluate(x) == ref_evaluate(fa, x)
            assert type(a.evaluate(x)) is Fraction
            if fa:
                self.check(a.monic(), ref_monic(fa), seen)
                assert a.leading() == fa[-1]
        for _ in range(60):
            nv = rng.randint(1, 3)
            variables = tuple(f"v{i}" for i in range(nv))
            p = random_expansion_input(rng, variables)
            integral = rng.random() < 0.5
            a, b = ([random_coordinate(rng, integral) for _ in variables]
                    for _ in range(2))
            self.check(p.restrict_line(a, b), ref_restrict_line(p, a, b), seen)
        assert min(seen.values()) >= 20, seen

    def test_a_bool_compares_unequal(self):
        # == answers and never raises: a UniPoly equals only a UniPoly, so
        # a constant equals no number, bool or not
        one = UniPoly.one()
        assert (one == True) is False and one != True  # noqa: E712
        assert one != 1 and one != Fraction(1) and one != 1.0
        assert one == UniPoly.constant(1) and UniPoly([]) == UniPoly.constant(0)
        assert 1 not in {one: 1} and UniPoly([]) != False  # noqa: E712
        assert len({UniPoly([5]), UniPoly.constant(5), 5}) == 2

    def test_no_fraction_per_term(self, monkeypatch):
        # on a degree-60 input the integer form builds a bounded number of
        # Fractions per operation; the Fraction arithmetic builds one or
        # more per coefficient
        rng = random.Random(60)
        a = UniPoly([Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                     for _ in range(60)] + [Fraction(7, 3)])
        b = UniPoly([Fraction(rng.randint(-99, 99), rng.randint(1, 30))
                     for _ in range(60)] + [Fraction(-1, 2)])
        made = [0]
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        for op in (lambda: a * b, lambda: a * Fraction(-3, 4),
                   lambda: parse_factored("((-7/2)s+(5/3))^60"),
                   lambda: a.compose_linear(Fraction(-1, 3), Fraction(2, 5)),
                   lambda: a.monic(), lambda: a.derivative()):
            made[0] = 0
            op()
            assert made[0] <= 8, made[0]


class TestPrimitive:
    def test_fraction_coefficients(self):
        p = UniPoly([Fraction(2, 3), Fraction(4, 3)])
        ints, scale = primitive(p.coeffs)
        assert ints == [1, 2]
        assert scale == Fraction(2, 3)
        assert UniPoly([Fraction(i) * scale for i in ints]) == p

    def test_empty(self):
        assert primitive([]) == ([], 1)

    def test_all_int(self):
        assert primitive([6, 4, 10]) == ([3, 2, 5], 2)
        assert primitive([3, 5]) == ([3, 5], 1)

    def test_negative_leading(self):
        ints, scale = primitive([Fraction(-3, 4), Fraction(9, 2)])
        assert ints == [-1, 6]
        assert scale == Fraction(3, 4)

    def test_interior_zero(self):
        ints, scale = primitive([Fraction(5, 2), 0, Fraction(-5, 3), 0])
        assert ints == [3, 0, -2, 0]
        assert scale == Fraction(5, 6)
        assert primitive([0, 0]) == ([0, 0], 1)

    def test_random_contract(self):
        rng = random.Random(61)
        for _ in range(200):
            values = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                      for _ in range(rng.randint(1, 6))]
            ints, scale = primitive(values)
            assert scale > 0
            assert [scale * v for v in ints] == values
            assert all(type(v) is int for v in ints)
            assert math.gcd(*ints) in (0, 1)


class TestGcd:
    def test_common_factor(self):
        a = from_roots([1, -1])
        b = from_roots([1, 2])
        assert univariate_gcd(a, b) == from_roots([1])

    def test_coprime(self):
        a = from_roots([-1])
        b = from_roots([-2])
        assert univariate_gcd(a, b) == UniPoly.one()

    def test_with_zero(self):
        a = from_roots([5]) * 3
        assert univariate_gcd(a, UniPoly([])) == a.monic()
        with pytest.raises(DomainError):
            univariate_gcd(UniPoly([]), UniPoly([]))

    def test_rational_coefficients(self):
        a = from_roots([Fraction(2, 3)]) * Fraction(9, 7)
        b = from_roots([Fraction(2, 3), 4])
        assert univariate_gcd(a, b) == from_roots([Fraction(2, 3)])

    def test_repeated_factor_with_derivative(self):
        p = from_roots([2, 2, 5])
        g = univariate_gcd(p, p.derivative())
        assert g == from_roots([2])

    def test_first_width_retried(self):
        # found by a seeded search over products g*x, g*y: at the first
        # W = 4 (2^4 > 2*5 + 2) the digits of gcd(u(16), v(16)) = 3168 give
        # s^3 - 4s^2 + 6s, which divides neither, so W doubles
        u, v = UniPoly([0, 2, 5, 2]), UniPoly([0, 14, -9, -8])
        W = (2 * 5 + 2).bit_length()
        h = math.gcd(*(sum(c << W * i for i, c in enumerate(p.ints)) for p in (u, v)))
        first = UniPoly._form(polyring._balanced_digits(h, W), Fraction(1))
        assert first.degree() == 3 and ref_divmod(u.coeffs, first.coeffs)[1]
        assert univariate_gcd(u, v).coeffs == ref_gcd(u.coeffs, v.coeffs) == (0, 2, 1)

    def test_against_fraction_euclid(self):
        # a = g u and b = g v for seeded g, u and v: the heuristic
        # gcd against Euclid's algorithm over Q
        rng = random.Random(19)
        seen = dict.fromkeys(("common_factor", "constant", "zero",
                              "negative_leading", "rational"), 0)
        for _ in range(300):
            fg = ref_trim(random_unipoly(rng)) or (Fraction(1),)
            fa, fb = (ref_mul(fg, ref_trim(random_unipoly(rng)))
                      for _ in range(2))
            if not fa and not fb:
                with pytest.raises(DomainError):
                    univariate_gcd(UniPoly(fa), UniPoly(fb))
                continue
            want = ref_gcd(fa, fb)
            assert univariate_gcd(UniPoly(fa), UniPoly(fb)).coeffs == want
            assert univariate_gcd(UniPoly(fb), UniPoly(fa)).coeffs == want
            seen["common_factor"] += len(want) > 1
            seen["constant"] += len(fa) == 1 or len(fb) == 1
            seen["zero"] += not fa or not fb
            seen["negative_leading"] += any(f and f[-1] < 0 for f in (fa, fb))
            seen["rational"] += any(c.denominator > 1 for c in fa + fb)
        assert min(seen.values()) >= 20, seen


class TestSpectrum:
    def test_all_rational(self):
        b = from_roots([Fraction(-7, 6), -1, -1, Fraction(-5, 6)]) * 4
        sp = rational_root_spectrum(b)
        assert sp.roots == ((Fraction(-7, 6), 1), (-1, 2), (Fraction(-5, 6), 1))
        assert sp.residual == UniPoly.one()
        assert from_roots([r for r, m in sp.roots
                                   for _ in range(m)]) == b.monic()

    def test_residual_kept(self):
        b = from_roots([-1]) * UniPoly([1, 0, 1])  # (s+1)(s^2+1)
        sp = rational_root_spectrum(b)
        assert sp.roots == ((-1, 1),)
        assert sp.residual == UniPoly([1, 0, 1])

    def test_zero_roots_peeled(self):
        b = UniPoly([0, 0, 1, 1])  # s^2 (s+1)
        sp = rational_root_spectrum(b)
        assert sp.roots == ((-1, 1), (0, 2))

    def test_ascending_order(self):
        b = from_roots([Fraction(-2, 3), Fraction(-4, 3), -1])
        sp = rational_root_spectrum(b)
        assert [r for r, _ in sp.roots] == [Fraction(-4, 3), -1, Fraction(-2, 3)]

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            rational_root_spectrum(UniPoly([]))

    @pytest.mark.parametrize("factor", [
        (UniPoly([1, 1]), 0), (UniPoly([1, 1]), -2), (UniPoly([1, 0, 1]), -1),
        (UniPoly([1, 1]), 1.0), (UniPoly([1, 1]), True), (UniPoly([1, 1]), "2")])
    def test_exponent_must_be_a_positive_int(self, factor):
        # (s+1)^0 once gave the root -1, (s+1)^-2 a multiplicity -2
        with pytest.raises(DomainError):
            rational_root_spectrum(factor)
        with pytest.raises(DomainError):
            rational_root_spectrum(UniPoly([2, 1]), factor)

    def test_positive_roots_found(self):
        b = from_roots([Fraction(3, 2), 1, -1, -4])
        sp = rational_root_spectrum(b)
        assert sp.roots == ((-4, 1), (-1, 1), (1, 1), (Fraction(3, 2), 1))

    def test_constants_and_pure_powers(self):
        assert rational_root_spectrum(UniPoly([Fraction(-5, 3)])) == \
            Spectrum((), UniPoly.one())
        sp = rational_root_spectrum(UniPoly([0, 0, 0, 7]))
        assert sp.roots == ((0, 3),) and sp.residual == UniPoly.one()

    def test_no_sign_survives_descartes(self, monkeypatch):
        # s^2 + p has no real root: no divisor list is built
        calls = [0]
        divisors = polyring._divisors

        def counted(n):
            calls[0] += 1
            return divisors(n)

        monkeypatch.setattr(polyring, "_divisors", counted)
        p = 2**48 - 59      # prime
        sp = rational_root_spectrum(UniPoly([p, 0, 1]))
        assert sp.roots == () and sp.residual == UniPoly([p, 0, 1])
        assert calls[0] == 0

    def test_trial_division_limit(self):
        # 999983 is the largest prime below the limit and 10^6 + 3 the least
        # above it: a cofactor needing a trial divisor past the limit is refused
        powers = polyring._prime_powers(999983 ** 2, 3)
        assert powers == ([(999983, 2)], 3)
        assert polyring._divisors(powers[0]) == [1, 999983, 999983 ** 2]
        with pytest.raises(CapacityError, match="trial-division limit"):
            polyring._prime_powers((10**6 + 3) ** 2, polyring.MAX_ROOT_PAIRS)
        # (s+1)(s+2^64-59): a degree-1 factor gives its root unsearched
        with pytest.raises(CapacityError):
            rational_root_spectrum(UniPoly([1, 1]) * UniPoly([2**64 - 59, 1]))

    def test_large_smooth_end_terms(self):
        # c0 has 72 bits: beyond trial division up to its square root
        r = Fraction(2**70, 3)
        b = from_roots([r, r, -5]) * UniPoly([2, 0, 1])
        sp = rational_root_spectrum(b)
        assert sp.roots == ((-5, 1), (r, 2))
        assert sp.residual == UniPoly([2, 0, 1])

    @pytest.mark.parametrize("text", [
        "(s+" + "7" * 60 + ")^2",                   # each prime squared
        "(s+1)(s+" + str(math.prod(p for p in range(2, 542)
                                   if all(p % q for q in range(2, p)))) + ")",  # 100 primes
    ])
    def test_divisor_pair_cap(self, text):
        # the divisor count is known from the prime exponents, so an end
        # term with millions of divisors is refused before any is listed
        b = parse_factored(text)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="divisor pairs"):
            rational_root_spectrum(b)
        assert time.perf_counter() - start < 1

    def test_divisor_pair_cap_boundary(self, monkeypatch):
        # (2s + 1)(s + 6): 2 * 4 divisor pairs of (lc, f(0)) = (2, 6)
        b = parse_factored("(2s+1)(s+6)")
        monkeypatch.setattr(polyring, "MAX_ROOT_PAIRS", 8)
        assert rational_root_spectrum(b).roots == ((-6, 1), (Fraction(-1, 2), 1))
        monkeypatch.setattr(polyring, "MAX_ROOT_PAIRS", 7)
        with pytest.raises(CapacityError, match="more than 7 divisor pairs"):
            rational_root_spectrum(b)


class TestSpectrumAgainstTrialDivision:
    def test_random_polynomials(self):
        rng = random.Random(20081)
        seen = dict.fromkeys(("positive", "zero", "repeated", "residual",
                              "constant", "wide"), 0)
        for _ in range(600):
            b = random_spectrum_input(rng)
            sp = rational_root_spectrum(b)
            assert sp == trial_division_spectrum(b)
            assert_inside_root_bounds(b, sp)
            seen["positive"] += any(r > 0 for r, _ in sp.roots)
            seen["zero"] += any(r == 0 for r, _ in sp.roots)
            seen["repeated"] += any(m > 1 for _, m in sp.roots)
            seen["residual"] += sp.residual.degree() > 0
            seen["constant"] += b.degree() == 0
            ints, _ = primitive(b.coeffs)
            seen["wide"] += max(abs(c) for c in ints).bit_length() > 64
        assert min(seen.values()) >= 20, seen

    def test_products_of_linear_factors(self):
        rng = random.Random(26)
        for _ in range(8):
            b = linear_factor_product(rng)
            sp = rational_root_spectrum(b)
            assert sp == trial_division_spectrum(b)
            assert sp.residual == UniPoly.one()
            assert_inside_root_bounds(b, sp)
        # roots at exactly +-2^k and +-1/2^k, the values the power-of-two
        # bounds take
        for k in (0, 1, 7, 64):
            for r in (Fraction(2**k), Fraction(-2**k), Fraction(1, 2**k),
                      Fraction(-1, 2**k)):
                for roots in ([r], [r] * 3 + [1 / r] * 2):
                    b = from_roots(roots)
                    sp = rational_root_spectrum(b)
                    assert list(sp.roots) == sorted(Counter(roots).items())
                    assert_inside_root_bounds(b, sp)

    def test_search_is_bounded(self, monkeypatch):
        calls = [0]
        divide = polyring._divide_linear

        def counted(*args):
            calls[0] += 1
            return divide(*args)

        def no_evaluate(self, x):
            raise AssertionError("UniPoly.evaluate called by the root search")

        b = parse_factored(GUARD_LIST)
        monkeypatch.setattr(polyring, "_divide_linear", counted)
        monkeypatch.setattr(UniPoly, "evaluate", no_evaluate)
        sp = rational_root_spectrum(b)
        assert sum(m for _, m in sp.roots) == 10
        assert_inside_root_bounds(b, sp)
        assert calls[0] <= 78   # 39 exact divisions measured; 9400 evaluations before


def assert_inside_root_bounds(b, sp):
    """Every nonzero root r of b has |r| <= the Fujiwara bound h of the
    search's integer form f and 1/|r| <= that of f reversed."""
    sizes = [abs(r) for r, _ in sp.roots if r]
    if sizes:
        f = list(b.ints)
        f = f[next(i for i, c in enumerate(f) if c):]     # zero roots stripped
        assert max(sizes) <= polyring._fujiwara_bound(f), b
        assert 1 / min(sizes) <= polyring._fujiwara_bound(f[::-1]), b


def _trial_divisors(n):
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def trial_division_spectrum(b):
    """The former search, kept as the oracle: every divisor pair of the
    constant and leading terms, both signs, by Fraction evaluation and
    deflation on coefficient lists."""
    work = ref_monic(b.coeffs)
    roots = []
    zero_mult = 0
    while len(work) > 1 and not work[0]:
        work = ref_divmod(work, (0, 1))[0]
        zero_mult += 1
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(work) > 1:
        ints, _ = primitive(work)
        c0, cd = abs(ints[0]), abs(ints[-1])
        for num in sorted(_trial_divisors(c0)):
            for den in sorted(_trial_divisors(cd)):
                for cand in (Fraction(-num, den), Fraction(num, den)):
                    mult = 0
                    while len(work) > 1 and not ref_evaluate(work, cand):
                        work = ref_divmod(work, (-cand, 1))[0]
                        mult += 1
                    if mult:
                        roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0])
    return Spectrum(roots, UniPoly(work).monic())


def random_spectrum_input(rng):
    """Rational roots of both signs (zero and repeats included) times an
    optional quadratic or cubic factor, times a rational scale."""
    roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(rng.randint(0, 4))]
    if roots and rng.random() < 0.3:
        roots += [rng.choice(roots)] * rng.randint(1, 2)
    p = from_roots(roots)
    kind = rng.randrange(4)
    if kind == 1:       # s^2 + m s + 1, m >= 3: irrational roots, m > 2^64
        p = p * UniPoly([1, 2**70 + rng.randint(0, 99), 1])
    elif kind == 2:     # irreducible or not, small ends
        p = p * UniPoly([rng.randint(1, 9), rng.randint(-9, 9),
                         rng.randint(1, 5)])
    elif kind == 3:     # a cubic; rational roots only by chance
        p = p * UniPoly([rng.randint(-9, 9) or 1, rng.randint(-9, 9), 0,
                         rng.randint(1, 3)])
    scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 2**66),
                     rng.randint(1, 2**66))
    return p * scale


def linear_factor_product(rng):
    """6-10 factors q*s + p with q <= 12, |p| < 2q, of both signs, whose
    constant and leading terms stay within 26 bits."""
    while True:
        factors = []
        for _ in range(rng.randint(6, 10)):
            q = rng.randint(2, 12)
            factors.append((rng.choice((-1, 1)) * rng.randint(1, 2 * q - 1), q))
        c0 = cd = 1
        for p, q in factors:
            c0 *= abs(p)
            cd *= q
        if max(c0, cd).bit_length() <= 26:
            out = UniPoly.one()
            for p, q in factors:
                out = out * UniPoly([p, q])
            return out


def random_form(rng, sign):
    """A content-free integer form on three variables, {exponent tuple: int}:
    a signed monomial, or up to four terms with no unit coefficient, all
    negative when sign < 0, all positive when sign > 0, mixed at 0."""
    while True:
        terms = {tuple(rng.randint(0, 2) for _ in XYZ):
                 rng.choice((2, 3, 5, 6, 10, 15)) for _ in range(rng.randint(1, 4))}
        if len(terms) == 1:
            return {e: rng.choice((1, -1)) for e in terms}
        if math.gcd(*terms.values()) == 1:
            return {e: c * (sign or rng.choice((1, -1))) for e, c in terms.items()}


class TestQuotient:
    """`polyring._quotient`, the exact division of integer forms, against
    products made by `conftest.ref_poly_mul`."""

    def test_seeded_products(self):
        rng = random.Random(2718)
        zero = (0, 0, 0)
        constant = 0
        for trial in range(300):
            a = random_form(rng, trial % 3 - 1)
            b = random_form(rng, trial // 3 % 3 - 1)
            ab = {e: int(c) for e, c in ref_poly_mul(a, b).items()}
            assert polyring._quotient(ab, b) == a
            if set(b) == {zero}:
                constant += 1
                continue
            ab[zero] = ab.get(zero, 0) + 1
            assert polyring._quotient({e: c for e, c in ab.items() if c}, b) is None
            c = random_form(rng, 0)
            q = polyring._quotient(c, b)
            assert q is None or ref_poly_mul(q, b) == c
        assert constant < 150

    def test_constant_divisor_and_zero(self):
        a = {(2, 0, 1): -6, (0, 1, 0): 10, (0, 0, 0): 15}
        assert polyring._quotient(a, {(0, 0, 0): 1}) == a
        assert polyring._quotient(a, {(0, 0, 0): -1}) == {e: -c for e, c in a.items()}
        assert polyring._quotient({}, {(1, 0, 0): 2, (0, 1, 0): 3}) == {}

    def test_refusals(self):
        b = {(1, 0, 0): 2, (0, 1, 0): 3}                 # 2x + 3y
        # x (2x + 3y) + y^2: the exponents fit, a coefficient does not
        assert polyring._quotient({(2, 0, 0): 2, (1, 1, 0): 3, (0, 2, 0): 1}, b) is None
        # 3x: the leading coefficient 3 is not a multiple of 2
        assert polyring._quotient({(1, 0, 0): 3}, b) is None
        # z: the exponent difference leaves a slot negative
        assert polyring._quotient({(0, 0, 1): 1}, b) is None
        # a of lower degree than b
        assert polyring._quotient({(1, 0, 0): 2}, {(1, 1, 0): 1}) is None


# ten factors in the shape of a seeded chain list: roots in (-2, 0)
GUARD_LIST = "(12s+7)(5s+9)(12s+13)(7s+4)(11s+19)(3s+2)(5s+6)(3s+4)(2s+3)(s+1)"


def _count_lines(monkeypatch):
    lines = [0]
    restrict = MultiPoly.restrict_line

    def counted(self, a, b):
        lines[0] += 1
        return restrict(self, a, b)

    monkeypatch.setattr(MultiPoly, "restrict_line", counted)
    return lines


NONREDUCED_FIXTURES = {"atilde-2", "atilde-3", "det22-squared", "dtilde3-22111"}


class TestSquarefree:
    def test_squarefree_product_of_coordinates(self):
        assert is_squarefree(ref_product(X, Y, Z)) is True

    def test_square_detected(self):
        assert is_squarefree(ref_product(lin(1, 1, 0), lin(1, 1, 0), Z)) is False

    def test_deterministic(self):
        p = ref_product(lin(1, 2, -1), lin(1, 2, -1), lin(1, -1, 0))
        runs = [is_squarefree(p) for _ in range(3)]
        assert runs == [False, False, False]

    def test_one_clean_line_certifies(self, monkeypatch):
        lines = _count_lines(monkeypatch)
        assert is_squarefree(ref_product(X, Y, Z)) is True
        assert lines[0] == 1

    def test_false_after_every_trial(self, monkeypatch):
        lines = _count_lines(monkeypatch)
        assert is_squarefree(ref_product(lin(1, 1, 0), lin(1, 1, 0), Z)) is False
        assert lines[0] == 8

    def test_witness_after_first_repeated_factor(self, monkeypatch):
        lines = _count_lines(monkeypatch)
        calls = []
        p = ref_product(lin(1, 1, 0), lin(1, 1, 0), Z)
        assert is_squarefree(p, lambda: calls.append(lines[0])) is False
        assert (calls, lines[0]) == ([1], 8)      # no proof: all eight lines
        assert is_squarefree(p, lambda: calls.append(lines[0]) or True) is False
        assert (calls, lines[0]) == ([1, 9], 9)   # a proof ends it after one
        assert is_squarefree(ref_product(X, Y, Z), calls.clear) is True
        assert (calls, lines[0]) == ([1, 9], 10)  # a clean line never asks

    def test_classify_verdicts_unchanged(self):
        for name in fixture_names():
            cls = classify(get_fixture(name).generators())
            assert cls.reduced is (name not in NONREDUCED_FIXTURES), name

    @pytest.mark.parametrize("name", ["det22-squared", "atilde-29"])
    def test_classify_certifies_on_one_line(self, name, monkeypatch):
        """A squared block determinant proves `reduced: no` after the first
        line."""
        lines = _count_lines(monkeypatch)
        assert classify(get_fixture(name).generators()).reduced is False
        assert lines[0] == 1

    def test_reduced_inputs_never_search_blocks(self, monkeypatch):
        def refuse(g):
            raise AssertionError("block search on a reduced input")

        monkeypatch.setattr(liealg, "_blocks", refuse)
        reduced = [n for n in fixture_names() if n not in NONREDUCED_FIXTURES]
        assert len(reduced) == 10
        for name in reduced:
            assert classify(get_fixture(name).generators()).reduced is True

    def test_degree_zero_and_errors(self):
        assert is_squarefree(mp({(0, 0, 0): 5}))
        with pytest.raises(DomainError):
            is_squarefree(MultiPoly(XYZ, {}))


class TestParsing:
    def test_rational_round_trip(self):
        for text in ("3", "-5", "2/7", "-11/4"):
            assert str(parse_rational(text)) == text
        with pytest.raises(ParseError):
            parse_rational("1.5")

    def test_rational_language(self):
        """Surrounding space is stripped; the rest must be [+-]?\\d+(/\\d+)?
        with a nonzero denominator."""
        for text, want in ((" +7 ", 7), ("\t-0/5\n", 0), ("006/4", Fraction(3, 2)),
                           ("-12/8", Fraction(-3, 2))):
            assert parse_rational(text) == want
            assert type(parse_rational(text)) is Fraction
        for text in ("1.5", "1e3", "1_000", "3/0", "/2", "2/", "", "+", "1/-2",
                     "- 1", "1 /2", "1/2/3", "0x10"):
            with pytest.raises(ParseError):
                parse_rational(text)

    def test_factored_products(self):
        p = parse_factored("(s+2/3)(s+1)^5(s+4/3)(s+2)")
        exp = from_roots(
            [Fraction(-2, 3)] + [-1] * 5 + [Fraction(-4, 3), -2])
        assert p == exp

    def test_linear_and_plain(self):
        assert parse_factored("3s+2") == UniPoly([2, 3])
        assert parse_factored("s") == UniPoly([0, 1])
        assert parse_factored("-2s+4") == UniPoly([4, -2])
        assert parse_factored("s^2-1") == UniPoly([-1, 0, 1])

    def test_juxtaposition_and_explicit_star(self):
        assert parse_factored("(s+1)(s+2)") == parse_factored("(s+1)*(s+2)")
        assert parse_factored("2(s+1)") == UniPoly([2, 2])

    def test_nested(self):
        assert parse_factored("((s+1))^2") == UniPoly([1, 2, 1])

    def test_nesting_depth(self):
        depth = polyring.MAX_PARSED_DEPTH
        deep = "(" * depth + "s+1" + ")" * depth
        assert parse_factored(deep) == UniPoly([1, 1])
        with pytest.raises(ParseError, match="nested deeper"):
            parse_factored("(" + deep + ")")

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_factored("(s+1")
        with pytest.raises(ParseError):
            parse_factored("s+1)")
        with pytest.raises(ParseError):
            parse_factored("x+1")
        with pytest.raises(ParseError):
            parse_factored("(s+1)^(1/2)")
        with pytest.raises(ParseError):
            parse_factored("")

    def test_degree_cap(self, monkeypatch):
        # the guard fires before any expansion: the parser expands only
        # with these two integer kernels, and an expansion past the cap
        # would fail their assertion instead of running for days
        dense_mul, binomial_row = polyring._dense_mul, polyring._binomial_row
        cap = polyring.MAX_PARSED_DEGREE
        seen = []

        def guarded_mul(a, b):
            assert len(a) + len(b) - 2 <= cap
            seen.append(len(a) + len(b) - 2)
            return dense_mul(a, b)

        def guarded_row(a, b, k):
            assert k <= cap
            seen.append(k)
            return binomial_row(a, b, k)

        monkeypatch.setattr(polyring, "_dense_mul", guarded_mul)
        monkeypatch.setattr(polyring, "_binomial_row", guarded_row)
        for text in ("(s+1/3)^1000000", "2^1000000", f"s^{cap}(s+2)",
                     f"s^{cap // 2 + 1}(s^{cap // 2 + 1})", f"(s^{cap})^2",
                     f"(s^2+1)^{cap // 2 + 1}", f"(s^3+s)^{cap // 3}(s+1)"):
            with pytest.raises(CapacityError):
                parse_factored(text)
        assert parse_factored(f"s^{cap - 1}(s+2)").degree() == cap
        assert parse_factored(f"(s^2+1)^{cap // 2}").degree() == cap
        assert parse_factored(f"(s-s)^{cap}(s+1)") == UniPoly([])
        # the legal texts reached both kernels at the cap itself
        assert seen.count(cap) >= 3


def random_factored_text(rng, depth=0):
    """A seeded sum of products in s: juxtaposed and "*"-joined factors,
    leading signs, nested parentheses, exponents from 0 up, unreduced
    fractions, zero factors and random spaces."""
    def space():
        return rng.choice(["", "", "", " ", "  ", "\t"])

    def number():
        p = rng.choice([0, 1, 1, 2, 3, 7, 12])
        if rng.random() < 0.4:
            k = rng.randint(1, 4)
            return f"{p * k}/{rng.randint(1, 9) * k}"
        return str(p)

    def atom():
        r = rng.random()
        if depth < 2 and r < 0.25:
            return "(" + space() + random_factored_text(rng, depth + 1) + space() + ")"
        if r < 0.4:
            return rng.choice(["(s-s)", "0(s+1)", "(s - s)"])
        return "s" if r < 0.75 else number()

    def factor():
        a = atom()
        if rng.random() < 0.3:
            a += space() + "^" + space() + str(rng.choice([0, 0, 1, 2, 3, 5]))
        return a

    def product():
        out = factor()
        for _ in range(rng.randint(0, 2)):
            nxt, sep = factor(), rng.choice(["", "", " ", "*", " * "])
            if not sep and out[-1].isdigit() and nxt[0].isdigit():
                sep = " "   # juxtaposed digits would read as one number
            out += sep + nxt
        return out

    text = rng.choice(["", "", "-", "+", "- "]) + product()
    for _ in range(rng.randint(0, 2)):
        text += space() + rng.choice("+-") + space() + product()
    return text


def parse_outcome(parse, text):
    """(the polynomial's (ints, scale), or the class of its error)."""
    try:
        p = parse(text)
    except (ParseError, CapacityError) as exc:
        return type(exc)
    return p.ints, p.scale


class TestParserAgainstFraction:
    """`parse_factored` on its integer forms against the Fraction descent
    it replaced: equal ints and scale on every legal text, and the same
    error class on every malformed one."""

    def test_seeded_texts(self):
        rng = random.Random(2024)
        legal = 0
        for _ in range(600):
            text = random_factored_text(rng)
            want = parse_outcome(ref_parse_factored, text)
            assert parse_outcome(parse_factored, text) == want, text
            legal += isinstance(want, tuple)
        assert legal >= 500

    def test_juxtaposed_forms(self):
        for text in ("2(s+1)", "(s+1)2", "s s", "2 3", "2s", "s2", "3s^2 s",
                     "(s+1)(s-1)", "(s+1)*(s-1)", "2/4s+6/8", "-(2s+1)(s+1/2)",
                     " ( s + 1 ) ^ 2 * 3", "(s^2+s+1)^4 - (s+1)^8", "0^0",
                     "(s-s)^0", "s^0", "7/7", "0/5", "s*0", "+s", "-s", "s-s",
                     "0(s+1)", "((((s))))^3", "(3s+2)(3s+3)(3s+4)", "s^4/2",
                     "(s+1)^6/3", "(s^2-2s+3)^3(s+1/2)", "s+1 ", "s\n", "(s+1)^2 \t\n"):
            assert parse_factored(text) == ref_parse_factored(text), text
            assert parse_factored(text).ints == ref_parse_factored(text).ints

    def test_malformed_texts(self):
        cap = polyring.MAX_PARSED_DEGREE
        deep = polyring.MAX_PARSED_DEPTH + 1
        texts = ["", " ", "(", ")", "s+", "s^", "s^s", "s^(2)", "s^1/2", "s^-1",
                 "(s+1", "s+1)", "x", "s 1.5", " s", "2/0", "s^2^3",
                 "--s", "+-s", "s**2", "(s^2^3)", "s*", "*s", "s(", "()", "s/2",
                 "1" * 5000, "1/" + "1" * 5000, "(" * deep + "s" + ")" * deep,
                 f"s^{cap + 1}", "(s+1)^1000000", "2^1000000", "s+%"]
        rng = random.Random(7)
        for _ in range(400):
            text = random_factored_text(rng)
            i = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                texts.append(text[:i] + rng.choice("s()^*+-/ 0123456789x%") + text[i:])
            else:
                texts.append(text[:i] + text[i + 1:])
        failed = 0
        for text in texts:
            want = parse_outcome(ref_parse_factored, text)
            assert parse_outcome(parse_factored, text) == want, text
            failed += not isinstance(want, tuple)
        assert failed >= 150


def factored_outcome(text):
    """(the factors of `_factored(text)` as ((ints, k), ...), p's form), or
    the class and message of its error."""
    try:
        p, factors = _factored(text)
    except (ParseError, CapacityError) as exc:
        return type(exc), str(exc)
    return tuple((b.ints, k) for b, k in factors), (p.ints, p.scale)


def power_product(factors):
    """The product of b^k over the pairs (b, k)."""
    out = UniPoly.one()
    for b, k in factors:
        for _ in range(k):
            out = out * b
    return out


class TestFactoredSpectrum:
    """`chain` reads the spectrum off each argument's top-level factors
    (`_factored`) instead of searching the expanded product."""

    def test_factors_of_seeded_texts(self):
        # p is parse_factored's polynomial, the factors multiply to it up
        # to a constant, and every error is parse_factored's, message too
        rng = random.Random(2024)
        legal = 0
        for _ in range(600):
            text = random_factored_text(rng)
            got = factored_outcome(text)
            try:
                want = parse_factored(text)
            except (ParseError, CapacityError) as exc:
                assert got == (type(exc), str(exc)), text
                continue
            p, factors = _factored(text)
            assert p == want, text
            assert all(k >= 1 for _, k in factors), text
            prod = power_product(factors)
            assert prod.is_zero if p.is_zero else prod.monic() == p.monic(), text
            legal += 1
        assert legal >= 500

    @pytest.mark.parametrize("text, factors", [
        ("s+1+2", [((3, 1), 1)]),                          # a top-level sum
        ("-(3s+2)(s+1)^2", [((2, 3), 1), ((1, 1), 2)]),    # a leading minus
        ("5(s+1)^2", [((1,), 1), ((1, 1), 2)]),            # a constant
        ("(s+1)^0(s+2)", [((2, 1), 1)]),                   # exponent 0
        ("(s+1)^0", [((1,), 1)]),
        ("s^2*((s+1)(s+2))^2", [((0, 1), 2), ((2, 3, 1), 2)]),
        ("(2-3s)", [((2, -3), 1)]),
    ])
    def test_top_level_factors(self, text, factors):
        p, got = _factored(text)
        assert [(b.ints, k) for b, k in got] == [(tuple(a), k) for a, k in factors]
        assert p == parse_factored(text)

    def test_spectrum_of_seeded_lists(self):
        # the spectrum of the factors is that of their product
        rng = random.Random(33)
        seen = dict.fromkeys(("negative_leading", "sum", "shared_root",
                              "exponent_zero", "residual"), 0)
        lists = 0
        while lists < 300:
            texts, traits = random_chain_list(rng)
            try:
                parsed = [_factored(text) for text in texts]
            except ParseError:
                continue
            factors = [f for _, fs in parsed for f in fs]
            product = UniPoly.one()
            for p, _ in parsed:
                product = product * p
            if product.is_zero:
                continue
            sp = rational_root_spectrum(*factors)
            assert sp == rational_root_spectrum(product), texts
            lists += 1
            for t in traits - {"shared_root"}:
                seen[t] += 1
            # a root of a degree-1 factor that a longer factor has too
            linear = {r for b, _ in factors if b.degree() == 1
                      for r, _ in rational_root_spectrum(b).roots}
            seen["shared_root"] += any(
                r in linear for b, _ in factors if b.degree() > 1
                for r, _ in rational_root_spectrum(b).roots)
        assert min(seen.values()) >= 30, seen

    def test_linear_factors_skip_the_search(self, monkeypatch):
        # a degree-1 factor's end terms are never factored, whatever their
        # size, bare or in a pair; a product of degree 2 is searched whole
        def no_search(n, most):
            raise AssertionError("degree-1 factor reached the search")

        big = 2**64 - 59        # prime, past the trial-division limit
        b = UniPoly([big, 1])
        monkeypatch.setattr(polyring, "_prime_powers", no_search)
        sp = rational_root_spectrum((b, 2), (UniPoly([3, 2]), 1), (UniPoly([0, 5]), 3))
        assert sp.roots == ((-big, 2), (Fraction(-3, 2), 1), (0, 3))
        assert sp.residual == UniPoly.one()
        assert rational_root_spectrum(b).roots == ((-big, 1),)
        monkeypatch.undo()
        with pytest.raises(CapacityError, match="trial-division limit"):
            rational_root_spectrum(UniPoly([1, 1]) * b)

    def test_powers_of_searched_factors(self, monkeypatch):
        # a longer factor is searched once, its roots and residual raised
        # to its exponent, and its pairs never multiply with another's
        calls = [0]
        search = polyring._integer_roots

        def counted(f, roots):
            calls[0] += 1
            return search(f, roots)

        monkeypatch.setattr(polyring, "_integer_roots", counted)
        sp = rational_root_spectrum((UniPoly([-1, 0, 1]), 3),
                                    (UniPoly([2, 0, 1]), 2), (UniPoly([1, 1]), 1))
        assert calls[0] == 2
        assert sp.roots == ((-1, 4), (1, 3))
        assert sp.residual == UniPoly([4, 0, 4, 0, 1])      # (s^2 + 2)^2
        monkeypatch.setattr(polyring, "MAX_ROOT_PAIRS", 8)
        # s^2 - 6 has 4 divisor pairs, its cube 16
        assert rational_root_spectrum((UniPoly([-6, 0, 1]), 3)).roots == ()
        with pytest.raises(CapacityError, match="more than 8 divisor pairs"):
            rational_root_spectrum(parse_factored("(s^2-6)^3"))

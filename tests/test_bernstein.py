import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from conftest import identity, mat_mul

from prehomog import bernstein, linalg, quiver
from prehomog.bernstein import (BFailure, BResult, FirstOrderOperator,
                                SPowerExpression, annihilator_identity_check,
                                apply_operator, bfunction, extract_cofactor,
                                fourier_check, fourier_transform,
                                q_dual_operator, q_operator, substitute_s,
                                symmetry_check)
from prehomog.errors import ClosureError, ContextError, DomainError
from prehomog.fixtures import fixture_names, get_fixture
from prehomog.liealg import (GeneratorSet, character, discriminant,
                             dual_generators, is_special)
from prehomog.polyring import MultiPoly, UniPoly

XY = ("x", "y")
XYZ = ("x", "y", "z")


def f_xy():
    return MultiPoly(XY, {(1, 1): 1})


# ---------------------------------------------------------------------
# the Fraction reference engine: one literal derivation at a time

def start(f):
    """f^{s+1} * 1, the state before any derivation."""
    return SPowerExpression(f.variables, 0, {(0,) * len(f.variables): (Fraction(1),)})


def add_into(out, exps, sc):
    """out[exps] += sc, on s-coefficient lists of any lengths."""
    cur = out.setdefault(exps, [])
    cur.extend([0] * (len(sc) - len(cur)))
    for i, v in enumerate(sc):
        cur[i] += v


def add(p, q):
    """p + q for two states at one offset: their term dicts summed."""
    assert (p.variables, p.k) == (q.variables, q.k)
    out = {}
    for terms in (p.terms, q.terms):
        for e, sc in terms.items():
            add_into(out, e, sc)
    return SPowerExpression(p.variables, p.k, out)


def apply_derivation(e, v, f):
    """d/dv (f^{s+1-k} P) = f^{s-k} ((s+1-k) f_v P + f dP/dv), over Fractions."""
    i = e.variables.index(v)
    out = {}
    # (s + 1 - k) * f_v * P
    fv = f.derivative(v)
    for e1, sc in e.terms.items():
        lifted = [Fraction(0)] * (len(sc) + 1)
        for idx, val in enumerate(sc):
            lifted[idx] += (1 - e.k) * val
            lifted[idx + 1] += val
        for e2, c2 in fv.terms.items():
            add_into(out, tuple(a + b for a, b in zip(e1, e2)),
                     [c2 * val for val in lifted])
    # f * dP/dv
    for e1, sc in e.terms.items():
        if e1[i]:
            de1 = e1[:i] + (e1[i] - 1,) + e1[i + 1:]
            for e2, c2 in f.terms.items():
                add_into(out, tuple(a + b for a, b in zip(de1, e2)),
                         [c2 * e1[i] * val for val in sc])
    return SPowerExpression(e.variables, e.k + 1, out)


def apply_constant_coefficient_operator(fstar, p):
    """Literal f*(d/dx) p by repeated differentiation."""
    out = MultiPoly.zero(p.variables)
    for alpha in sorted(fstar.terms):
        q = p
        for v, times in zip(p.variables, alpha):
            for _ in range(times):
                q = q.derivative(v)
        out = out + fstar.terms[alpha] * q
    return out


class TestSPowerExpression:
    def test_start(self):
        e = start(f_xy())
        assert e.k == 0
        assert e.coefficient((0, 0)) == UniPoly([1])
        assert not e.is_zero

    def test_immutable(self):
        e = start(f_xy())
        with pytest.raises(AttributeError):
            e.k = 3


class TestApplyDerivation:
    def test_first_derivative(self):
        f = f_xy()
        e = apply_derivation(start(f), "x", f)
        # d/dx f^{s+1} = (s+1) y f^s
        assert e.k == 1
        assert e.coefficient((0, 1)) == UniPoly([1, 1])

    def test_second_derivative_closes(self):
        f = f_xy()
        e = apply_derivation(start(f), "x", f)
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
        assert add(apply_operator(a, f), apply_operator(b, f)) == apply_operator(fstar, f)

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
            extract_cofactor(start(f), f)

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
        e = start(f)
        for v, times in zip(f.variables, alpha):
            for _ in range(times):
                e = apply_derivation(e, v, f)
        e = SPowerExpression(e.variables, e.k,
                             {m: [c * v for v in sc] for m, sc in e.terms.items()})
        total = e if total is None else add(total, e)
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


# ---------------------------------------------------------------------
# the certified pointwise route against the full-state route

def full_state_route(g):
    f = discriminant(g)
    fstar = discriminant(dual_generators(g)).with_variables(f.variables)
    return extract_cofactor(apply_operator(fstar, f), f)


def f_and_fstar(name):
    g = get_fixture(name).generators()
    return discriminant(g), discriminant(dual_generators(g))


def direct_sum(g1, g2):
    """Block-diagonal generators: the divisor f1(x) f2(y) on V1 + V2."""
    n1, n2 = g1.n, g2.n
    gens = [[row + [0] * n2 for row in A] + [[0] * (n1 + n2)] * n2
            for A in g1.matrices()]
    gens += [[[0] * (n1 + n2)] * n1 + [[0] * n1 + row for row in A]
             for A in g2.matrices()]
    return GeneratorSet(gens)


# every fixture but the ten-variable dtilde3-22111, whose b criterion 05
# checks against the catalogue, plus the larger family members
ROUTE_INPUTS = ([n for n in fixture_names() if n != "dtilde3-22111"]
                + [f"atilde-{k}" for k in (4, 5, 6)]
                + [f"nc-{k}" for k in (5, 6, 7, 8)])


def count_steps(monkeypatch):
    """The term counts of the states `_int_step` returns, one per call."""
    sizes = []
    step = bernstein._int_step

    def counted(*args):
        out = step(*args)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(bernstein, "_int_step", counted)
    return sizes


class TestPointwise:
    @pytest.mark.parametrize("name", ROUTE_INPUTS)
    def test_matches_full_state_route(self, name):
        g = get_fixture(name).generators()
        got, want = bfunction(g), full_state_route(g)
        assert got.functional_equation_held == want.functional_equation_held
        if want.functional_equation_held:
            assert got.b == want.b
            assert got.raw_leading == want.raw_leading
            assert got.spectrum.roots == want.spectrum.roots
            assert got.spectrum.residual == want.spectrum.residual
        else:
            assert got.reason == want.reason == "functional-equation"

    @pytest.mark.parametrize("name", fixture_names())
    def test_certificate_is_specialness(self, name):
        # chi* = -tr - tr ad and chi = tr - tr ad, so chi + chi* = 2 (chi - tr)
        g = get_fixture(name).generators()
        dual = dual_generators(g)
        chi = character(g, discriminant(g))
        chi_star = character(dual, discriminant(dual))
        sums = [a + b for a, b in zip(chi.values, chi_star.values)]
        assert sums == [2 * (a - t) for a, t in zip(chi.values, chi.trace_values)]
        assert (not any(sums)) == is_special(chi)

    @pytest.mark.parametrize("name, x0", [
        ("nc-2", (2, -1)),
        ("nc-3", (3, 3, 3)),
        ("binary-cubic", (2, -1, 3, 2)),
        ("det22-squared", (3, 2, -1, 3)),
        ("star-2111", (2, -1, 3, 2, -1, 3)),
    ])
    def test_forced_points(self, name, x0):
        # entries beyond {0, 1}: the slot width takes the powers of max |x0_v|
        f, fstar = f_and_fstar(name)
        assert f.evaluate(x0)
        want = full_state_route(get_fixture(name).generators())
        assert bernstein._pointwise_b(fstar, f, list(x0)) == want.b * want.raw_leading

    def test_zero_coordinates_first(self, monkeypatch):
        # the derivation order sets the cost, not the result: on dtilde3 the
        # natural order walks 1331 state terms and "x0_v != 0 first" 95944
        sizes = count_steps(monkeypatch)
        f, fstar = f_and_fstar("dtilde3-22111")
        assert bernstein._pointwise_b(fstar, f, bernstein._point(f)) is not None
        assert len(sizes) == 134
        assert max(sizes) <= 112 and sum(sizes) <= 644

    def test_star_31111(self, monkeypatch):
        # n = 12, 415 terms in f and f*: the prefix-shared walk takes 3044
        # steps where one walk per monomial took 4980
        sources = ["s1", "s2", "s3", "s4"]
        qv = quiver.Quiver(["c"] + sources, [(s, "c") for s in sources])
        d = quiver.DimensionVector({"c": 3, **dict.fromkeys(sources, 1)})
        sizes = count_steps(monkeypatch)
        res = bfunction(quiver.infinitesimal_generators(qv, d))
        assert len(sizes) == 3044
        roots = [Fraction(-3, 2)] + [Fraction(-5, 4)] * 2 + [-1] * 6 + \
            [Fraction(-3, 4)] * 2 + [Fraction(-1, 2)]
        assert res.b == UniPoly.from_roots(roots)
        assert res.raw_leading == -65536
        assert res.symmetric

    def test_point_off_the_zero_set(self):
        for name in fixture_names():
            f, _ = f_and_fstar(name)
            x0 = bernstein._point(f)
            assert set(x0) <= {0, 1}
            assert f.evaluate(x0)
        # x = 0 kills f = xy(x - y), and so do y = 0 and y = x = 1
        assert bernstein._point(MultiPoly(XY, {(2, 1): 1, (1, 2): -1})) == [1, 2]

    def test_vanishing_point_rejected(self):
        with pytest.raises(DomainError):
            bernstein._pointwise_b(f_xy(), f_xy(), [0, 1])

    def test_annihilated_sum(self):
        # (d_x^2 - d_y^2) (xy)^{s+1} = (s+1) s (y^2 - x^2) (xy)^{s-1}, zero at (1, 1)
        fstar = MultiPoly(XY, {(2, 0): 1, (0, 2): -1})
        assert bernstein._pointwise_b(fstar, f_xy(), [1, 1]) is None
        # elsewhere it reads Q(x0) / f(x0) = 3 (s+1) s / 2
        assert bernstein._pointwise_b(fstar, f_xy(), [1, 2]) == \
            UniPoly([0, Fraction(3, 2), Fraction(3, 2)])

    @pytest.mark.parametrize("name", ["binary-cubic", "star-2111"])
    def test_direct_sum(self, name):
        g = get_fixture(name).generators()
        one, two = bfunction(g), bfunction(direct_sum(g, g))
        assert isinstance(two, BResult)
        assert two.b == one.b * one.b
        assert two.raw_leading == one.raw_leading ** 2
        assert two.special and two.symmetric


# ---------------------------------------------------------------------
# metamorphic properties: the same divisor in other generators or coordinates

METAMORPHIC_INPUTS = ["binary-cubic", "star-2111", "atilde-3", "dtilde3-22111"]


def elementary_product(rng, n, count):
    """(P, P^-1) for P a product of `count` seeded matrices I + c e_ij,
    i != j: det P = 1, and P^-1 is the product of the I - c e_ij."""
    P, P_inv = identity(n), identity(n)
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2))
        E, E_inv = identity(n), identity(n)
        E[i][j], E_inv[i][j] = c, -c
        P, P_inv = mat_mul(P, E), mat_mul(E_inv, P_inv)
    return P, P_inv


class TestMetamorphic:
    @pytest.mark.parametrize("name", METAMORPHIC_INPUTS)
    def test_permuted_and_scaled_generators(self, name):
        # f and f* both take the sign of the permutation and the factor
        # prod c_k, so b f^s = f*(d) f^{s+1} takes (prod c_k)^2
        rng = random.Random(12)
        g = get_fixture(name).generators()
        order = rng.sample(range(g.n), g.n)
        scales = [rng.choice((2, -3, Fraction(1, 2), Fraction(-5, 4)))
                  for _ in range(g.n)]
        h = GeneratorSet([linalg.mat_scale(g.matrix(k), c)
                          for k, c in zip(order, scales)])
        one, two = bfunction(g), bfunction(h)
        assert isinstance(two, BResult)
        assert two.b == one.b
        assert two.raw_leading == one.raw_leading * prod(scales) ** 2

    @pytest.mark.parametrize("name", METAMORPHIC_INPUTS)
    def test_unimodular_conjugate(self, name):
        # f becomes det P f(P^-1 x) and f* det P^-1 f*(P^t y): b and the raw
        # leading coefficient stay, and the walk runs on a new support
        g = get_fixture(name).generators()
        P, P_inv = elementary_product(random.Random(13), g.n, 3)
        assert mat_mul(P, P_inv) == identity(g.n)
        h = GeneratorSet([mat_mul(mat_mul(P, A), P_inv)
                          for A in g.matrices()])
        assert len(discriminant(h).terms) > len(discriminant(g).terms)
        one, two = bfunction(g), bfunction(h)
        assert isinstance(two, BResult)
        assert (two.b, two.raw_leading) == (one.b, one.raw_leading)

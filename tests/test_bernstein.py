import random
from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest

from conftest import (delta_character, dual_generators, eigenvalue,
                      elementary_product, fourier_holds, fourier_transform,
                      from_roots, identity,
                      mat_mul, mat_scale, one_walk_b, q_dual_operator, q_operator,
                      ref_packed, ref_poly_add, ref_poly_derivative,
                      ref_poly_mul, ref_product, star_31111, substitute_s)

from prehomog import bernstein, linalg
from prehomog.bernstein import (BFailure, BResult, SPowerExpression,
                                apply_operator, bfunction, extract_cofactor,
                                symmetry_check)
from prehomog.errors import ClosureError, ContextError, DomainError
from prehomog.fixtures import fixture_names, get_fixture
from prehomog.liealg import GeneratorSet, character, discriminant, is_special
from prehomog.polyring import MultiPoly, UniPoly, exponent_bits, packed, primitive

XY = ("x", "y")
XYZ = ("x", "y", "z")


def f_xy():
    return MultiPoly(XY, {(1, 1): 1})


# ---------------------------------------------------------------------
# the Fraction reference engine: one literal derivation at a time

def coefficient(q, exps):
    """The s-polynomial of the state q at the monomial x^exps."""
    return UniPoly(q.terms.get(exps, ()))


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
    fv = ref_poly_derivative(f.terms, i)
    for e1, sc in e.terms.items():
        lifted = [Fraction(0)] * (len(sc) + 1)
        for idx, val in enumerate(sc):
            lifted[idx] += (1 - e.k) * val
            lifted[idx + 1] += val
        for e2, c2 in fv.items():
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
    """Literal f*(d/dx) p by repeated differentiation, as a Fraction dict."""
    out = {}
    for alpha, c in sorted(fstar.terms.items()):
        q = p.terms
        for i, times in enumerate(alpha):
            for _ in range(times):
                q = ref_poly_derivative(q, i)
        out = ref_poly_add(out, ref_poly_mul(q, c))
    return out


class TestSPowerExpression:
    def test_start(self):
        e = start(f_xy())
        assert e.k == 0
        assert coefficient(e, (0, 0)) == UniPoly([1])
        assert not e.is_zero

    def test_exponents_checked_like_multipoly(self):
        # the keys follow MultiPoly's rule, so `extract_cofactor` divides
        # exponent tuples of nonnegative ints only
        for bad in ((2.0, 1), (True, 1), "xy", (1,)):
            with pytest.raises(ContextError):
                SPowerExpression(XY, 2, {bad: [1]})
        with pytest.raises(DomainError):
            SPowerExpression(XY, 2, {(-1, 3): [1]})

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
        assert coefficient(e, (0, 1)) == UniPoly([1, 1])

    def test_second_derivative_closes(self):
        f = f_xy()
        e = apply_derivation(start(f), "x", f)
        e = apply_derivation(e, "y", f)
        # (s+1)^2 xy f^{s-1}
        assert e.k == 2
        assert coefficient(e, (1, 1)) == UniPoly([1, 2, 1])
        assert coefficient(e, (2, 0)).is_zero


class TestApplyOperator:
    def test_normal_crossings_two(self):
        f = f_xy()
        q = apply_operator(f, f)
        assert q.k == 2
        assert coefficient(q, (1, 1)) == UniPoly([1, 2, 1])

    def test_validation(self):
        f = f_xy()
        with pytest.raises(DomainError):
            apply_operator(MultiPoly(XY, {}), f)
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
            fstar = MultiPoly(f.variables, discriminant(dual_generators(g)).terms)
            q = apply_operator(fstar, f)
            n = f.degree()
            for m in (n, n + 1):
                direct = apply_constant_coefficient_operator(fstar,
                                                             ref_product(*[f] * m))
                fold = {}
                for e in sorted(q.terms):
                    c = coefficient(q, e).evaluate(m - 1)
                    if c:
                        fold = ref_poly_add(fold, {e: c})
                for _ in range(m - n):
                    fold = ref_poly_mul(fold, f.terms)
                assert direct == fold

    def test_linear_in_operator(self):
        g = get_fixture("binary-cubic").generators()
        f = discriminant(g)
        fstar = MultiPoly(f.variables, discriminant(dual_generators(g)).terms)
        items = sorted(fstar.terms.items())
        half = len(items) // 2
        a = MultiPoly(f.variables, dict(items[:half]))
        b = MultiPoly(f.variables, dict(items[half:]))
        assert add(apply_operator(a, f), apply_operator(b, f)) == apply_operator(fstar, f)

    def test_scaling_operator_scales_cofactor(self):
        f = f_xy()
        r1 = extract_cofactor(apply_operator(f, f), f)
        r3 = extract_cofactor(apply_operator(ref_product(f, 3), f), f)
        assert isinstance(r1, BResult) and isinstance(r3, BResult)
        assert r1.b == r3.b
        assert r3.raw_leading == 3 * r1.raw_leading

    def test_scaling_f_scales_cofactor(self):
        f = f_xy()
        g = ref_product(f, 2)
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
        assert r.b.degree() == 2

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
        assert r.detail == "top s-slice is not a multiple of f^(n-1)"

    def test_support_mismatch(self):
        f = f_xy()
        q = SPowerExpression(XY, 2, {(1, 1): [Fraction(1)], (2, 0): [Fraction(1)]})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure)
        assert r.detail == "top s-slice is not a multiple of f^(n-1)"

    def test_residual_nonzero(self):
        f = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
        q = SPowerExpression(XY, 2, {(0, 2): [Fraction(1)], (2, 0): [Fraction(2)]})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure)
        assert r.detail == "top s-slice is not a multiple of f^(n-1)"

    def test_slices_not_proportional(self):
        # the top s-slice x^2 + y^2 is f itself, but Q_e(s) is not one
        # s-polynomial times T_e: s + 1 at x^2, s + 2 at y^2
        f = MultiPoly(XY, {(2, 0): 1, (0, 2): 1})
        q = SPowerExpression(XY, 2, {(2, 0): [1, 1], (0, 2): [2, 1]})
        r = extract_cofactor(q, f)
        assert isinstance(r, BFailure) and r.reason == "functional-equation"
        assert r.detail.startswith("not a multiple of the top s-slice at monomial")


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


def annihilates(A, g):
    """Does Q_A = delta_A - s tr(A) annihilate f^s?  Equivalent to
    delta_A(f) = tr(A) f, i.e. dchi(A) = tr(A)."""
    return eigenvalue(A, discriminant(g)) == linalg.trace(linalg.frac_matrix(A))


class TestAnnihilatorIdentity:
    def test_trace_matches(self):
        g = get_fixture("nc-3").generators()
        assert annihilates([[1, 0, 0], [0, 1, 0], [0, 0, 1]], g)
        assert annihilates([[2, 0, 0], [0, 0, 0], [0, 0, 0]], g)
        assert annihilates([[1, 0, 0], [0, -1, 0], [0, 0, 0]], g)

    def test_not_semiinvariant(self):
        g = get_fixture("nc-2").generators()
        assert not annihilates([[0, 1], [0, 0]], g)

    def test_character_trace_gap(self):
        # second generator has dchi = 2 but trace 3
        g = get_fixture("quadric-cone-3").generators()
        assert not annihilates(g.matrix(1), g)


class TestFourier:
    A = [[1, 2], [3, 4]]

    def test_q_operators(self):
        assert q_operator(self.A, 5) == ([[1, 3], [2, 4]], 0, -5)
        assert q_dual_operator(self.A, 5) == ([[-1, -2], [-3, -4]], 0, 5)

    def test_transform_is_involutive(self):
        op = (linalg.frac_matrix(self.A), 7, -2)
        assert fourier_transform(fourier_transform(op)) == op

    def test_identity_at_trace(self):
        t = 1 + 4
        lhs = fourier_transform(q_operator(self.A, t))
        rhs = substitute_s(q_dual_operator(self.A, t), -1, -1)
        assert lhs == rhs
        assert fourier_holds(self.A)
        assert fourier_holds(self.A, t)
        assert not fourier_holds(self.A, t + 1)

    def test_substitute(self):
        op = (self.A, 2, 3)
        assert substitute_s(op, -1, -1) == (self.A, 2 - 3, -3)


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
        assert coefficient(q, (272,)) == expect


# ---------------------------------------------------------------------
# the certified pointwise route against the full-state route

def full_state(g):
    """f and the k = n state f*(d) f^{s+1} = Q f^{s+1-n} of the generator
    set g."""
    f = discriminant(g)
    fstar = MultiPoly(f.variables, discriminant(dual_generators(g)).terms)
    return f, apply_operator(fstar, f)


def full_state_route(g):
    f, q = full_state(g)
    return extract_cofactor(q, f)


def power_terms(f, m):
    """The terms of f^m, multiplied out by `ref_poly_mul`."""
    terms = {(0,) * len(f.variables): Fraction(1)}
    for _ in range(m):
        terms = ref_poly_mul(terms, f.terms)
    return terms


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
NON_SPECIAL = {"quadric-cone-3", "quadric-cone-4", "bilinear-cone-4",
               "cubic-chain-4"}
SPECIAL_INPUTS = ([n for n in fixture_names() if n not in NON_SPECIAL]
                  + ["atilde-8", "nc-8"])


class TestCofactorVerdict:
    """`extract_cofactor`'s exact division against b(s) f^{n-1} multiplied
    out by `ref_poly_mul`, and on states that are no such product."""

    @pytest.mark.parametrize("name", [n for n in ROUTE_INPUTS if n not in NON_SPECIAL])
    def test_state_is_b_times_a_power_of_f(self, name):
        # b_raw = Q_beta / c_beta at the least monomial beta of f^{n-1},
        # then every s-slice of Q is b_raw's coefficient times f^{n-1}
        f, q = full_state(get_fixture(name).generators())
        fpow = power_terms(f, f.degree() - 1)
        beta = min(fpow)
        b_raw = [v / fpow[beta] for v in q.terms[beta]]
        assert max(map(len, q.terms.values())) == len(b_raw)
        for j, c in enumerate(b_raw):
            assert {e: sc[j] for e, sc in q.terms.items() if len(sc) > j and sc[j]} \
                == ref_poly_mul(fpow, c)
        r = extract_cofactor(q, f)
        assert (r.b, r.raw_leading) == (UniPoly(b_raw).monic(), b_raw[-1])

    # special inputs where f^{n-1} has two or more monomials: on nc-N it
    # is one, and any one s-polynomial is some b(s) times it
    CORRUPTED_INPUTS = [n for n in ROUTE_INPUTS
                        if n not in NON_SPECIAL and not n.startswith("nc-")]

    @pytest.mark.parametrize("name", CORRUPTED_INPUTS)
    def test_corrupted_states_fail(self, name):
        rng = random.Random(38)
        f, q = full_state(get_fixture(name).generators())
        n = f.degree()
        r = extract_cofactor(q, f)
        b_raw = [v * r.raw_leading for v in r.b.coeffs]
        terms = {e: list(sc) for e, sc in q.terms.items()}
        e = rng.choice(sorted(terms))
        j = rng.randrange(len(terms[e]))
        c = rng.choice([-1, 2, Fraction(1, 3), Fraction(-5, 7)])
        states = {
            "coefficient changed": {**terms, e: terms[e][:j] + [terms[e][j] + c]
                                    + terms[e][j + 1:]},
            "monomial dropped": {k: v for k, v in terms.items() if k != e},
            "s-polynomial rescaled": {**terms, e: [c * v for v in terms[e]]},
            "b f^(n-2)": {k: [v * w for v in b_raw]
                          for k, w in power_terms(f, n - 2).items()},
            # divides by f n-1 times, but leaves x_1, not a constant
            "b x_1 f^(n-1)": {(k[0] + 1,) + k[1:]: sc for k, sc in terms.items()},
        }
        for kind, bad in states.items():
            r = extract_cofactor(SPowerExpression(f.variables, n, bad), f)
            assert isinstance(r, BFailure) and r.reason == "functional-equation", kind
        # a whole s-slice times c is still b'(s) f^{n-1}, with the
        # coefficient of s^j of b' times c: b is read off the slices' ratios
        j = rng.randrange(len(b_raw))
        scaled = {k: [v * c if i == j else v for i, v in enumerate(sc)]
                  for k, sc in terms.items()}
        r = extract_cofactor(SPowerExpression(f.variables, n, scaled), f)
        want = UniPoly([v * c if i == j else v for i, v in enumerate(b_raw)])
        assert (r.b, r.raw_leading) == (want.monic(), want.leading())


def widen_slots(monkeypatch):
    """Make `_walk` take 64 bits per s-slot more than `_slot_width` proves."""
    width = bernstein._slot_width
    monkeypatch.setattr(bernstein, "_slot_width", lambda *args: width(*args) + 64)


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
        # chi* = -tr - tr ad and chi = tr - tr ad, so chi + chi* = 2 (chi - tr);
        # both characters come from the delta_A oracle on f and f*, and the
        # traces from the dense matrices
        g = get_fixture(name).generators()
        dual = dual_generators(g)
        chi = delta_character(g, discriminant(g))
        chi_star = delta_character(dual, discriminant(dual))
        assert (chi, chi_star) == (character(g), character(dual))
        sums = [a + b for a, b in zip(chi, chi_star)]
        traces = map(linalg.trace, g.matrices())
        assert sums == [2 * (a - t) for a, t in zip(chi, traces)]
        assert (not any(sums)) == is_special(g, chi)

    @pytest.mark.parametrize("name, x0", [
        ("nc-2", (2, -1)),
        ("nc-3", (3, 3, 3)),
        ("binary-cubic", (2, -1, 3, 2)),
        ("det22-squared", (3, 2, -1, 3)),
        ("star-2111", (2, -1, 3, 2, -1, 3)),
    ])
    def test_forced_points(self, name, x0, monkeypatch):
        # entries beyond {0, 1}: the slot width takes the powers of max |x0_v|
        f, fstar = f_and_fstar(name)
        assert f.evaluate(x0)
        want = full_state_route(get_fixture(name).generators())
        assert bernstein._pointwise_b(fstar, f, list(x0)) == want.b * want.raw_leading
        widen_slots(monkeypatch)
        assert bernstein._pointwise_b(fstar, f, list(x0)) == want.b * want.raw_leading

    @pytest.mark.parametrize("name", SPECIAL_INPUTS)
    def test_wider_slots(self, name, monkeypatch):
        # a proved slot width holds every digit: 64 more bits decode the same b
        f, fstar = f_and_fstar(name)
        x0 = bernstein._point(f)
        want = bernstein._pointwise_b(fstar, f, x0)
        widen_slots(monkeypatch)
        assert bernstein._pointwise_b(fstar, f, x0) == want

    @pytest.mark.parametrize("g, width", [
        pytest.param(get_fixture("dtilde3-22111").generators(), 87, id="dtilde3-22111"),
        pytest.param(star_31111(), 175, id="star-31111")])
    def test_slot_width(self, g, width, monkeypatch):
        # from the two discriminants alone: ||f*||_1 times one product over k
        monkeypatch.setattr(bernstein, "_walk", None)
        f, fstar = discriminant(g), discriminant(dual_generators(g))
        monomials = list(zip(fstar.terms, primitive(fstar.terms.values())[0]))
        assert bernstein._slot_width(monomials, f) == width

    def test_zero_coordinates_first(self, monkeypatch):
        # the derivation order sets the cost, not the result: on dtilde3 the
        # natural order walks 1331 state terms and "x0_v != 0 first" 95944;
        # this is the one-walk pin, as it calls `_pointwise_b` on all of f*
        # (`bfunction` splits dtilde3 first, see TestFactors)
        sizes = count_steps(monkeypatch)
        f, fstar = f_and_fstar("dtilde3-22111")
        assert bernstein._pointwise_b(fstar, f, bernstein._point(f)) is not None
        assert len(sizes) == 134
        assert max(sizes) <= 112 and sum(sizes) <= 644

    def test_star_31111(self, monkeypatch):
        # n = 12, 415 terms in f and f*: the prefix-shared walk takes 3044
        # steps where one walk per monomial took 4980
        sizes = count_steps(monkeypatch)
        res = bfunction(star_31111())
        assert len(sizes) == 3044
        roots = [Fraction(-3, 2)] + [Fraction(-5, 4)] * 2 + [-1] * 6 + \
            [Fraction(-3, 4)] * 2 + [Fraction(-1, 2)]
        assert res.b == from_roots(roots)
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
# the split of f and f* into variable-disjoint factors, one walk per factor

X2Y2 = ("x1", "x2", "y1", "y2")


def dtilde3_variants():
    g = get_fixture("dtilde3-22111").generators()
    scaled = [mat_scale(g.matrix(0), Fraction(-3, 2))] + \
        [g.matrix(k) for k in range(1, g.n)]
    return [pytest.param(GeneratorSet(scaled), id="rescaled"),
            pytest.param(GeneratorSet(g.matrices()[::-1]), id="permuted")]


class TestFactors:
    @pytest.mark.parametrize("name", SPECIAL_INPUTS)
    def test_one_walk(self, name):
        g = get_fixture(name).generators()
        res = bfunction(g)
        assert (res.b, res.raw_leading) == one_walk_b(g)

    @pytest.mark.parametrize("one, two", [("star-2111", "binary-cubic"),
                                          ("det22-squared", "star-2111")])
    def test_direct_sum(self, one, two):
        g = direct_sum(get_fixture(one).generators(), get_fixture(two).generators())
        f, fstar = discriminant(g), discriminant(dual_generators(g))
        n1 = get_fixture(one).generators().n
        _, factors = bernstein._factors(f, fstar)
        assert [list(idx) for idx, _, _ in factors] == \
            [list(range(n1)), list(range(n1, g.n))]
        res = bfunction(g)
        assert (res.b, res.raw_leading) == one_walk_b(g)

    @pytest.mark.parametrize("g", dtilde3_variants())
    def test_dtilde3_generators(self, g):
        # a generator rescaled by -3/2 scales f, f* and the raw leading
        res = bfunction(g)
        assert len(bernstein._factors(discriminant(g),
                                      discriminant(dual_generators(g)))[1]) == 2
        assert (res.b, res.raw_leading) == one_walk_b(g)

    def test_dtilde3_steps(self, monkeypatch):
        # (x1x4 - x2x3)^2 and a 6-term form in x5..x10, with f* the same
        # shape: 42 steps where the one walk takes 134 (test_zero_coordinates_first)
        sizes = count_steps(monkeypatch)
        f, fstar = f_and_fstar("dtilde3-22111")
        _, factors = bernstein._factors(f, fstar)
        assert [list(idx) for idx, _, _ in factors] == [[0, 1, 2, 3], list(range(4, 10))]
        assert f.ints[min(f.ints)] == -1    # so lam = -f.scale
        res = bfunction(get_fixture("dtilde3-22111").generators())
        assert res.raw_leading == 432
        assert len(sizes) == 42
        assert max(sizes) <= 12 and sum(sizes) <= 71

    @pytest.mark.parametrize("f, fstar", [
        # a product support whose coefficient matrix [[1, 1], [1, -1]] has rank 2
        pytest.param(MultiPoly(X2Y2, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
                                      (0, 1, 1, 0): 1, (0, 1, 0, 1): -1}),
                     MultiPoly(X2Y2, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}),
                     id="rank-2"),
        # f = (x1 + x2)(y1 + y2) splits, f* = x1 y1 + x2 y2 does not
        pytest.param(MultiPoly(X2Y2, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
                                      (0, 1, 1, 0): 1, (0, 1, 0, 1): 1}),
                     MultiPoly(X2Y2, {(1, 0, 1, 0): 1, (0, 1, 0, 1): 1}),
                     id="fstar-not-a-product"),
        # (x1 + x2)(y1^2 + y2^2) against (x1^2 + x2^2)(y1 + y2)
        pytest.param(MultiPoly(X2Y2, {(1, 0, 2, 0): 1, (1, 0, 0, 2): 1,
                                      (0, 1, 2, 0): 1, (0, 1, 0, 2): 1}),
                     MultiPoly(X2Y2, {(2, 0, 1, 0): 1, (2, 0, 0, 1): 1,
                                      (0, 2, 1, 0): 1, (0, 2, 0, 1): 1}),
                     id="block-degrees"),
    ])
    def test_refused(self, f, fstar):
        # the proposal splits each f; the exact checks refuse the split
        assert bernstein._blocks(f.ints) == [[0, 1], [2, 3]]
        lam, ((idx, f_b, fstar_b),) = bernstein._factors(f, fstar)
        assert (lam, list(idx), f_b, fstar_b) == (1, [0, 1, 2, 3], f, fstar)

    def test_accepted(self):
        # f = 3 (x1 + x2)(y1 - 2 y2) has c_m0 = -2 at m0 = x2 y2, so lam < 0
        f = MultiPoly(X2Y2, {(1, 0, 1, 0): 3, (1, 0, 0, 1): -6,
                             (0, 1, 1, 0): 3, (0, 1, 0, 1): -6})
        fstar = MultiPoly(X2Y2, {(1, 0, 1, 0): 1, (1, 0, 0, 1): 1,
                                 (0, 1, 1, 0): 1, (0, 1, 0, 1): 1})
        lam, factors = bernstein._factors(f, fstar)
        assert [list(idx) for idx, _, _ in factors] == [[0, 1], [2, 3]]
        assert lam == Fraction(-3, 2)
        for x in ((1, 2, 3, 5), (-2, 7, 1, -4)):
            parts = [p.evaluate([x[i] for i in idx])
                     for idx, f_b, fstar_b in factors for p in (f_b, fstar_b)]
            assert f.evaluate(x) * fstar.evaluate(x) == lam * prod(parts)


# ---------------------------------------------------------------------
# metamorphic properties: the same divisor in other generators or coordinates

METAMORPHIC_INPUTS = ["binary-cubic", "star-2111", "atilde-3", "dtilde3-22111"]


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
        h = GeneratorSet([mat_scale(g.matrix(k), c)
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

    @pytest.mark.parametrize("name", fixture_names() + ["atilde-6", "nc-6"])
    def test_dual_action(self, name):
        # the dual action {-A^t} swaps f and f*: b of f and of f* agree on
        # reductive spaces (Kimura), and are observed to agree on dtilde3
        # and atilde-N; a non-special input fails on both sides
        g = get_fixture(name).generators()
        one, two = bfunction(g), bfunction(dual_generators(g))
        if name in NON_SPECIAL:
            assert isinstance(one, BFailure) and isinstance(two, BFailure)
            assert one.reason == two.reason == "functional-equation"
        else:
            assert isinstance(one, BResult) and isinstance(two, BResult)
            assert (two.b, two.raw_leading) == (one.b, one.raw_leading)


class TestIntegerForm:
    """The integer engines read the stored form of f and f*: it is what
    `primitive` makes of their Fraction terms."""

    @pytest.mark.parametrize("name", fixture_names() + ["atilde-6", "nc-6",
                                                        "star-31111"])
    def test_engines_see_the_same_integers(self, name):
        g = star_31111() if name == "star-31111" else get_fixture(name).generators()
        for p in (discriminant(g), discriminant(dual_generators(g))):
            assert not p.is_zero
            n = p.degree()
            # the walk's B and the character's B
            for B in (exponent_bits(n * (n - 1)), exponent_bits(n)):
                assert packed(p, B) == ref_packed(p, B)
            same = MultiPoly(p.variables, p.terms)
            assert same == p and hash(same) == hash(p)
            assert type(p.scale) is Fraction and p.scale > 0
            assert gcd(*p.ints.values()) == 1

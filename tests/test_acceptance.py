"""The ten headline checks, run at tolerance zero.

Every test records one PASS/FAIL line for the terminal summary (see
conftest) and then asserts the verdict, so a red run still reports the
full scoreboard.  Expensive b-functions are computed once and shared.
"""

import random
import time
from fractions import Fraction

from conftest import record_criterion, ref_in_span

from prehomog.bernstein import (BFailure, BResult, apply_operator, bfunction,
                                extract_cofactor, fourier_check,
                                symmetry_check)
from prehomog.cli import JobSpec, run
from prehomog.fixtures import (fixture_names, get_fixture,
                               reduced_discriminant_bfunctions, star_chain,
                               star_edge_factors, table_spectra)
from prehomog.geometry import OrderForm, chain_assemble, conormal_order, \
    point_context
from prehomog.liealg import (character, character_of_combination, classify,
                             discriminant, dual_character_check,
                             dual_generators)
from prehomog.polyring import (MultiPoly, UniPoly, is_squarefree,
                               parse_factored)
from prehomog.quiver import (infinitesimal_generators, quiver_discriminant,
                             star_quiver)

F = Fraction
_bf_cache = {}


def bf(name):
    if name not in _bf_cache:
        _bf_cache[name] = bfunction(get_fixture(name).generators())
    return _bf_cache[name]


def run_criterion(number, description, check):
    try:
        ok = bool(check())
    except BaseException:
        record_criterion(number, description, False)
        raise
    assert record_criterion(number, description, ok)


def rand_poly(rng, variables=("x", "y", "z"), max_terms=6, max_exp=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in variables)
        terms[e] = F(rng.randrange(-9, 10), rng.randrange(1, 5))
    return MultiPoly(variables, {e: c for e, c in terms.items() if c})


def test_criterion_01():
    def check():
        t0 = time.monotonic()
        for n in (1, 2, 3, 4):
            r = bf(f"nc-{n}")
            expect = UniPoly.one()
            for _ in range(n):
                expect = expect * UniPoly([1, 1])
            assert isinstance(r, BResult) and r.b == expect, n
        return time.monotonic() - t0 < 1.0

    run_criterion(1, "normal crossings: b = (s+1)^n for n = 1..4, under 1 s",
                  check)


def test_criterion_02():
    def check():
        t0 = time.monotonic()
        r = bf("binary-cubic")
        assert isinstance(r, BResult)
        assert r.spectrum.roots == ((F(-7, 6), 1), (F(-1), 2), (F(-5, 6), 1))
        assert r.spectrum.residual == UniPoly([1])
        return time.monotonic() - t0 < 10.0

    run_criterion(2, "binary cubic discriminant: spectrum "
                     "{-7/6, -1, -1, -5/6}, under 10 s", check)


def test_criterion_03():
    def check():
        t0 = time.monotonic()
        qv, d = star_quiver()
        f, cls = quiver_discriminant(qv, d)
        assert cls.kind == "linear-free-divisor" and cls.special
        r = bfunction(infinitesimal_generators(qv, d))
        assert isinstance(r, BResult)
        assert r.b == parse_factored("(s+2/3)(s+1)^4(s+4/3)")
        assert r.spectrum.roots == ((F(-4, 3), 1), (F(-1), 4), (F(-2, 3), 1))
        assert r.b == bf("star-2111").b
        return time.monotonic() - t0 < 60.0

    run_criterion(3, "star quiver: spectrum {-2/3, -1 x4, -4/3}, under 60 s",
                  check)


def test_criterion_04():
    def check():
        t0 = time.monotonic()
        r = bf("atilde-2")
        assert isinstance(r, BResult)
        assert r.spectrum.roots == ((F(-3, 2), 1), (F(-1), 3), (F(-1, 2), 1))
        return time.monotonic() - t0 < 60.0

    run_criterion(4, "two-cycle quiver at n = 2: spectrum "
                     "{-1/2, -1 x3, -3/2}, under 60 s", check)


def test_criterion_05():
    def check():
        det_part = bf("det22-squared")
        assert isinstance(det_part, BResult)
        assert det_part.spectrum.roots == \
            ((F(-3, 2), 1), (F(-1), 2), (F(-1, 2), 1))
        product = (det_part.b * bf("star-2111").b).monic()
        expect = parse_factored("(s+1/2)(s+2/3)(s+1)^6(s+4/3)(s+3/2)")
        assert product == expect
        # stretch: the direct ten-variable computation agrees
        direct = bf("dtilde3-22111")
        assert isinstance(direct, BResult)
        assert direct.b == product
        return True

    run_criterion(5, "product splitting: det^2 times the star factor matches "
                     "the ten-variable computation", check)


def test_criterion_06():
    def check():
        for label, b in table_spectra():
            assert symmetry_check(b), label
        for label, b in reduced_discriminant_bfunctions():
            assert not symmetry_check(b), label
        return True

    run_criterion(6, "symmetry about -1 holds on the catalogue and fails on "
                     "the reduced-discriminant families", check)


def test_criterion_07():
    def check():
        g = get_fixture("star-2111").generators()
        c = character(g, discriminant(g))
        expect = [OrderForm(0, 0), OrderForm(1, F(1, 2)), OrderForm(2, 1),
                  OrderForm(5, F(5, 2)), OrderForm(6, 3)]
        for pt, want in zip(star_chain(), expect):
            ctx = point_context(g, pt.x0)
            got = conormal_order(g, c, ctx, pt.y0)
            assert got == want, pt.label
        return True

    run_criterion(7, "conormal orders along the star chain are 0, -s-1/2, "
                     "-2s-1, -5s-5/2, -6s-3", check)


def test_criterion_08():
    def check():
        assembled = chain_assemble(star_edge_factors())
        return assembled == bf("star-2111").b

    run_criterion(8, "chain assembly reproduces the star b-function", check)


def test_criterion_09():
    def check():
        # product rule on random sparse polynomials
        rng = random.Random(20260823)
        for _ in range(200):
            p, q = rand_poly(rng), rand_poly(rng)
            v = rng.choice(p.variables)
            assert (p * q).derivative(v) == \
                p.derivative(v) * q + p * q.derivative(v)

        # root symmetry for every computed reductive fixture
        computed = 0
        for name in fixture_names():
            if not get_fixture(name).reductive:
                continue
            r = bf(name)
            if isinstance(r, BResult):
                computed += 1
                assert r.symmetric and symmetry_check(r.b), name
        assert computed >= 8

        # monic b is stable under rescaling of the operator
        g = get_fixture("star-2111").generators()
        f = discriminant(g)
        fstar = discriminant(dual_generators(g)).with_variables(f.variables)
        base = extract_cofactor(apply_operator(fstar, f), f)
        for cc in (F(5), F(-3), F(2, 7)):
            r = extract_cofactor(apply_operator(fstar * cc, f), f)
            assert r.b == base.b
            assert r.raw_leading == cc * base.raw_leading

        # normal-ordered Fourier identity on random rational matrices
        rng = random.Random(72)
        for _ in range(100):
            k = rng.randrange(1, 6)
            A = [[F(rng.randrange(-9, 10), rng.randrange(1, 4))
                  for _ in range(k)] for _ in range(k)]
            tr = sum(A[i][i] for i in range(k))
            assert fourier_check(A)
            assert fourier_check(A, tr)
            assert not fourier_check(A, tr + 1)

        # character difference formula wherever the dual determinant lives
        checked = 0
        for name in fixture_names():
            g = get_fixture(name).generators()
            if classify(g).kind != "linear-free-divisor":
                continue
            if discriminant(dual_generators(g)).is_zero:
                continue
            assert dual_character_check(g), name
            checked += 1
        assert checked >= 5

        # squarefree oracle on h^2 k products
        rng = random.Random(11)
        made = 0
        while made < 100:
            h = rand_poly(rng, max_terms=3, max_exp=2)
            k = rand_poly(rng, max_terms=3, max_exp=2)
            if h.degree() < 1 or k.is_zero:
                continue
            assert not is_squarefree(h * h * k, trials=8, seed=made)
            made += 1

        # the Euler field has character value n whenever it is present
        missing = set()
        for name in fixture_names():
            g = get_fixture(name).generators()
            flat = [[m[i][j] for i in range(g.n) for j in range(g.n)]
                    for m in g.matrices()]
            ident = [F(1) if i % (g.n + 1) == 0 else F(0)
                     for i in range(g.n * g.n)]
            coeffs = ref_in_span(flat, ident)
            if coeffs is None:
                missing.add(name)
                continue
            c = character(g, discriminant(g))
            assert character_of_combination(c, coeffs) == g.n, name
        # the two-cycle fixtures genuinely lack the Euler field in the span
        assert missing == {"atilde-2", "atilde-3"}

        # isotropy dimension matches normal-space dimension everywhere
        rng = random.Random(5)
        for name in fixture_names():
            g = get_fixture(name).generators()
            for _ in range(50):
                x0 = [F(rng.randrange(-4, 5), rng.randrange(1, 3))
                      for _ in range(g.n)]
                ctx = point_context(g, x0)
                assert len(ctx.isotropy_coeffs) == len(ctx.normal_coords), name
        return True

    run_criterion(9, "property suites: product rule, symmetry, scaling, "
                     "Fourier, character difference, squarefree, Euler, "
                     "rank-nullity", check)


def test_criterion_10():
    def check():
        r = bf("bilinear-cone-4")
        assert isinstance(r, BFailure)
        assert r.message() == "functional equation does not hold"
        assert r.special is False
        code, text = run(JobSpec("bfunction", fixture="bilinear-cone-4"))
        assert code == 2
        assert "functional equation does not hold" in text
        return True

    run_criterion(10, "non-special input reports the failed functional "
                      "equation with exit code 2", check)

import functools
import json
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import (blocks_agree, bracket, columns_determinant, combination,
                      delta_character, delta_packed, dual_characters_agree,
                      dual_generators, dual_matrices, dual_verdicts_agree,
                      eigenvalue, elementary_product,
                      identity, mat_add, mat_mul, mat_scale, mat_vec,
                      ref_annihilator_basis, ref_in_span,
                      ref_poly_add, ref_poly_derivative, ref_poly_linear,
                      ref_poly_mul, ref_product, ref_structure_constants,
                      saito_oracle,
                      star_31111)
from test_quiver import GENERATED

from prehomog import liealg, linalg, polyring
from prehomog.errors import ClosureError, ContextError, DomainError
from prehomog.fixtures import fixture_names, get_fixture
from prehomog.liealg import (GeneratorSet, character,
                             character_of_combination, classify,
                             discriminant, dual_discriminant, is_special,
                             validate_algebra)
from prehomog.polyring import MultiPoly
from prehomog.quiver import infinitesimal_generators
from prehomog.serialize import generatorset_from_json

XY = ("x", "y")


def unit(i, j, n=3):
    return [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]


def delta(A, p):
    """delta_A(p) = sum_i (Ax)_i dp/dx_i by the oracle's kernel
    `delta_packed` on the integer form of A and the packed terms of p."""
    n = len(p.variables)
    B = polyring.exponent_bits(max(map(sum, p.terms), default=0))
    terms, p_scale = polyring.packed(p, B)
    d, a_scale = delta_packed(liealg._integer_form(A, n), terms, B)
    return MultiPoly(p.variables, {polyring.unpack(e, B, n): a_scale * p_scale * v
                                   for e, v in d.items()})


def diag_gens(n):
    return GeneratorSet(
        [[[1 if (i == k and j == k) else 0 for j in range(n)] for i in range(n)]
         for k in range(n)])


class TestGeneratorSet:
    def test_count_must_match_dimension(self):
        with pytest.raises(ContextError):
            GeneratorSet([[[1, 0], [0, 1]]])  # one 2x2 generator

    def test_shape_validated(self):
        with pytest.raises(ContextError):
            GeneratorSet([[[1, 0]], [[0, 1]]])

    def test_independence_required(self):
        with pytest.raises(DomainError):
            GeneratorSet([[[1, 0], [0, 1]], [[2, 0], [0, 2]]])

    def test_rational_dependence_and_zero_generator(self):
        A = [[Fraction(1, 2), 0, Fraction(-3, 4)], [0, 1, 0], [Fraction(5, 3), 0, 0]]
        B = [[0, Fraction(2, 7), 0], [0, 0, 0], [0, 0, 1]]
        C = mat_add(A, mat_scale(B, Fraction(-4, 5)))
        for mats in ([A, mat_scale(A, Fraction(2, 3)), B],
                     [A, B, C],
                     [A, [[0] * 3 for _ in range(3)], B],
                     [[[0]]]):
            with pytest.raises(DomainError):
                GeneratorSet(mats)
        assert GeneratorSet([A, B, mat_add(C, unit(1, 0))]).n == 3

    def test_variable_count(self):
        with pytest.raises(ContextError):
            GeneratorSet([[[1]]], variables=("x", "y"))

    @pytest.mark.parametrize("variables", [("x", "x"), ("", "y")])
    def test_variable_names_distinct_and_nonempty(self, variables):
        mats = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
        with pytest.raises(ContextError, match="distinct and nonempty"):
            GeneratorSet(mats, variables)
        forms = [liealg._integer_form(A, 2) for A in mats]
        with pytest.raises(ContextError, match="distinct and nonempty"):
            GeneratorSet._from_forms(forms, variables)

    def test_default_variables(self):
        g = diag_gens(3)
        assert g.variables == ("x1", "x2", "x3")

    def test_matrix_returns_copy(self):
        g = diag_gens(2)
        m = g.matrix(0)
        m[0][0] = 99
        assert g.matrix(0)[0][0] == 1

    def test_immutable(self):
        g = diag_gens(2)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_entries_coerced_like_coefficients(self):
        """Matrix entries follow the coefficient rule of MultiPoly: ints,
        Fractions and "p/q" strings, nothing else (a bool is no number)."""
        for bad in (0.1, 1.0, None, [1], 1j, True, False):
            with pytest.raises(ContextError, match="cannot use"):
                GeneratorSet([[[bad]]])
        assert GeneratorSet([[[1]]]) == GeneratorSet([[["2/2"]]])

    def test_matrices_give_back_fractions(self):
        g = GeneratorSet([[[1, "-2/6"], [0, Fraction(3, 4)]],
                          [["5", 0], [Fraction(0), -7]]])
        got = g.matrices()
        assert got == [[[1, Fraction(-1, 3)], [0, Fraction(3, 4)]], [[5, 0], [0, -7]]]
        assert all(type(row) is list and all(type(v) is Fraction for v in row)
                   for A in got for row in A)
        assert got == [g.matrix(0), g.matrix(1)]

    def test_equality_follows_matrices(self):
        """Equal matrices give equal stored forms, and unequal ones do not,
        even when their integer rows agree."""
        for name in fixture_names():
            g = get_fixture(name).generators()
            mats = g.matrices()
            assert GeneratorSet([mat_scale(A, 1) for A in mats], g.variables) == g
            for k in (0, g.n - 1):
                other = [mat_scale(A, Fraction(2, 3)) if i == k else A
                         for i, A in enumerate(mats)]
                h = GeneratorSet(other, g.variables)
                assert h != g and h.matrices() != mats
                assert [rows for rows, _ in h.forms] == [rows for rows, _ in g.forms]
            assert GeneratorSet(mats, liealg.dual_variables(g.variables)) != g


def random_rational_set(rng, n):
    """(g, mats): independent generators with fractional and negative
    entries, about one row in three zero, and the set built from them."""
    while True:
        mats = [[[0] * n if rng.random() < 0.3 else
                 [Fraction(rng.choice((0, 0, rng.randint(-12, 12))), rng.randint(1, 6))
                  for _ in range(n)] for _ in range(n)] for _ in range(n)]
        try:
            return GeneratorSet(mats), mats
        except DomainError:
            continue


def expand_form(form, n):
    """The integer matrix M of a stored form (rows, scale)."""
    rows, _ = form
    M = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, a in row:
            M[i][j] = a
    return M


class TestImagesAndCombinations:
    """GeneratorSet.images and .combination against dense Fraction products."""

    def test_seeded_rational_sets(self):
        rng = random.Random(3141)
        for _ in range(80):
            g, mats = random_rational_set(rng, rng.randint(1, 5))
            x = [rng.choice((0, 1, -3, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
                 for _ in range(g.n)]
            cs = [rng.choice((0, 0, 1, -2, Fraction(3, 5))) for _ in range(g.n)]
            images, comb = g.images(x), g.combination(cs)
            assert images == [mat_vec(A, x) for A in mats]
            assert comb == combination(cs, mats)
            assert all(type(v) is Fraction for v in sum(images + comb, []))
            assert g.combination([0] * g.n) == [[0] * g.n] * g.n

    def test_images_wrong_length(self):
        g = get_fixture("nc-3").generators()
        for x in ((1, 0), (1, 0, 0, 1)):
            with pytest.raises(ContextError,
                               match=f"point has {len(x)} coordinates, expected 3"):
                g.images(x)

    def test_combination_wrong_length(self):
        g = get_fixture("nc-3").generators()
        for cs in ((1, 0), (1, 0, 0, 1)):
            with pytest.raises(ContextError, match=f"{len(cs)} coefficients, expected 3"):
                g.combination(cs)


class TestIntegerForm:
    """GeneratorSet.forms: A_k = scale_k * M_k, M_k content-free, scale_k > 0."""

    @staticmethod
    def check_forms(g, mats):
        """g was built from the matrices mats."""
        assert len(g.forms) == g.n == len(mats)
        for A, form in zip(mats, g.forms):
            rows, scale = form
            assert type(scale) is Fraction and scale > 0
            assert all(a and type(a) is int for row in rows for _, a in row)
            M = expand_form(form, g.n)
            assert [[scale * a for a in row] for row in M] == [list(r) for r in A]
            assert math.gcd(*(a for row in M for a in row)) == 1

    def test_seeded_rational_sets(self):
        rng = random.Random(2718)
        for _ in range(150):
            g, mats = random_rational_set(rng, rng.randint(1, 5))
            self.check_forms(g, mats)
            self.check_forms(dual_generators(g), dual_matrices(mats))

    def test_scales_and_zero_rows(self):
        g = GeneratorSet([[[Fraction(2, 3), Fraction(-4, 9)], [0, 0]],
                          [[0, 0], [0, Fraction(-5, 2)]]])
        assert g.forms == (((((0, 3), (1, -2)), ()), Fraction(2, 9)),
                           (((), ((1, -1),)), Fraction(5, 2)))


class TestStructure:
    def test_diagonal_algebra_closed(self):
        assert validate_algebra(diag_gens(3)) is None
        # abelian: all structure constants vanish
        assert all(all(v == 0 for v in cs)
                   for row in ref_structure_constants(diag_gens(3)) for cs in row)

    def test_open_bracket_detected(self):
        g = GeneratorSet([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        assert validate_algebra(g) == (0, 1)

    def test_binary_cubic_closed(self):
        assert validate_algebra(get_fixture("binary-cubic").generators()) is None

    def test_first_failing_pair_after_closed_pairs(self):
        # [E11, E22] = 0 closes; [E11, E12 + E21] = E12 - E21 does not
        g = GeneratorSet([unit(0, 0), unit(1, 1), mat_add(unit(0, 1), unit(1, 0))])
        assert validate_algebra(g) == (0, 2)
        # the identity commutes with everything; [E12, E21] = E11 - E22 escapes
        g = GeneratorSet([identity(3), unit(0, 1), unit(1, 0)])
        assert validate_algebra(g) == (1, 2)
        assert ref_structure_constants(g) is None

    def test_structure_constants_antisymmetric(self):
        g = get_fixture("star-2111").generators()
        assert validate_algebra(g) is None
        c = ref_structure_constants(g)
        assert any(v for row in c for cs in row for v in cs)   # not abelian
        for i in range(g.n):
            assert c[i][i] == (0,) * g.n
            for j in range(g.n):
                assert c[i][j] == tuple(-v for v in c[j][i])
        # and they are the coordinates of the brackets
        for i in range(g.n):
            for j in range(g.n):
                assert combination(c[i][j], g.matrices()) == \
                    bracket(g.matrix(i), g.matrix(j))

    def test_no_row_reduction(self, monkeypatch):
        """The closure check and the independence check run on the integer
        echelon directly, not through rref and its Fractions."""
        g = get_fixture("dtilde3-22111").generators()
        mats = g.matrices()

        def no_rref(rows):
            raise AssertionError("linalg.rref called")

        monkeypatch.setattr(linalg, "rref", no_rref)
        assert validate_algebra(g) is None
        assert GeneratorSet(mats, g.variables) == g


def bracket_by_bracket(g):
    """Reference closure check: one Fraction in_span solve per pair i < j,
    on the reference elimination of conftest.  Brackets are antisymmetric,
    so c_ji = -c_ij and c_ii = 0 exactly, and the first failing pair in
    row-major order has i < j."""
    def flatten(m):
        return [v for row in m for v in row]

    mats = g.matrices()
    flat = [flatten(m) for m in mats]
    constants = [[(Fraction(0),) * g.n] * g.n for _ in range(g.n)]
    for i in range(g.n):
        for j in range(i + 1, g.n):
            coeffs = ref_in_span(flat, flatten(bracket(mats[i], mats[j])))
            if coeffs is None:
                return False, None, (i, j)
            constants[i][j] = tuple(coeffs)
            constants[j][i] = tuple(-v for v in coeffs)
    return True, constants, None


@functools.lru_cache(maxsize=None)
def closed_fixtures(n):
    return [g.matrices() for g in (get_fixture(name).generators()
                                   for name in fixture_names()) if g.n == n]


def random_generator_set(rng, n):
    """Independent sparse generators: mostly random, so rarely closed; one
    in four is a sparse change of basis of a closed fixture of size n."""
    while True:
        if rng.random() < 0.25:
            base = rng.choice(closed_fixtures(n))
            mix = [[rng.choice((-2, -1, 1, 2)) if k == l else 0 for l in range(n)]
                   for k in range(n)]
            for _ in range(rng.randint(1, n)):
                mix[rng.randrange(n)][rng.randrange(n)] = rng.randint(-3, 3)
            mats = [combination(row, base) for row in mix]
        else:
            mats = [[[0] * n for _ in range(n)] for _ in range(n)]
            for A in mats:
                for _ in range(rng.randint(1, n)):
                    A[rng.randrange(n)][rng.randrange(n)] = rng.choice((-2, -1, 1, 1, 2, 3))
        try:
            return GeneratorSet(mats)
        except DomainError:
            continue


def rescaled(g, rng):
    """g with each generator multiplied by a seeded nonzero rational, so
    the stored forms keep their integers and change their scales."""
    factors = (Fraction(-3, 2), Fraction(2, 5), 7, Fraction(-1, 6), Fraction(9, 4))
    return GeneratorSet([mat_scale(A, rng.choice(factors)) for A in g.matrices()],
                        g.variables)


class TestClosureAgainstPerBracketSolves:
    """validate_algebra, and the structure constants read off its integer
    echelon, against the per-bracket in_span loop it replaced."""

    @staticmethod
    def same(g):
        pair = validate_algebra(g)
        constants = ref_structure_constants(g)
        assert (pair is None, constants, pair) == bracket_by_bracket(g)
        assert all(type(v) is Fraction for row in constants or ()
                   for cs in row for v in cs)
        return pair is None

    @pytest.mark.parametrize("name", fixture_names() + [
        "atilde-4", "atilde-5", "atilde-6", "nc-5", "nc-6", "nc-7", "nc-8"])
    def test_named(self, name):
        g = get_fixture(name).generators()
        assert self.same(g)
        assert self.same(rescaled(g, random.Random(name)))

    def test_seeded_random_sets(self):
        rng = random.Random(4011)
        verdicts = [self.same(random_generator_set(rng, rng.randint(2, 5)))
                    for _ in range(200)]
        assert verdicts.count(True) >= 30
        assert verdicts.count(False) > len(verdicts) // 2

    def test_seeded_rescaled_sets(self):
        """Rational generators: the scales differ from 1 and the common
        pivot value of the echelon is often above 1."""
        rng = random.Random(5077)
        sets = [rescaled(random_generator_set(rng, rng.randint(2, 5)), rng)
                for _ in range(150)]
        verdicts = [self.same(g) for g in sets]
        assert verdicts.count(True) >= 20
        assert verdicts.count(False) > len(verdicts) // 2
        assert sum(math.lcm(*(E[p] for p, E in g.rows)) > 1
                   for g in sets) >= 30
        assert all(any(s != 1 for _, s in g.forms) for g in sets)


class TestInfinitesimalAction:
    def test_single_field(self):
        p = MultiPoly(("x", "y"), {(1, 1): 1})  # xy
        a = [[1, 0], [0, 0]]  # x d/dx
        assert delta(a, p) == p

    def test_shear(self):
        a = [[0, 1], [0, 0]]  # field y d/dx
        assert delta(a, MultiPoly(XY, {(2, 0): 1})) == MultiPoly(XY, {(1, 1): 2})

    def test_linearity(self):
        p = MultiPoly(XY, {(2, 1): 1, (0, 1): 3})   # x^2 y + 3y
        a = [[1, 2], [0, 1]]
        b = [[0, 0], [5, 0]]
        lhs = delta([[1, 2], [5, 1]], p)
        assert lhs.terms == ref_poly_add(delta(a, p).terms, delta(b, p).terms)

    def test_size_mismatch(self):
        with pytest.raises(ContextError):
            delta([[1]], MultiPoly(XY, {(1, 0): 1}))

    def test_against_derivatives(self):
        """Seeded oracle: sum_i (Ax)_i dp/dx_i in the Fraction dict
        arithmetic of conftest, on rational A and p that are not
        homogeneous, with exponents up to 9."""
        rng = random.Random(2718)
        for trial in range(60):
            n = rng.randint(1, 4)
            names = tuple(f"v{i}" for i in range(n))
            p = MultiPoly(names, {
                tuple(rng.randint(0, 9 if trial % 3 == 0 else 3) for _ in range(n)):
                    Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for _ in range(rng.randint(0, 6))})
            A = [[rng.choice((0, 0, 1, -2, Fraction(3, 4), Fraction(-5, 6)))
                  for _ in range(n)] for _ in range(n)]
            want = {}
            for i in range(n):
                want = ref_poly_add(want, ref_poly_mul(
                    ref_poly_linear(A[i]), ref_poly_derivative(p.terms, i)))
            got = delta(A, p)
            assert got.terms == want, (A, p)


class TestDiscriminant:
    def test_normal_crossings(self):
        g = diag_gens(3)
        f = discriminant(g)
        assert f == MultiPoly(g.variables, {(1, 1, 1): 1})

    def test_binary_cubic_matches_catalogue(self):
        g = get_fixture("binary-cubic").generators()
        f = discriminant(g)
        table = MultiPoly(g.variables, {
            (0, 2, 2, 0): 1, (1, 0, 3, 0): -4, (0, 3, 0, 1): -4,
            (1, 1, 1, 1): 18, (2, 0, 0, 2): -27})
        assert f == ref_product(table, -3)

    def test_degenerate_columns_give_zero(self):
        e11 = [[1, 0], [0, 0]]
        e12 = [[0, 1], [0, 0]]
        # both image columns lie on the first axis, so the det vanishes
        f = columns_determinant([e11, e12], ("x", "y"))
        assert f.is_zero
        f2 = columns_determinant([e11, [[2, 0], [0, 0]]], ("x", "y"))
        assert f2.is_zero

    def test_against_leibniz(self):
        """Seeded oracle: the Leibniz sum over permutations in the Fraction
        dict arithmetic of conftest, on rational matrices with zero and
        dependent columns."""
        rng = random.Random(1618)
        entries = (0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4))
        for trial in range(32):
            n = 5 if trial % 8 == 7 else rng.randint(1, 4)
            names = tuple(f"v{i}" for i in range(n))
            mats = [[[rng.choice(entries) for _ in range(n)] for _ in range(n)]
                    for _ in range(n)]
            if n > 1 and trial % 4 == 1:
                mats[rng.randrange(n)] = [[0] * n for _ in range(n)]
            if n > 1 and trial % 4 == 2:
                i, j = rng.sample(range(n), 2)
                mats[j] = mat_scale(mats[i], Fraction(-2, 3))
            cols = [[ref_poly_linear(row) for row in A] for A in mats]
            want = {}
            for perm in permutations(range(n)):
                sign = (-1) ** sum(perm[a] > perm[b] for a in range(n)
                                   for b in range(a + 1, n))
                term = {(0,) * n: Fraction(sign)}
                for k in range(n):
                    term = ref_poly_mul(term, cols[k][perm[k]])
                want = ref_poly_add(want, term)
            got = columns_determinant(mats, names)
            assert got.terms == want, mats
            if n > 1 and trial % 4 in (1, 2):
                assert got.is_zero

    def test_degree_equals_dimension(self):
        for name in ("binary-cubic", "det22-squared", "star-2111"):
            g = get_fixture(name).generators()
            f = discriminant(g)
            assert f.is_homogeneous()
            assert f.degree() == g.n


class TestStoredFormAgainstMatrices:
    """The kernels on a GeneratorSet read its stored forms; the same
    kernels on ad-hoc matrices build the forms per call.  Both agree."""

    @pytest.mark.parametrize("name", fixture_names())
    def test_named_and_dual(self, name, monkeypatch):
        g = get_fixture(name).generators()
        mats = g.matrices()
        for h, h_mats in ((GeneratorSet(mats, g.variables), mats),
                          (dual_generators(g), dual_matrices(mats))):
            TestIntegerForm.check_forms(h, h_mats)
            with monkeypatch.context() as m:
                m.setattr(liealg, "_integer_form", None)   # no per-call scan
                f = discriminant(h)
                values = character(h) if not f.is_zero else ()
                validate_algebra(h)
                fstar = dual_discriminant(h)
            assert f == columns_determinant(h_mats, h.variables)
            assert fstar == columns_determinant(dual_matrices(h_mats),
                                                liealg.dual_variables(h.variables))
            for k, v in enumerate(values):
                assert v == eigenvalue(h_mats[k], f)
            if values:
                assert delta_character(h, f) == values


class TestCharacter:
    def test_star_values(self):
        g = get_fixture("star-2111").generators()
        c = character(g)
        assert c == (3, 0, 0, 3, -2, -2)
        assert tuple(map(linalg.trace, g.matrices())) == (3, 0, 0, 3, -2, -2)
        assert is_special(g, c)

    def test_not_invariant_detected(self):
        g = diag_gens(2)
        f = MultiPoly(g.variables, {(1, 0): 1, (0, 1): 1})
        assert delta_character(g, f) is None

    def test_term_outside_support(self):
        # delta of the field y d/dx on x^2 is 2xy, a monomial f lacks
        g = GeneratorSet([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
        assert eigenvalue(g.matrix(0), MultiPoly(g.variables, {(2, 0): 1})) is None
        assert delta_character(g, MultiPoly(g.variables, {(2, 0): 3})) is None

    def test_same_support_not_proportional(self):
        # delta of x d/dx + 2y d/dy on x + y is x + 2y: same support
        g = GeneratorSet([[[1, 0], [0, 0]], [[1, 0], [0, 2]]])
        f = MultiPoly(g.variables, {(1, 0): Fraction(2, 3), (0, 1): Fraction(2, 3)})
        assert eigenvalue(g.matrix(1), f) is None
        assert eigenvalue(g.matrix(0), MultiPoly(g.variables, {(2, 0): 1})) == 2
        assert delta_character(g, f) is None

    def test_star_31111(self):
        """n = 12: the center-3 star with four 1-dimensional sources."""
        g = star_31111()
        f = discriminant(g)
        dual = dual_generators(g)
        fstar = discriminant(dual)
        assert (g.n, len(f.terms), len(fstar.terms)) == (12, 415, 415)
        c, c_star = character(g), character(dual)
        assert is_special(g, c)
        assert c_star == tuple(-v for v in c)
        assert (delta_character(g, f), delta_character(dual, fstar)) == (c, c_star)

    @pytest.mark.parametrize("name", ["atilde-8", "nc-8"])
    def test_against_delta_oracle(self, name):
        g = get_fixture(name).generators()
        assert delta_character(g, discriminant(g)) == character(g)

    def test_combination_linearity(self):
        c = (1, 2, 3)
        assert character_of_combination(c, [1, 1, 1]) == 6
        assert character_of_combination(c, [Fraction(1, 2), 0, 0]) == Fraction(1, 2)

    def test_combination_wrong_length(self):
        for cs in ((1, 1), (1, 1, 1, 1)):
            with pytest.raises(ContextError, match=f"{len(cs)} coefficients, expected 3"):
                character_of_combination((1, 2, 3), cs)

    def test_zero_discriminant_rejected(self):
        g = diag_gens(2)
        with pytest.raises(DomainError):
            delta_character(g, MultiPoly(g.variables, {}))

    def test_nonspecial_fixture(self):
        g = get_fixture("quadric-cone-3").generators()
        c = character(g)
        assert c == (3, 2, 0)
        assert tuple(map(linalg.trace, g.matrices())) == (3, 3, 0)
        assert not is_special(g, c)

    def test_is_special_wrong_length(self):
        g = get_fixture("quadric-cone-3").generators()
        for c in ((), (3, 3), (3, 3, 0, 0)):
            with pytest.raises(ContextError, match=f"{len(c)} character values, expected 3"):
                is_special(g, c)


class TestAnnihilator:
    def test_diagonal(self):
        g = diag_gens(3)
        c = character(g)
        assert c == (1, 1, 1)
        basis = ref_annihilator_basis(g, c)
        assert len(basis) == 2
        for B in basis:
            d = delta(B, discriminant(g))
            assert d.is_zero


class TestDual:
    def test_dual_generators(self):
        g = diag_gens(2)
        d = dual_generators(g)
        assert d.variables == ("x1*", "x2*")
        assert d.matrix(0) == [[-1, 0], [0, 0]]
        assert dual_discriminant(g) == MultiPoly(d.variables, {(1, 1): 1})

    def test_no_independence_proof(self, monkeypatch):
        """f* reads g's forms negated and transposed: no elimination, and
        the same polynomial as the discriminant of a fresh dual set."""
        def no_elimination(rows):
            raise AssertionError("dual_discriminant reduced rows")

        for name in fixture_names():
            g = get_fixture(name).generators()
            with monkeypatch.context() as m:
                m.setattr(linalg, "rref", no_elimination)
                m.setattr(linalg, "echelon", no_elimination)
                fstar = dual_discriminant(g)
            assert fstar == discriminant(dual_generators(g)), name

    @pytest.mark.parametrize("name", fixture_names() + ["atilde-8", "nc-8", "star-31111"])
    def test_mapped_rows(self, name):
        """The dual reads its closure check and character off the rows of
        its own elimination, and they agree with g's through A -> -A^t; so
        do the dual of the dual's."""
        g = star_31111() if name == "star-31111" else get_fixture(name).generators()
        assert dual_verdicts_agree(g)
        assert dual_verdicts_agree(dual_generators(g))

    def test_mapped_rows_seeded(self):
        """Random rational sets, mostly not closed: the same first open
        bracket on the dual as on g."""
        rng = random.Random(6113)
        for _ in range(80):
            g = rescaled(random_generator_set(rng, rng.randint(2, 5)), rng)
            assert dual_verdicts_agree(g)

    def test_dual_of_dual(self):
        rng = random.Random(1618)
        mats = [get_fixture(name).generators().matrices() for name in fixture_names()]
        sets = [(GeneratorSet(m), m) for m in mats]
        sets += [random_rational_set(rng, rng.randint(1, 5)) for _ in range(40)]
        for g, mats in sets:
            back = dual_generators(dual_generators(g))
            assert back.matrices() == mats
            assert back.forms == g.forms
            assert back.variables == tuple(v + "**" for v in g.variables)

    def test_difference_formula_on_fixtures(self):
        for name in ("nc-3", "binary-cubic", "star-2111", "quadric-cone-3"):
            assert dual_characters_agree(get_fixture(name).generators())

    def test_degenerate_dual(self):
        # triangular pair: f = x^2 but the dual determinant vanishes
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        assert discriminant(g) == MultiPoly(g.variables, {(2, 0): 1})
        assert dual_discriminant(g).is_zero


def _one_route_set(key):
    if key == "star-31111":
        return star_31111()
    if key == "json":
        # binary-cubic's generators rescaled by k/3, as "p/q" text
        mats = get_fixture("binary-cubic").generators().matrices()
        text = json.dumps({"generators": [[[str(v * Fraction(k, 3)) for v in row]
                                           for row in A]
                                          for k, A in enumerate(mats, 1)]})
        return generatorset_from_json(json.loads(text))
    if key in QUIVERS:
        return infinitesimal_generators(*QUIVERS[key])
    return get_fixture(key).generators()


QUIVERS = {p.id: p.values for p in GENERATED}


def one_route(g):
    """g's rows are those of one `linalg.echelon` of its flattened forms,
    f* from its forms is the discriminant of the dual set proved afresh
    and the determinant of the dense -A^t, and the double dual has g's
    forms."""
    n = g.n
    flat = [{i * n + j: a for i, row in enumerate(M) for j, a in row}
            for M, _ in g.forms]
    d = dual_generators(g)
    fstar = dual_discriminant(g)
    return g.rows == tuple(linalg.echelon(flat)) and \
        fstar == discriminant(d) and \
        fstar == columns_determinant(dual_matrices(g.matrices()), d.variables) and \
        dual_generators(d).forms == g.forms


class TestOneRoute:
    """Every set gets its rows from the elimination of its own proof, and
    f* has one route, from the forms; on the named fixtures, every
    generated quiver class, the center-3 star and a set read from JSON,
    and on each one's dual."""

    @pytest.mark.parametrize("key", fixture_names() + list(QUIVERS) +
                             ["star-31111", "json"])
    def test_rows_and_fstar(self, key):
        g = _one_route_set(key)
        assert one_route(g)
        assert one_route(dual_generators(g))


class TestClassify:
    def test_star_is_linear_free_divisor(self):
        cls = classify(get_fixture("star-2111").generators())
        assert cls.kind == "linear-free-divisor"
        assert cls.reduced and cls.special and cls.closed_under_bracket

    def test_det_squared_not_reduced(self):
        cls = classify(get_fixture("det22-squared").generators())
        assert cls.kind == "prehomogeneous-determinant"
        assert not cls.reduced
        assert cls.special

    def test_closure_failure_raises(self):
        g = GeneratorSet([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        with pytest.raises(ClosureError):
            classify(g)

    @pytest.mark.parametrize("name, reduced", [("nc-48", True), ("atilde-29", False)])
    def test_large_degree_verdicts(self, name, reduced):
        # degree 48 and 32: each squarefree line's gcd ran on integers that
        # grow with the degree, for seconds; packed into ints, milliseconds
        assert classify(get_fixture(name).generators()).reduced is reduced

    def test_not_prehomogeneous(self):
        # both image columns live in the first coordinate axis
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        cls = classify(g)
        assert cls.kind == "not-prehomogeneous"
        assert cls.discriminant.is_zero


NONREDUCED = {"det22-squared", "dtilde3-22111", "atilde-2", "atilde-3",
              "atilde-4", "atilde-5", "atilde-6", "atilde-7", "atilde-8",
              "atilde-29"}


def permuted_rescaled(g, rng):
    """g's generators in a seeded order, each times a seeded rational."""
    order = rng.sample(range(g.n), g.n)
    return GeneratorSet([mat_scale(g.matrix(k), rng.choice((2, -3, Fraction(1, 2))))
                         for k in order], g.variables)


def conjugated(g, rng):
    """P A_k P^-1 for a seeded unimodular P, three elementary steps from I."""
    P, P_inv = elementary_product(rng, g.n, 3)
    return GeneratorSet([mat_mul(mat_mul(P, A), P_inv) for A in g.matrices()])


class TestSaitoBlocks:
    """The block-triangular form of the Saito matrix, its block determinants
    and the squared-block witness, against `conftest.saito_oracle`: the
    verdict of all eight lines, f multiplied out from the blocks, and h^2 | f
    by multiplication alone."""

    @pytest.mark.parametrize("name", fixture_names() + [
        "atilde-4", "atilde-5", "atilde-6", "atilde-7", "atilde-8", "atilde-29",
        "nc-8", "star-31111"])
    def test_named(self, name):
        g = star_31111() if name == "star-31111" else get_fixture(name).generators()
        assert saito_oracle(g) is (name in NONREDUCED)
        if name in fixture_names():
            assert saito_oracle(dual_generators(g)) is (name in NONREDUCED)

    @pytest.mark.parametrize("name", ["det22-squared", "dtilde3-22111", "atilde-3",
                                      "binary-cubic", "star-2111", "quadric-cone-4"])
    def test_seeded_variants(self, name):
        """A permutation and rescaling of the generators moves the blocks
        and keeps them; a unimodular conjugate keeps f up to a unit but may
        merge blocks, so its witness may be gone."""
        rng = random.Random(name)
        g = get_fixture(name).generators()
        saito_oracle(conjugated(g, rng))
        assert saito_oracle(permuted_rescaled(g, rng)) is (name in NONREDUCED)

    def test_conjugate_needs_division(self):
        """Blocks [2, 4]: the quadric divides the quartic block."""
        g = conjugated(get_fixture("atilde-3").generators(), random.Random(3))
        assert sorted(len(rows) for rows, _ in liealg._blocks(g)) == [2, 4]
        h, q = liealg._squared_block(g)
        assert max(map(sum, h)) == 2 and max(map(sum, q)) == 2


def sparse_pattern(rng, n):
    """A seeded set of n independent generators, each with one to three
    small nonzero entries, built from its integer forms; None when the
    draw is dependent."""
    forms = []
    for _ in range(n):
        A = [[0] * n for _ in range(n)]
        for _ in range(rng.randint(1, 3)):
            A[rng.randrange(n)][rng.randrange(n)] = rng.choice((1, -1, 2, 3))
        forms.append(liealg._integer_form(A, n))
    try:
        return GeneratorSet._from_forms(forms)
    except DomainError:
        return None


class TestBlockOracle:
    """`liealg._blocks` against `conftest.ref_blocks`, a breadth-first
    matching and a search from every row."""

    @pytest.mark.parametrize("name", fixture_names() + ["atilde-8", "nc-8", "atilde-30",
                                                        "star-31111"])
    def test_named(self, name):
        g = star_31111() if name == "star-31111" else get_fixture(name).generators()
        assert blocks_agree(g) and blocks_agree(dual_generators(g))

    def test_seeded_patterns(self):
        rng = random.Random(37)
        sets = [g for g in (sparse_pattern(rng, rng.randint(1, 7)) for _ in range(400))
                if g is not None]
        blocks = [liealg._blocks(g) for g in sets]
        assert len(sets) > 200 and 0 < blocks.count(None) < len(sets)
        assert max(len(b) for b in blocks if b) > 2
        assert all(blocks_agree(g) for g in sets)

    def test_structurally_singular(self):
        """nc-2 with both generators in row 0: no perfect matching."""
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        assert liealg._blocks(g) is None and blocks_agree(g)

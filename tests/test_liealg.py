import functools
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import (bracket, combination, identity, mat_add, mat_vec,
                      ref_in_span)

from prehomog import liealg, linalg, quiver
from prehomog.errors import (ClosureError, ContextError,
                             DegenerateCharacterError, DegenerateDualError,
                             DomainError, NotInvariantError)
from prehomog.fixtures import fixture_names, get_fixture
from prehomog.liealg import (CharacterData, GeneratorSet, annihilator_basis,
                             character, character_of_combination, classify,
                             discriminant, dual_character_check,
                             character_value, dual_generators,
                             infinitesimal_apply, is_special,
                             matrix_columns_determinant, validate_algebra)
from prehomog.polyring import MultiPoly


def unit(i, j, n=3):
    return [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]


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
        C = mat_add(A, linalg.mat_scale(B, Fraction(-4, 5)))
        for mats in ([A, linalg.mat_scale(A, Fraction(2, 3)), B],
                     [A, B, C],
                     [A, [[0] * 3 for _ in range(3)], B],
                     [[[0]]]):
            with pytest.raises(DomainError):
                GeneratorSet(mats)
        assert GeneratorSet([A, B, mat_add(C, unit(1, 0))]).n == 3

    def test_variable_count(self):
        with pytest.raises(ContextError):
            GeneratorSet([[[1]]], variables=("x", "y"))

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
        bools, Fractions and "p/q" strings, nothing else."""
        for bad in (0.1, 1.0, None, [1], 1j):
            with pytest.raises(ContextError, match="cannot use"):
                GeneratorSet([[[bad]]])
            with pytest.raises(ContextError, match="cannot use"):
                infinitesimal_apply([[bad]], MultiPoly(("x",), {(1,): 1}))
        assert GeneratorSet([[[True]]]) == GeneratorSet([[["2/2"]]])

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
            assert GeneratorSet([linalg.mat_scale(A, 1) for A in mats], g.variables) == g
            for k in (0, g.n - 1):
                other = [linalg.mat_scale(A, Fraction(2, 3)) if i == k else A
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


def dual_matrices(mats):
    return [linalg.mat_scale(linalg.transpose(A), -1) for A in mats]


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
        rep = validate_algebra(diag_gens(3))
        assert rep.closed
        assert rep.failing_pair is None
        # abelian: all structure constants vanish
        assert all(all(v == 0 for v in cs)
                   for row in rep.structure_constants for cs in row)

    def test_open_bracket_detected(self):
        g = GeneratorSet([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
        rep = validate_algebra(g)
        assert not rep.closed
        assert rep.failing_pair == (0, 1)

    def test_binary_cubic_closed(self):
        rep = validate_algebra(get_fixture("binary-cubic").generators())
        assert rep.closed

    def test_first_failing_pair_after_closed_pairs(self):
        # [E11, E22] = 0 closes; [E11, E12 + E21] = E12 - E21 does not
        g = GeneratorSet([unit(0, 0), unit(1, 1), mat_add(unit(0, 1), unit(1, 0))])
        assert validate_algebra(g).failing_pair == (0, 2)
        # the identity commutes with everything; [E12, E21] = E11 - E22 escapes
        g = GeneratorSet([identity(3), unit(0, 1), unit(1, 0)])
        rep = validate_algebra(g)
        assert not rep.closed and rep.structure_constants is None
        assert rep.failing_pair == (1, 2)

    def test_structure_constants_antisymmetric(self):
        g = get_fixture("star-2111").generators()
        c = validate_algebra(g).structure_constants
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
        assert validate_algebra(g).closed
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
    return GeneratorSet([linalg.mat_scale(A, rng.choice(factors)) for A in g.matrices()],
                        g.variables)


class TestClosureAgainstPerBracketSolves:
    """validate_algebra against the per-bracket in_span loop it replaced."""

    @staticmethod
    def same(g):
        rep = validate_algebra(g)
        got = (rep.closed, rep.structure_constants, rep.failing_pair)
        assert got == bracket_by_bracket(g)
        assert all(type(v) is Fraction for row in rep.structure_constants or ()
                   for cs in row for v in cs)
        return rep.closed

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
        assert sum(liealg._echelon(g.forms, g.n)[0] > 1 for g in sets) >= 30
        assert all(any(s != 1 for _, s in g.forms) for g in sets)


class TestInfinitesimalAction:
    def test_single_field(self):
        p = MultiPoly(("x", "y"), {(1, 1): 1})  # xy
        a = [[1, 0], [0, 0]]  # x d/dx
        assert infinitesimal_apply(a, p) == p

    def test_shear(self):
        x, y = MultiPoly.gens(("x", "y"))
        a = [[0, 1], [0, 0]]  # field y d/dx
        assert infinitesimal_apply(a, x * x) == 2 * x * y

    def test_linearity(self):
        x, y = MultiPoly.gens(("x", "y"))
        p = x ** 2 * y + 3 * y
        a = [[1, 2], [0, 1]]
        b = [[0, 0], [5, 0]]
        lhs = infinitesimal_apply([[1, 2], [5, 1]], p)
        assert lhs == infinitesimal_apply(a, p) + infinitesimal_apply(b, p)

    def test_size_mismatch(self):
        with pytest.raises(ContextError):
            infinitesimal_apply([[1]], MultiPoly.gens(("x", "y"))[0])

    def test_against_derivatives(self):
        """Seeded oracle: sum_i (Ax)_i dp/dx_i in MultiPoly arithmetic, on
        rational A and p that are not homogeneous, with exponents up to 9."""
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
            xs = MultiPoly.gens(names)
            want = MultiPoly.zero(names)
            for i, v in enumerate(names):
                form = sum((a * x for a, x in zip(A[i], xs)), MultiPoly.zero(names))
                want = want + form * p.derivative(v)
            got = infinitesimal_apply(A, p)
            assert got.terms == want.terms, (A, p)


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
        assert f == table * -3

    def test_degenerate_columns_give_zero(self):
        e11 = [[1, 0], [0, 0]]
        e12 = [[0, 1], [0, 0]]
        # both image columns lie on the first axis, so the det vanishes
        f = matrix_columns_determinant([e11, e12], ("x", "y"))
        assert f.is_zero
        f2 = matrix_columns_determinant([e11, [[2, 0], [0, 0]]], ("x", "y"))
        assert f2.is_zero

    def test_against_leibniz(self):
        """Seeded oracle: the Leibniz sum over permutations in MultiPoly
        arithmetic, on rational matrices with zero and dependent columns."""
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
                mats[j] = linalg.mat_scale(mats[i], Fraction(-2, 3))
            xs = MultiPoly.gens(names)
            cols = [[sum((a * x for a, x in zip(row, xs)), MultiPoly.zero(names))
                     for row in A] for A in mats]
            acc = {}
            for perm in permutations(range(n)):
                sign = (-1) ** sum(perm[a] > perm[b] for a in range(n)
                                   for b in range(a + 1, n))
                term = MultiPoly.constant(names, sign)
                for k in range(n):
                    term = term * cols[k][perm[k]]
                for e, c in term.terms.items():
                    acc[e] = acc.get(e, 0) + c
            want = MultiPoly(names, acc)
            got = matrix_columns_determinant(mats, names)
            assert got.terms == want.terms, mats
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
                values = character(h, f).values if not f.is_zero else ()
                validate_algebra(h)
                dual_generators(h)
            assert f == matrix_columns_determinant(h_mats, h.variables)
            for k, v in enumerate(values):
                assert v == character_value(h_mats[k], f)


class TestCharacter:
    def test_star_values(self):
        g = get_fixture("star-2111").generators()
        c = character(g, discriminant(g))
        assert c.values == (3, 0, 0, 3, -2, -2)
        assert c.trace_values == (3, 0, 0, 3, -2, -2)
        assert is_special(c)

    def test_not_invariant_detected(self):
        g = diag_gens(2)
        x, y = MultiPoly.gens(g.variables)
        with pytest.raises(NotInvariantError):
            character(g, x + y)

    def test_term_outside_support(self):
        # delta of the field y d/dx on x^2 is 2xy, a monomial f lacks
        g = GeneratorSet([[[0, 1], [0, 0]], [[1, 0], [0, 0]]])
        x, y = MultiPoly.gens(g.variables)
        assert character_value(g.matrix(0), x * x) is None
        with pytest.raises(NotInvariantError, match="generator 1"):
            character(g, 3 * x * x)

    def test_same_support_not_proportional(self):
        # delta of x d/dx + 2y d/dy on x + y is x + 2y: same support
        g = GeneratorSet([[[1, 0], [0, 0]], [[1, 0], [0, 2]]])
        x, y = MultiPoly.gens(g.variables)
        f = Fraction(2, 3) * (x + y)
        assert character_value(g.matrix(1), f) is None
        assert character_value(g.matrix(0), x * x) == 2
        with pytest.raises(NotInvariantError, match="generator 1"):
            character(g, f)

    def test_star_31111(self):
        """n = 12: the center-3 star with four 1-dimensional sources."""
        sources = ["s1", "s2", "s3", "s4"]
        qv = quiver.Quiver(["c"] + sources, [(s, "c") for s in sources])
        d = quiver.DimensionVector({"c": 3, **dict.fromkeys(sources, 1)})
        g = quiver.infinitesimal_generators(qv, d)
        f = discriminant(g)
        dual = dual_generators(g)
        fstar = discriminant(dual)
        assert (g.n, len(f.terms), len(fstar.terms)) == (12, 415, 415)
        assert is_special(character(g, f))
        assert character(dual, fstar).values == \
            tuple(-v for v in character(g, f).values)

    def test_combination_linearity(self):
        c = CharacterData([1, 2, 3], [1, 1, 1])
        assert character_of_combination(c, [1, 1, 1]) == 6
        assert character_of_combination(c, [Fraction(1, 2), 0, 0]) == Fraction(1, 2)

    def test_zero_discriminant_rejected(self):
        g = diag_gens(2)
        with pytest.raises(DomainError):
            character(g, MultiPoly.zero(g.variables))

    def test_nonspecial_fixture(self):
        g = get_fixture("quadric-cone-3").generators()
        c = character(g, discriminant(g))
        assert c.values == (3, 2, 0)
        assert c.trace_values == (3, 3, 0)
        assert not is_special(c)


class TestAnnihilator:
    def test_diagonal(self):
        g = diag_gens(3)
        c = character(g, discriminant(g))
        assert c.values == (1, 1, 1)
        basis = annihilator_basis(g, c)
        assert len(basis) == 2
        for B in basis:
            d = infinitesimal_apply(B, discriminant(g))
            assert d.is_zero

    def test_degenerate_character(self):
        g = diag_gens(2)
        c = CharacterData([0, 0], [1, 1])
        with pytest.raises(DegenerateCharacterError):
            annihilator_basis(g, c)


class TestDual:
    def test_dual_generators(self):
        g = diag_gens(2)
        d = dual_generators(g)
        assert d.variables == ("x1*", "x2*")
        assert d.matrix(0) == [[-1, 0], [0, 0]]

    def test_no_independence_proof(self, monkeypatch):
        def no_elimination(rows):
            raise AssertionError("dual_generators reduced rows")

        for name in fixture_names():
            g = get_fixture(name).generators()
            expected = GeneratorSet(dual_matrices(g.matrices()),
                                    liealg.dual_variables(g.variables))
            with monkeypatch.context() as m:
                m.setattr(linalg, "rref", no_elimination)
                m.setattr(linalg, "echelon", no_elimination)
                d = dual_generators(g)
            assert d == expected, name
            assert (d.n, d.variables) == (expected.n, expected.variables)
            assert d.forms == expected.forms, name

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
            assert dual_character_check(get_fixture(name).generators())

    def test_degenerate_dual(self):
        # triangular pair: f = x^2 but the dual determinant vanishes
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
        assert discriminant(g) == MultiPoly(g.variables, {(2, 0): 1})
        assert discriminant(dual_generators(g)).is_zero
        with pytest.raises(DegenerateDualError):
            dual_character_check(g)


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

    def test_not_prehomogeneous(self):
        # both image columns live in the first coordinate axis
        g = GeneratorSet([[[1, 0], [0, 0]], [[0, 1], [0, 0]]])
        cls = classify(g)
        assert cls.kind == "not-prehomogeneous"
        assert cls.discriminant.is_zero

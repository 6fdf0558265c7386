import random
from fractions import Fraction

import pytest

from prehomog import linalg
from prehomog.errors import ContextError
from prehomog.fixtures import get_fixture
from prehomog.geometry import point_context

from conftest import mat_vec, ref_in_span, ref_nullspace, ref_rref, ref_solve


def rand_matrix(rng, r, c, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(c)] for _ in range(r)]


def kernel(a):
    """The kernel basis of a, read from the homogeneous solve."""
    return linalg.solve_affine(a, [0] * len(a))[1]


class TestBasics:
    def test_transpose_trace(self):
        a = [[1, 2], [3, 4]]
        assert linalg.transpose(a) == [[1, 3], [2, 4]]
        assert linalg.transpose([]) == []
        assert linalg.trace(a) == 5

    def test_entries_coerced_like_coefficients(self):
        assert linalg.frac_matrix([[1, "-2/4", Fraction(1, 3), True]]) == \
            [[1, Fraction(-1, 2), Fraction(1, 3), 1]]
        for bad in (0.5, None, 2j):
            with pytest.raises(ContextError, match="cannot use"):
                linalg.frac_matrix([[1, bad]])
            with pytest.raises(ContextError, match="cannot use"):
                point_context(get_fixture("nc-2").generators(), (bad, 0))


class TestEchelon:
    def test_rref_known(self):
        m, pivots = linalg.rref([[0, 2, 4], [1, 1, 1]])
        assert pivots == [0, 1]
        assert m[0] == [1, 0, -1]
        assert m[1] == [0, 1, 2]

    def test_rref_deterministic_tie_break(self):
        # two proportional rows: first one becomes the pivot row
        assert linalg.rref([[2, 4], [1, 2]]) == ([[1, 2]], [0])

    def test_cancelling_row_dropped(self):
        # the second row is twice the first, and the zero row has no pivot
        rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {}, {1: 3}]
        assert linalg.echelon(rows) == [(0, {0: 1}), (1, {1: 3})]
        assert linalg.echelon([{0: -2, 2: 6}, {0: 1, 2: -3}]) == [(0, {0: -2, 2: 6})]
        assert linalg.echelon([]) == []

    def test_rref_empty_and_zero(self):
        # zero rows have no pivot and leave no row
        assert linalg.rref([]) == ([], [])
        assert linalg.rref([[], []]) == ([], [])
        assert linalg.rref([[0, 0], [0, 0]]) == ([], [])
        m, pivots = linalg.rref([[0, 0], [0, 3]])
        assert (m, pivots) == ([[0, 1]], [1])
        assert all(type(v) is Fraction for row in m for v in row)

    def test_row_space_basis(self):
        basis, pivots = linalg.rref([[1, 1, 0], [0, 0, 3], [1, 1, 3]])
        assert pivots == [0, 2]
        assert basis == [[1, 1, 0], [0, 0, 1]]


class TestKernelAndSolve:
    def test_nullspace_basis_property(self):
        rng = random.Random(5)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            basis = kernel(a)
            assert len(basis) == len(a[0]) - len(linalg.rref(a)[1])
            for v in basis:
                assert all(x == 0 for x in mat_vec(a, v))

    def test_nullspace_free_column_structure(self):
        basis = kernel([[1, 2, 3]])
        assert basis == [[-2, 1, 0], [-3, 0, 1]]

    def test_solve_consistent(self):
        a = [[1, 1], [1, -1]]
        assert linalg.solve_affine(a, [3, 1]) == ([2, 1], [])

    def test_solve_inconsistent(self):
        assert linalg.solve_affine([[1, 1], [2, 2]], [1, 3]) is None

    def test_solve_affine_kernel(self):
        got = linalg.solve_affine([[1, 1, 0]], [2])
        assert got is not None
        x, kernel = got
        assert x == [2, 0, 0]
        assert len(kernel) == 2

    def test_solve_dimension_mismatch(self):
        with pytest.raises(ContextError):
            linalg.solve_affine([[1, 2]], [1, 2])

    def test_in_span(self):
        assert ref_in_span([[1, 0], [1, 1]], [3, 2]) == [1, 2]
        assert ref_in_span([[1, 0]], [0, 1]) is None
        assert ref_in_span([], [0, 0]) == []
        assert ref_in_span([], [1, 0]) is None

    def test_random_solve_round_trip(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n)
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            b = mat_vec(a, x)
            got = linalg.solve_affine(a, b)[0]
            assert mat_vec(a, got) == b



def rand_system(rng):
    """A seeded r x c rational matrix with proportional rows, zero rows and
    zero columns; r or c may be 0, and entries are often fractional."""
    r, c = rng.randint(0, 6), rng.randint(0, 6)
    a = []
    for _ in range(r):
        kind = rng.random()
        if a and kind < 0.2:
            k = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            a.append([k * v for v in rng.choice(a)])
        elif kind < 0.3:
            a.append([Fraction(0)] * c)
        else:
            a.append([Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))
                      if rng.random() < 0.6 else Fraction(0) for _ in range(c)])
    for j in range(c):
        if rng.random() < 0.15:
            for row in a:
                row[j] = Fraction(0)
    return a


class TestAgainstFractionReference:
    """The integer echelon against the Fraction Gauss-Jordan of conftest:
    the RREF is unique, so the values, their types and the pivots are all
    equal once the reference's zero rows are dropped."""

    def test_rref(self):
        rng = random.Random(20261018)
        for _ in range(5000):
            a = rand_system(rng)
            got = linalg.rref(a)
            R, pivots = ref_rref(a)
            assert got == (R[:len(pivots)], pivots), a
            assert all(type(v) is Fraction for row in got[0] for v in row)

    def test_kernel_solve_and_span(self):
        rng = random.Random(7)
        inconsistent = 0
        for _ in range(1500):
            a = rand_system(rng)
            c = len(a[0]) if a else 0
            if rng.random() < 0.5:
                x = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(c)]
                b = mat_vec(a, x)
            else:
                b = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in a]
            x0, ref_kernel = ref_solve(a, b), ref_nullspace(a)
            inconsistent += x0 is None
            assert kernel(a) == ref_kernel
            assert linalg.solve_affine(a, b) == (None if x0 is None else (x0, ref_kernel))
            if a and c:
                # is target a combination of the rows of a?
                target = [Fraction(rng.randint(-3, 3)) for _ in range(c)]
                sol = linalg.solve_affine(linalg.transpose(a), target)
                assert (None if sol is None else sol[0]) == ref_in_span(a, target)
        assert inconsistent > 100

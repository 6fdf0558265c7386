import random
from fractions import Fraction

import pytest

from prehomog import linalg
from prehomog.errors import ContextError


def rand_matrix(rng, r, c, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(c)] for _ in range(r)]


class TestBasics:
    def test_mat_mul_identity(self):
        rng = random.Random(0)
        a = rand_matrix(rng, 3, 3)
        assert linalg.mat_mul(a, linalg.identity(3)) == linalg.frac_matrix(a)
        assert linalg.mat_mul(linalg.identity(3), a) == linalg.frac_matrix(a)

    def test_mat_vec(self):
        a = [[1, 2], [3, 4]]
        assert linalg.mat_vec(a, [1, 1]) == [3, 7]

    def test_transpose_trace(self):
        a = [[1, 2], [3, 4]]
        assert linalg.transpose(a) == [[1, 3], [2, 4]]
        assert linalg.trace(a) == 5

    def test_bracket_antisymmetric(self):
        rng = random.Random(1)
        a, b = rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)
        ab = linalg.bracket(a, b)
        ba = linalg.bracket(b, a)
        assert linalg.mat_add(ab, ba) == linalg.zero_matrix(3, 3)


class TestEchelon:
    def test_rref_known(self):
        m, pivots = linalg.rref([[0, 2, 4], [1, 1, 1]])
        assert pivots == [0, 1]
        assert m[0] == [1, 0, -1]
        assert m[1] == [0, 1, 2]

    def test_rref_deterministic_tie_break(self):
        # two proportional rows: first one becomes the pivot row
        m, pivots = linalg.rref([[2, 4], [1, 2]])
        assert pivots == [0]
        assert m[0] == [1, 2]
        assert m[1] == [0, 0]

    def test_rank(self):
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([]) == 0

    def test_row_space_basis(self):
        basis, pivots = linalg.row_space_basis([[1, 1, 0], [0, 0, 3], [1, 1, 3]])
        assert pivots == [0, 2]
        assert basis == [[1, 1, 0], [0, 0, 1]]


class TestKernelAndSolve:
    def test_nullspace_basis_property(self):
        rng = random.Random(5)
        for _ in range(25):
            a = rand_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
            basis = linalg.nullspace(a)
            assert len(basis) == len(a[0]) - linalg.rank(a)
            for v in basis:
                assert all(x == 0 for x in linalg.mat_vec(a, v))

    def test_nullspace_free_column_structure(self):
        basis = linalg.nullspace([[1, 2, 3]])
        assert basis == [[-2, 1, 0], [-3, 0, 1]]

    def test_solve_consistent(self):
        a = [[1, 1], [1, -1]]
        assert linalg.solve(a, [3, 1]) == [2, 1]

    def test_solve_inconsistent(self):
        assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None

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
        assert linalg.in_span([[1, 0], [1, 1]], [3, 2]) == [1, 2]
        assert linalg.in_span([[1, 0]], [0, 1]) is None
        assert linalg.in_span([], [0, 0]) == []
        assert linalg.in_span([], [1, 0]) is None

    def test_random_solve_round_trip(self):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n)
            x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            b = linalg.mat_vec(a, x)
            got = linalg.solve(a, b)
            assert got is not None
            assert linalg.mat_vec(a, got) == b


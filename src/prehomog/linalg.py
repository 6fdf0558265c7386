"""Exact linear algebra over Q.

Matrices are lists of row lists of Fractions; functions never mutate
their arguments.  Echelon reduction uses leftmost-pivot order with
first-nonzero row tie-breaking so every derived basis is deterministic.
"""

from fractions import Fraction

from .errors import ContextError


def frac_matrix(rows):
    return [[v if type(v) is Fraction else Fraction(v) for v in row]
            for row in rows]


def frac_vector(v):
    return [Fraction(x) for x in v]


def identity(n):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def zero_matrix(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a, c):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    if not b:
        return [[] for _ in a]
    cols = len(b[0])
    inner = len(b)
    out = []
    for row in a:
        if len(row) != inner:
            raise ContextError("matrix dimension mismatch in product")
        out.append([sum((row[k] * b[k][j] for k in range(inner)), Fraction(0))
                    for j in range(cols)])
    return out


def mat_vec(a, v):
    out = []
    for row in a:
        if len(row) != len(v):
            raise ContextError("matrix-vector dimension mismatch")
        out.append(sum((x * y for x, y in zip(row, v)), Fraction(0)))
    return out


def transpose(a):
    if not a:
        return []
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum((a[i][i] for i in range(len(a)) if a[i][i]), Fraction(0))


def bracket(a, b):
    """Commutator [a, b] = ab - ba."""
    return mat_add(mat_mul(a, b), mat_scale(mat_mul(b, a), -1))


def rref(rows):
    """Reduced row echelon form.  Returns (R, pivot_columns)."""
    m = frac_matrix(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(m):
            break
        # first row at or below r with a nonzero entry in column c
        sel = None
        for i in range(r, len(m)):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv if v else v for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows):
    return len(rref(rows)[1])


def row_space_basis(rows):
    """RREF basis of the span of the given row vectors, with pivot columns."""
    m, pivots = rref(rows)
    return m[:len(pivots)], pivots


def nullspace(a):
    """Deterministic basis of the right kernel of a (rows x cols)."""
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = rref(a)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One exact solution of a x = b, or None if inconsistent."""
    if len(a) != len(b):
        raise ContextError("system dimension mismatch")
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if ncols in pivots:
        return None  # pivot in the constant column: inconsistent
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def solve_affine(a, b):
    """(particular solution, kernel basis) of a x = b, or None."""
    x = solve(a, b)
    return None if x is None else (x, nullspace(a))


def in_span(vectors, target):
    """Coefficients c with sum c_i * vectors[i] = target, or None."""
    if not vectors:
        return None if any(target) else []
    a = transpose([frac_vector(v) for v in vectors])
    return solve(a, frac_vector(target))

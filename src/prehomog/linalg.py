"""Exact linear algebra over Q.

Matrices are lists of row lists of Fractions; functions never mutate
their arguments, and entries enter through `frac_matrix` and
`frac_vector`, which take ints, Fractions and "p/q" strings and reject
anything else (floats included) with a ContextError.  All row reduction
runs in `echelon`, one sparse fraction-free integer Gauss-Jordan that
the closure check of `liealg` shares.  `rref` clears each row to a
primitive integer row, reduces the integer rows and divides by the
pivots once at the end; kernels and solves read that form.  The reduced
row echelon form is unique, so every derived basis is deterministic.
Generator images and combinations live on `liealg.GeneratorSet`.
"""

from fractions import Fraction
from math import gcd

from .errors import ContextError
from .polyring import _coerce, primitive


def frac_matrix(rows):
    return [[v if type(v) is Fraction else _coerce(v) for v in row]
            for row in rows]


def frac_vector(v):
    return [x if type(x) is Fraction else _coerce(x) for x in v]


def transpose(a):
    return [list(col) for col in zip(*a)]


def trace(a):
    return sum((a[i][i] for i in range(len(a)) if a[i][i]), Fraction(0))


def echelon(rows):
    """[(p_r, E_r)] from integer Gauss-Jordan on rows {column: nonzero int}.

    Each row is reduced by the rows kept so far and dropped if it cancels;
    else its leftmost column p is its pivot, cleared from the kept rows.
    Rows are combined by cross-multiplication and divided by their gcd, so
    entries stay ints (Bareiss).  The kept rows come in input order with
    E_r[p_s] = 0 for r != s; the pivot values keep their signs.
    """
    out = []
    for row in rows:
        for p, E in out:
            row = _eliminate(row, E, p)
        if row:
            p = min(row)
            out = [(q, _eliminate(E, row, p)) for q, E in out]
            out.append((p, row))
    return out


def _eliminate(row, E, p):
    """row with column p cleared by E[p] row - row[p] E, divided by the gcd
    of its entries ({} if it cancels); row itself when row[p] is already
    zero."""
    x = row.get(p)
    if not x:
        return row
    a = E[p]
    out = {c: a * v for c, v in row.items()}
    for c, v in E.items():
        out[c] = out.get(c, 0) - x * v
    g = gcd(*out.values())
    return {c: v // g for c, v in out.items() if v}


def rref(rows):
    """Reduced row echelon form.  Returns (R, pivot_columns): R has one
    row per pivot, and the pivots ascend."""
    m = frac_matrix(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    basis = sorted(echelon({c: v for c, v in enumerate(primitive(row)[0]) if v}
                           for row in m))
    zero = Fraction(0)
    R = [[Fraction(E[c], E[p]) if c in E else zero for c in range(ncols)]
         for p, E in basis]
    return R, [p for p, _ in basis]


def solve_affine(a, b):
    """(particular solution, kernel basis) of a x = b, or None if
    inconsistent, both read from the one RREF of [a | b]: the kernel has
    one vector per free column of a."""
    if len(a) != len(b):
        raise ContextError("system dimension mismatch")
    if not a:
        return [], []
    ncols = len(a[0])
    m, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if ncols in pivots:
        return None  # pivot in the constant column: inconsistent
    free = [c for c in range(ncols) if c not in pivots]
    x = [Fraction(0)] * ncols
    kernel = [[Fraction(int(c == fc)) for c in range(ncols)] for fc in free]
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
        for v, fc in zip(kernel, free):
            v[pc] = -m[r][fc]
    return x, kernel

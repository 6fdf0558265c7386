"""Shared test plumbing: the acceptance summary lines, the Fraction
Gauss-Jordan that checks the integer echelon of `linalg.echelon`, dense
Fraction matrix helpers, and the dense pointwise geometry that checks
the geometry on the stored integer forms."""

from fractions import Fraction

from prehomog.errors import DomainError
from prehomog.geometry import PointContext
from prehomog.liealg import matrix_columns_determinant
from prehomog.linalg import frac_matrix, frac_vector, mat_scale, transpose

_acceptance_lines = []


def record_criterion(number, description, ok):
    line = f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} - {description}"
    _acceptance_lines.append((number, line))
    return ok


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(_acceptance_lines):
        terminalreporter.write_line(line)


def ref_rref(rows):
    """Reference reduced row echelon form over Fractions: leftmost pivots,
    first nonzero row at or below the current one.  Returns (R, pivots)."""
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


def ref_nullspace(a):
    """Kernel basis of a read from `ref_rref`, one vector per free column."""
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = ref_rref(a)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def ref_solve(a, b):
    """One solution of a x = b read from `ref_rref` of [a | b], or None."""
    if not a:
        return []
    ncols = len(a[0])
    m, pivots = ref_rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def ref_in_span(vectors, target):
    """Coefficients c with sum c_i * vectors[i] = target, or None."""
    if not vectors:
        return None if any(target) else []
    return ref_solve(transpose([frac_vector(v) for v in vectors]), frac_vector(target))


# -- dense Fraction matrices ---------------------------------------------

def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def bracket(a, b):
    """Commutator [a, b] = ab - ba."""
    return mat_add(mat_mul(a, b), mat_scale(mat_mul(b, a), -1))


def combination(coeffs, mats):
    """sum_k coeffs_k mats_k, dense."""
    n = len(mats[0])
    out = [[Fraction(0)] * n for _ in range(n)]
    for a, A in zip(coeffs, mats):
        if a:
            out = mat_add(out, mat_scale(A, a))
    return out


# -- dense pointwise geometry --------------------------------------------

def ref_point_context(g, x0):
    """point_context with images A_k x0 by `mat_vec` and the elimination
    of `ref_rref`; the isotropy is kept as its coefficients."""
    x0 = [Fraction(v) for v in x0]
    images = [mat_vec(A, x0) for A in g.matrices()]
    coeffs = ref_nullspace(transpose(images))
    R, pivots = ref_rref(images)
    normal = [i for i in range(g.n) if i not in pivots]
    return PointContext(x0, coeffs, R[:len(pivots)], pivots, normal)


def ref_isotropy(g, ctx):
    """The isotropy matrices sum c_k A_k by the dense `combination`."""
    return [combination(cs, g.matrices()) for cs in ctx.isotropy_coeffs]


def ref_normal_representation(g, ctx):
    """normal_representation with each column's class in V / tangent solved
    from the basis tangent + {e_q : q normal} by `ref_solve`."""
    basis = [list(row) for row in ctx.tangent]
    basis += [[Fraction(int(i == q)) for i in range(g.n)] for q in ctx.normal_coords]
    a = transpose(basis)
    t = len(ctx.tangent)
    return [transpose([ref_solve(a, [row[qc] for row in B])[t:]
                       for qc in ctx.normal_coords])
            for B in ref_isotropy(g, ctx)]


def ref_normal_discriminant(g, ctx):
    """Determinant of `ref_normal_representation`; the determinant itself
    is checked against the Leibniz sum in test_liealg."""
    names = tuple(g.variables[i] for i in ctx.normal_coords)
    return matrix_columns_determinant(ref_normal_representation(g, ctx), names)


def ref_annihilator_basis(g, c):
    return [combination(cs, g.matrices()) for cs in ref_nullspace([list(c.values)])]


def ref_euler_witness(g, c, ctx):
    """B / dchi(B) for the first isotropy element B with dchi(B) != 0."""
    for cs, B in zip(ctx.isotropy_coeffs, ref_isotropy(g, ctx)):
        val = sum(a * v for a, v in zip(cs, c.values))
        if val:
            return tuple(tuple(v / val for v in row) for row in B)
    return None


def ref_strong_euler(g, c, x0):
    """Is A_1 x0 in the span of {B x0} over the dense annihilator basis?"""
    if c.values[0] != 1:
        raise DomainError("first generator must have character value 1")
    x0 = [Fraction(v) for v in x0]
    images = [mat_vec(B, x0) for B in ref_annihilator_basis(g, c)]
    return ref_in_span(images, mat_vec(g.matrix(0), x0)) is not None

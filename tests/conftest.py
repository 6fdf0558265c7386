"""Shared test plumbing: the acceptance summary lines, and the Fraction
Gauss-Jordan that checks the integer echelon of `linalg.echelon`."""

from fractions import Fraction

from prehomog.linalg import frac_matrix, frac_vector, transpose

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

"""Lie algebras of linear vector fields.

A GeneratorSet holds n independent n x n matrices A_1, ..., A_n.  The
matrix A acts as the vector field delta_A = <Ax, d/dx>; the discriminant
is f(x) = det(A_1 x | ... | A_n x).  This module computes discriminants,
infinitesimal characters, annihilators, specialness, and the dual
(negative transpose) generator set.
"""

from fractions import Fraction

from . import linalg
from .errors import (ClosureError, ContextError, DegenerateCharacterError,
                     DegenerateDualError, DomainError, NotInvariantError)
from .polyring import MultiPoly, is_squarefree


def default_variables(n):
    return tuple(f"x{i+1}" for i in range(n))


class GeneratorSet:
    """Ordered generators of a Lie algebra of linear fields.

    Generator order is semantically significant: the discriminant is
    the literal column determinant in this order, so reordering changes
    f by a sign and scaling changes it by a scalar.
    """

    __slots__ = ("n", "generators", "variables")

    def __init__(self, generators, variables=None):
        gens = [linalg.frac_matrix(m) for m in generators]
        n = len(gens)
        if n < 1:
            raise DomainError("need at least one generator")
        for m in gens:
            if len(m) != n or any(len(row) != n for row in m):
                raise ContextError(f"generators must be {n}x{n} matrices")
        if variables is None:
            variables = default_variables(n)
        variables = tuple(variables)
        if len(variables) != n:
            raise ContextError("need one variable per generator")
        if not linalg.independent(gens):
            raise DomainError("generators are linearly dependent")
        self._fill(gens, variables)

    def _fill(self, gens, variables):
        """Set the fields from checked data: independent n x n Fraction
        matrices and n variable names."""
        object.__setattr__(self, "n", len(gens))
        object.__setattr__(self, "generators", tuple(tuple(tuple(row) for row in m) for m in gens))
        object.__setattr__(self, "variables", variables)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSet is immutable")

    def matrix(self, k):
        return [list(row) for row in self.generators[k]]

    def matrices(self):
        return [self.matrix(k) for k in range(self.n)]

    def __eq__(self, other):
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.generators == other.generators and self.variables == other.variables

    def __repr__(self):
        return f"GeneratorSet(n={self.n}, variables={self.variables})"


class StructureReport:
    """Outcome of the bracket-closure check."""

    __slots__ = ("closed", "structure_constants", "failing_pair")

    def __init__(self, closed, structure_constants=None, failing_pair=None):
        self.closed = closed
        self.structure_constants = structure_constants
        self.failing_pair = failing_pair


class CharacterData:
    """Values of the infinitesimal character and of the trace on each generator."""

    __slots__ = ("values", "trace_values")

    def __init__(self, values, trace_values):
        self.values = tuple(Fraction(v) for v in values)
        self.trace_values = tuple(Fraction(v) for v in trace_values)


class Classification:
    __slots__ = ("kind", "reduced", "special", "closed_under_bracket", "discriminant")

    def __init__(self, kind, reduced, special, closed_under_bracket, discriminant):
        self.kind = kind
        self.reduced = reduced
        self.special = special
        self.closed_under_bracket = closed_under_bracket
        self.discriminant = discriminant

    def __repr__(self):
        return (f"Classification(kind={self.kind!r}, reduced={self.reduced}, "
                f"special={self.special}, closed_under_bracket={self.closed_under_bracket})")


def validate_algebra(g: GeneratorSet) -> StructureReport:
    """Solve every bracket [A_i, A_j] in the generator span.

    Returns the structure constants c^k_ij on success, or the first
    failing pair (in row-major order) when some bracket leaves the span.

    One row reduction serves every bracket.  The rref of the rows
    [flat(A_k) | e_k] is an echelon basis R_r of the span followed by the
    change of basis T with R_r = sum_k T_rk A_k; the generators are
    independent, so every pivot p_r lies in the flat block and the
    coefficients are unique.  A bracket b is in the span iff
    b - sum_r b[p_r] R_r vanishes, and then c_ij = (b[p_r])_r T.
    Brackets are antisymmetric, so only i < j is reduced: c_ji = -c_ij,
    c_ii = 0, and the first failing pair in row-major order has i < j.
    """
    n = g.n
    size = n * n
    zero = Fraction(0)
    rows = [linalg.flatten(A) + [Fraction(int(k == r)) for r in range(n)]
            for k, A in enumerate(g.generators)]
    reduced, pivots = linalg.rref(rows)
    basis = [[(c, v) for c, v in enumerate(row[:size]) if v] for row in reduced]
    change = [row[size:] for row in reduced]
    # nonzero entries of each generator, once as (i, k, v) and once by row k
    entries = [[(i, k, v) for i, row in enumerate(A) for k, v in enumerate(row) if v]
               for A in g.generators]
    by_row = [[[(j, v) for j, v in enumerate(row) if v] for row in A]
              for A in g.generators]

    constants = [[None] * n for _ in range(n)]
    for i in range(n):
        constants[i][i] = (zero,) * n
        for j in range(i + 1, n):
            br = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                for r, k, v in entries[a]:
                    for c, w in by_row[b][k]:
                        idx = r * n + c
                        br[idx] = br.get(idx, zero) + sign * v * w
            coords = [br.get(p, zero) for p in pivots]
            for x, row in zip(coords, basis):
                if x:
                    for c, v in row:
                        br[c] = br.get(c, zero) - x * v
            if any(br.values()):
                return StructureReport(False, None, (i, j))
            cij = tuple(sum((x * t[k] for x, t in zip(coords, change) if x), zero)
                        for k in range(n))
            constants[i][j] = cij
            constants[j][i] = tuple(-v for v in cij)
    return StructureReport(True, constants, None)


def infinitesimal_apply(A, p: MultiPoly) -> MultiPoly:
    """delta_A(p) = sum_i (Ax)_i * dp/dx_i."""
    A = linalg.frac_matrix(A)
    n = len(p.variables)
    if len(A) != n or any(len(row) != n for row in A):
        raise ContextError("matrix size does not match the variable context")
    out = {}
    for e, c in p.terms.items():
        for i in range(n):
            if not e[i]:
                continue
            base = c * e[i]
            row = A[i]
            for j in range(n):
                if row[j]:
                    ne = list(e)
                    ne[i] -= 1
                    ne[j] += 1
                    ne = tuple(ne)
                    out[ne] = out.get(ne, Fraction(0)) + base * row[j]
    return MultiPoly(p.variables, out)


def _det_of_columns(cols, variables):
    """Determinant of a matrix given by columns of MultiPoly entries.

    Expansion by minors with memoization over column subsets; row r is
    expanded when r+1 columns have been consumed.
    """
    n = len(cols)
    memo = {(): MultiPoly.constant(variables, 1)}

    def minor(used):
        got = memo.get(used)
        if got is not None:
            return got
        row = len(used) - 1
        acc = MultiPoly.zero(variables)
        for idx, j in enumerate(used):
            entry = cols[j][row]
            if entry.is_zero:
                continue
            rest = tuple(c for c in used if c != j)
            term = minor(rest) * entry
            acc = acc + (term if (row + idx) % 2 == 0 else -term)
        memo[used] = acc
        return acc

    return minor(tuple(range(n)))


def matrix_columns_determinant(mats, variables) -> MultiPoly:
    """det(A_1 x, ..., A_k x) for any list of k square matrices on k
    variables; no independence requirement, so the result may be zero."""
    variables = tuple(variables)
    n = len(variables)
    if len(mats) != n:
        raise ContextError("need one matrix per variable")
    xs = MultiPoly.gens(variables)
    cols = []
    for A in mats:
        A = linalg.frac_matrix(A)
        if len(A) != n or any(len(row) != n for row in A):
            raise ContextError(f"matrices must be {n}x{n}")
        col = []
        for i in range(n):
            form = MultiPoly.zero(variables)
            for j in range(n):
                if A[i][j]:
                    form = form + A[i][j] * xs[j]
            col.append(form)
        cols.append(col)
    return _det_of_columns(cols, variables)


def discriminant(g: GeneratorSet) -> MultiPoly:
    """f(x) = det(A_1 x, ..., A_n x), homogeneous of degree n or zero."""
    return matrix_columns_determinant(g.matrices(), g.variables)


def character_value(A, f: MultiPoly):
    """lam with delta_A(f) = lam * f, or None when f is not a semi-invariant
    of A.  lam is read off the lexicographically first term of f."""
    d = infinitesimal_apply(A, f)
    lead_e, lead_c = f.leading_term_lex()
    lam = d.coefficient(lead_e) / lead_c
    return lam if d == f * lam else None


def character(g: GeneratorSet, f: MultiPoly) -> CharacterData:
    """Extract dchi(A_k) from delta_{A_k}(f) = dchi(A_k) * f, plus traces."""
    if f.is_zero:
        raise DomainError("character requires a nonzero discriminant")
    values = []
    traces = []
    for k in range(g.n):
        A = g.matrix(k)
        lam = character_value(A, f)
        if lam is None:
            raise NotInvariantError(
                f"delta_A(f) is not proportional to f for generator {k + 1}")
        values.append(lam)
        traces.append(linalg.trace(A))
    return CharacterData(values, traces)


def character_of_combination(c: CharacterData, coeffs):
    """dchi is linear; evaluate it on sum coeffs_k * A_k."""
    return sum((Fraction(a) * v for a, v in zip(coeffs, c.values)), Fraction(0))


def annihilator_basis(g: GeneratorSet, c: CharacterData):
    """Deterministic (n-1)-element basis of ker(dchi) inside the span."""
    if not any(c.values):
        raise DegenerateCharacterError("dchi vanishes on every generator")
    kernel = linalg.nullspace([list(c.values)])
    out = []
    for coeffs in kernel:
        B = linalg.zero_matrix(g.n, g.n)
        for a, A in zip(coeffs, g.matrices()):
            if a:
                B = linalg.mat_add(B, linalg.mat_scale(A, a))
        out.append(B)
    return out


def is_special(c: CharacterData) -> bool:
    """True iff dchi(A_k) = tr(A_k) for every generator."""
    return all(v == t for v, t in zip(c.values, c.trace_values))


def dual_variables(variables):
    return tuple(v + "*" for v in variables)


def dual_generators(g: GeneratorSet) -> GeneratorSet:
    """The dual action {-A^t} on dual variables.

    A -> -A^t is linear and invertible, so the duals are independent
    because the A_k are; the independence proof is not rerun."""
    duals = [linalg.mat_scale(linalg.transpose(m), -1) for m in g.matrices()]
    dual = GeneratorSet.__new__(GeneratorSet)
    dual._fill(duals, dual_variables(g.variables))
    return dual


def dual_character_check(g: GeneratorSet) -> bool:
    """Verify dchi_f(A) - dchi_f*(A) = 2 tr(A) on every generator, and
    dchi_f* = -dchi_f when the divisor is special."""
    f = discriminant(g)
    if f.is_zero:
        raise DomainError("discriminant vanishes; no character to compare")
    dual = dual_generators(g)
    fstar = discriminant(dual)
    if fstar.is_zero:
        raise DegenerateDualError("dual determinant vanishes identically")
    cf = character(g, f)
    cfs = character(dual, fstar)
    for k in range(g.n):
        if cf.values[k] - cfs.values[k] != 2 * cf.trace_values[k]:
            return False
    if is_special(cf):
        for k in range(g.n):
            if cfs.values[k] != -cf.values[k]:
                return False
    return True


def classify(g: GeneratorSet, trials: int = 8, seed: int = 0) -> Classification:
    """Saito-style classification of the discriminant divisor."""
    report = validate_algebra(g)
    if not report.closed:
        i, j = report.failing_pair
        raise ClosureError(
            f"bracket [A{i + 1}, A{j + 1}] is outside the generator span")
    f = discriminant(g)
    if f.is_zero:
        return Classification("not-prehomogeneous", False, False, True, f)
    c = character(g, f)
    special = is_special(c)
    reduced = is_squarefree(f, trials, seed)
    kind = "linear-free-divisor" if reduced else "prehomogeneous-determinant"
    return Classification(kind, reduced, special, True, f)

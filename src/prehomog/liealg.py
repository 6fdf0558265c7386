"""Lie algebras of linear vector fields.

A GeneratorSet holds n independent n x n matrices A_1, ..., A_n.  The
matrix A acts as the vector field delta_A = <Ax, d/dx>; the discriminant
is f(x) = det(A_1 x | ... | A_n x).  This module computes discriminants,
infinitesimal characters, annihilators, specialness, and the dual
(negative transpose) generator set.

A GeneratorSet stores each generator once, as its content-free integer
form A_k = scale_k * M_k from `_integer_form` (the one route from a
matrix to integers); the dual set negates and transposes the integers.
Everything reads the forms: the independence and closure checks
(`_echelon` on the rows [M_k | e_k], via `linalg.echelon`), the
determinant, the delta_A kernel `_delta`, the traces, and the images
A_k x and combinations sum c_k A_k of the annihilator and the pointwise
geometry; ad-hoc matrices are converted per call.  The determinant and
delta_A use the packed exponents of `polyring.packed` and restore the
scales once at the end; the character checks delta_A f = lam f by exact
cross-multiplication without building lam f.
"""

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import (ClosureError, ContextError, DegenerateCharacterError,
                     DegenerateDualError, DomainError, NotInvariantError)
from .polyring import (MultiPoly, _coerce, is_squarefree, packed, primitive,
                       unpack)


def default_variables(n):
    return tuple(f"x{i+1}" for i in range(n))


class GeneratorSet:
    """Ordered generators of a Lie algebra of linear fields.

    Generator order is semantically significant: the discriminant is
    the literal column determinant in this order, so reordering changes
    f by a sign and scaling changes it by a scalar.

    `forms[k]`, the integer form (rows, scale) of A_k, is the only stored
    copy of the generator, and canonical: equal sets have equal forms.
    `matrix` and `matrices` rebuild Fraction lists from it; `combination`
    and `images` work on its sparse integer rows.
    """

    __slots__ = ("n", "variables", "forms")

    def __init__(self, generators, variables=None):
        generators = list(generators)
        n = len(generators)
        if n < 1:
            raise DomainError("need at least one generator")
        forms = [_integer_form(m, n) for m in generators]
        if variables is None:
            variables = default_variables(n)
        variables = tuple(variables)
        if len(variables) != n:
            raise ContextError("need one variable per generator")
        if _echelon(forms, n) is None:
            raise DomainError("generators are linearly dependent")
        self._fill(variables, forms)

    def _fill(self, variables, forms):
        """Set the fields from n names and n independent integer forms."""
        object.__setattr__(self, "n", len(forms))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "forms", tuple(forms))

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSet is immutable")

    def matrix(self, k):
        """A_k as a fresh list of Fraction rows."""
        rows, scale = self.forms[k]
        zero = Fraction(0)
        out = [[zero] * self.n for _ in rows]
        for out_row, row in zip(out, rows):
            for j, a in row:
                out_row[j] = scale * a
        return out

    def matrices(self):
        return [self.matrix(k) for k in range(self.n)]

    def combination(self, coeffs):
        """sum_k coeffs_k A_k as Fraction rows, from integer row sums
        weighted by coeffs_k scale_k = q w_k, w_k ints."""
        w, q = primitive([c * s for c, (_, s) in zip(coeffs, self.forms)])
        acc = [{} for _ in range(self.n)]
        for wk, (rows, _) in zip(w, self.forms):
            if wk:
                for target, row in zip(acc, rows):
                    for j, a in row:
                        target[j] = target.get(j, 0) + wk * a
        zero = Fraction(0)
        return [[q * r[j] if j in r else zero for j in range(self.n)] for r in acc]

    def images(self, x):
        """[A_k x for each k] as Fraction lists, for x of ints and Fractions."""
        X, q = primitive(x)
        return [[scale * q * sum(a * X[j] for j, a in row) for row in rows]
                for rows, scale in self.forms]

    def __eq__(self, other):
        if not isinstance(other, GeneratorSet):
            return NotImplemented
        return self.forms == other.forms and self.variables == other.variables

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
        self.values = tuple(values)
        self.trace_values = tuple(trace_values)


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

    One integer echelon serves every bracket.  `_echelon` reduces the
    rows [M_k | e_k] of the stored integer forms A_k = s_k M_k with
    `linalg.echelon`, the one row-reduction routine, to rows E_r =
    sum_k T_rk M_k with E_r[p_s] = D delta_rs; the generators are
    independent, so there are n pivots p_r, all in the flat block, and
    the coefficients are unique.  The integer bracket b = [M_i, M_j] is in
    the span iff D b - sum_r b[p_r] E_r vanishes, and then y = sum_r
    b[p_r] T_r gives c^k_ij = s_i s_j y_k / (D s_k), since [A_i, A_j] =
    s_i s_j b.  Everything but the last division runs on ints.  Brackets
    are antisymmetric, so only i < j is reduced: c_ji = -c_ij, c_ii = 0,
    and the first failing pair in row-major order has i < j.
    """
    n = g.n
    size = n * n
    zero = Fraction(0)
    D, basis = _echelon(g.forms, n)
    scales = [(s.numerator, s.denominator) for _, s in g.forms]
    # nonzero entries (i, k, M_ik) of each integer form
    entries = [[(i, k, a) for i, row in enumerate(form[0]) for k, a in row]
               for form in g.forms]

    constants = [[None] * n for _ in range(n)]
    for i in range(n):
        constants[i][i] = (zero,) * n
        for j in range(i + 1, n):
            br = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                by_row = g.forms[b][0]
                for r, k, v in entries[a]:
                    for c, w in by_row[k]:
                        idx = r * n + c
                        br[idx] = br.get(idx, 0) + sign * v * w
            # res = D b - sum_r b[p_r] E_r: zero on the flat block iff b is
            # in the span, and -y on the columns size + k
            res = {c: D * v for c, v in br.items()}
            for p, E in basis:
                x = br.get(p)
                if x:
                    for c, v in E.items():
                        res[c] = res.get(c, 0) - x * v
            if any(v for c, v in res.items() if c < size):
                return StructureReport(False, None, (i, j))
            num = scales[i][0] * scales[j][0]
            den = scales[i][1] * scales[j][1] * D
            cij = tuple(Fraction(-num * res[size + k] * sd, den * sn)
                        if res.get(size + k) else zero
                        for k, (sn, sd) in enumerate(scales))
            constants[i][j] = cij
            constants[j][i] = tuple(-v for v in cij)
    return StructureReport(True, constants, None)


def _echelon(forms, n):
    """(D, [(p_r, E_r)]) from `linalg.echelon` on the rows [M_k | e_k] of
    the integer forms, or None when the M_k are linearly dependent.

    Column i*n + j holds M_ij and n*n + k holds e_k, so no row cancels and
    a pivot lands in the e-block exactly when the M_k are dependent.  Each
    row is then scaled to the common pivot value D > 0: E_r[p_s] =
    D delta_rs and E_r = sum_k T_rk M_k with T_rk = E_r[n*n + k].
    """
    size = n * n
    rows = linalg.echelon({i * n + j: a for i, r in enumerate(form) for j, a in r}
                          | {size + k: 1} for k, (form, _) in enumerate(forms))
    if any(p >= size for p, _ in rows):
        return None
    D = lcm(*(E[p] for p, E in rows))
    return D, [(p, {c: v * (D // E[p]) for c, v in E.items()}) for p, E in rows]


def _integer_form(A, n):
    """(rows, scale) of the n x n matrix A of ints, Fractions and "p/q"
    strings: A = scale * M with M a content-free integer matrix, scale > 0
    and rows[i] = ((j, M_ij), ...) over the nonzero entries of row i."""
    A = [[v if type(v) is int else _coerce(v) for v in row] for row in A]
    if len(A) != n or any(len(row) != n for row in A):
        raise ContextError(f"matrices must be {n}x{n}")
    nonzero = [(i, j, v) for i, row in enumerate(A) for j, v in enumerate(row) if v]
    ints, scale = primitive([v for _, _, v in nonzero])
    rows = [[] for _ in range(n)]
    for (i, j, _), a in zip(nonzero, ints):
        rows[i].append((j, a))
    return tuple(map(tuple, rows)), scale


def _degree_bits(p: MultiPoly):
    """Bits per variable for packed exponents of p and of delta_A p: delta_A
    keeps the total degree, so every exponent stays <= deg p."""
    return max(1, max(map(sum, p.terms), default=0).bit_length())


def _delta(form, terms, B):
    """(d, scale): delta_A of the packed pairs `terms` is scale * d, with
    d = {packed e: int} and no zero values.

    form = (rows, scale) is the integer form of A.  x_j d/dx_i moves e to
    e - x_i + x_j: one int add on the packed exponent."""
    rows, scale = form
    mask = (1 << B) - 1
    rows = [(B * i, [((1 << B * j) - (1 << B * i), a) for j, a in row])
            for i, row in enumerate(rows) if row]
    out = {}
    get = out.get
    for e, c in terms:
        for shift, moves in rows:
            m = (e >> shift) & mask
            if m:
                base = c * m
                for step, a in moves:
                    ne = e + step
                    out[ne] = get(ne, 0) + base * a
    return {e: v for e, v in out.items() if v}, scale


def infinitesimal_apply(A, p: MultiPoly) -> MultiPoly:
    """delta_A(p) = sum_i (Ax)_i * dp/dx_i."""
    n = len(p.variables)
    B = _degree_bits(p)
    terms, p_scale = packed(p, B)
    d, a_scale = _delta(_integer_form(A, n), terms, B)
    scale = a_scale * p_scale
    return MultiPoly(p.variables, {unpack(e, B, n): scale * v for e, v in d.items()})


def matrix_columns_determinant(mats, variables) -> MultiPoly:
    """det(A_1 x, ..., A_k x) for any list of k square matrices on k
    variables; no independence requirement, so the result may be zero.

    Each A_k is scaled once to its content-free integer form, the
    determinant of those is expanded by minors with memoisation over
    column subsets (row r is expanded when r + 1 columns have been
    consumed) and the product of the scales is restored once at the end.
    An r-minor has degree r <= n, so bit_length(n) bits per variable hold
    every packed exponent.
    """
    variables = tuple(variables)
    n = len(variables)
    if len(mats) != n:
        raise ContextError("need one matrix per variable")
    return _determinant([_integer_form(A, n) for A in mats], variables)


def _determinant(forms, variables):
    """det(A_1 x, ..., A_n x) from the integer forms of the A_k."""
    n = len(variables)
    B = max(1, n.bit_length())
    scale = Fraction(1)
    cols = []   # cols[k][i]: the linear form (A_k x)_i as packed pairs
    for rows, s in forms:
        scale *= s
        cols.append([[(1 << B * j, a) for j, a in row] for row in rows])
    memo = {0: {0: 1}}

    def minor(used):
        """Rows 0..|used|-1 in the columns of the bit set `used`."""
        got = memo.get(used)
        if got is not None:
            return got
        row = used.bit_count() - 1
        sign = -1 if row % 2 else 1
        acc = {}
        get = acc.get
        for j in range(n):
            if not used >> j & 1:
                continue
            form = cols[j][row]
            if form:
                for e1, c1 in minor(used ^ 1 << j).items():
                    c1 *= sign
                    for e2, c2 in form:
                        e = e1 + e2
                        acc[e] = get(e, 0) + c1 * c2
            sign = -sign
        got = memo[used] = {e: c for e, c in acc.items() if c}
        return got

    det = minor((1 << n) - 1)
    return MultiPoly(variables, {unpack(e, B, n): scale * c for e, c in det.items()})


def discriminant(g: GeneratorSet) -> MultiPoly:
    """f(x) = det(A_1 x, ..., A_n x), homogeneous of degree n or zero."""
    return _determinant(g.forms, g.variables)


def _eigenvalue(form, terms, support, B):
    """lam with delta_A f = lam * f for f the packed pairs `terms` with the
    key set `support`, or None.  Exact by cross-multiplication against the
    first term (e0, c0): d_e c0 = d_e0 c_e on supp f, and d has no term
    outside supp f."""
    d, scale = _delta(form, terms, B)
    e0, c0 = terms[0]
    d0 = d.get(e0, 0)
    if not d.keys() <= support or any(d.get(e, 0) * c0 != d0 * c for e, c in terms):
        return None
    return scale * Fraction(d0, c0)


def _packed_form(f: MultiPoly):
    """(terms, support, B) of nonzero f for `_eigenvalue`; the content of f
    cancels from lam and is dropped."""
    if f.is_zero:
        raise DomainError("zero polynomial has no character")
    B = _degree_bits(f)
    terms = packed(f, B)[0]
    return terms, {e for e, _ in terms}, B


def character_value(A, f: MultiPoly):
    """lam with delta_A(f) = lam * f, or None when f is not a semi-invariant
    of A."""
    form = _integer_form(A, len(f.variables))
    return _eigenvalue(form, *_packed_form(f))


def character(g: GeneratorSet, f: MultiPoly) -> CharacterData:
    """Extract dchi(A_k) from delta_{A_k}(f) = dchi(A_k) * f, plus traces;
    f is packed once for all generators."""
    if f.is_zero:
        raise DomainError("character requires a nonzero discriminant")
    if len(f.variables) != g.n:
        raise ContextError("matrix size does not match the variable context")
    form = _packed_form(f)
    values = []
    traces = []
    for k, (rows, scale) in enumerate(g.forms):
        lam = _eigenvalue((rows, scale), *form)
        if lam is None:
            raise NotInvariantError(
                f"delta_A(f) is not proportional to f for generator {k + 1}")
        values.append(lam)
        traces.append(scale * sum(a for i, row in enumerate(rows)
                                  for j, a in row if i == j))
    return CharacterData(values, traces)


def character_of_combination(c: CharacterData, coeffs):
    """dchi is linear; evaluate it on sum coeffs_k * A_k."""
    return sum((_coerce(a) * v for a, v in zip(coeffs, c.values)), Fraction(0))


def annihilator_basis(g: GeneratorSet, c: CharacterData):
    """Deterministic (n-1)-element basis of ker(dchi) inside the span."""
    if not any(c.values):
        raise DegenerateCharacterError("dchi vanishes on every generator")
    return [g.combination(cs) for cs in linalg.nullspace([list(c.values)])]


def is_special(c: CharacterData) -> bool:
    """True iff dchi(A_k) = tr(A_k) for every generator."""
    return all(v == t for v, t in zip(c.values, c.trace_values))


def dual_variables(variables):
    return tuple(v + "*" for v in variables)


def dual_generators(g: GeneratorSet) -> GeneratorSet:
    """The dual action {-A^t} on dual variables.

    A -> -A^t is linear and invertible, so the duals are independent
    because the A_k are; the independence proof is not rerun.  The
    integer form of -A^t is (-M^t, scale), so nothing is rescanned."""
    forms = []
    for rows, scale in g.forms:
        cols = [[] for _ in range(g.n)]
        for i, row in enumerate(rows):
            for j, a in row:
                cols[j].append((i, -a))
        forms.append((tuple(map(tuple, cols)), scale))
    dual = GeneratorSet.__new__(GeneratorSet)
    dual._fill(dual_variables(g.variables), forms)
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

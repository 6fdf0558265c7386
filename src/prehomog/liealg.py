"""Lie algebras of linear vector fields.

A GeneratorSet holds n independent n x n matrices A_1, ..., A_n.  The
matrix A acts as the vector field delta_A = <Ax, d/dx>; the discriminant
is f(x) = det(A_1 x | ... | A_n x).  This module computes discriminants,
infinitesimal characters, specialness, and the discriminant f* of the
dual (negative transpose) action.

A GeneratorSet stores each generator once, as its content-free integer
form A_k = scale_k * M_k from `_integer_form` (the one route from a
matrix to integers).  The generated families (quiver representations,
`nc-N`) write their forms directly, without a dense matrix, and enter
through `GeneratorSet._from_forms`; f* negates and transposes the
integers of the forms, with no dual set.
Everything reads the forms: the determinants, the traces of `is_special`,
and the images A_k x and combinations sum c_k A_k of the pointwise
geometry.  The independence proof reduces the flattened M_k once
(`linalg.echelon`, in `GeneratorSet._prove`) and keeps the rows, so every
set's rows come from that one elimination; the closure check and the
character read them.
The determinant works on packed exponents and restores the scales once
at the end.  The character comes from the Lie algebra alone, dchi(A) =
tr A - tr ad A on the kept rows, so it never differentiates f.
The sparsity of the forms gives the block-triangular form of the Saito
matrix (A_1 x | ... | A_n x), `_blocks`; the determinant of a square
block is `_determinant` on its sub-forms, and a block determinant that
divides another (`polyring._quotient`) is a squared factor of f, which
certifies `classify`'s "not reduced".
"""

from fractions import Fraction
from math import lcm

from . import linalg
from .errors import ClosureError, ContextError, DomainError
from .polyring import (MultiPoly, _Value, _coerce, _exact, _quotient,
                       exponent_bits, is_squarefree, primitive, unpack)


def default_variables(n):
    return tuple(f"x{i+1}" for i in range(n))


class GeneratorSet(_Value):
    """Ordered generators of a Lie algebra of linear fields.

    Generator order is semantically significant: the discriminant is
    the literal column determinant in this order, so reordering changes
    f by a sign and scaling changes it by a scalar.

    `forms[k]`, the integer form (rows, scale) of A_k, is the only stored
    copy of the generator, and canonical: equal sets have equal forms.
    `matrix` and `matrices` rebuild Fraction lists from it; `combination`
    and `images` work on its sparse integer rows.  `rows` holds the n rows
    (p_r, E_r) that `linalg.echelon` keeps of the M_k flattened to
    {i*n + j: M_ij}, so E_r[p_s] = 0 for r != s and E_r[p_r] != 0; every
    set gets them from that one elimination, so equal forms give equal
    rows and == compares the slots.
    """

    __slots__ = ("n", "variables", "forms", "rows")

    def __init__(self, generators, variables=None):
        generators = list(generators)
        self._prove([_integer_form(m, len(generators)) for m in generators],
                    variables)

    @classmethod
    def _from_forms(cls, forms, variables=None):
        """The set of the canonical integer forms `forms`, as `_integer_form`
        gives them, for builders that never write a dense matrix."""
        g = cls.__new__(cls)
        g._prove(forms, variables)
        return g

    def _prove(self, forms, variables):
        """Check the names and the independence of the forms, then set the
        fields."""
        n = len(forms)
        if n < 1:
            raise DomainError("need at least one generator")
        if variables is None:
            variables = default_variables(n)
        variables = tuple(variables)
        if len(variables) != n:
            raise ContextError("need one variable per generator")
        if len(set(variables)) != n or not all(variables):
            raise ContextError("variable names must be distinct and nonempty")
        rows = linalg.echelon({i * n + j: a for i, r in enumerate(form) for j, a in r}
                              for form, _ in forms)
        if len(rows) != n:
            raise DomainError("generators are linearly dependent")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "forms", tuple(forms))
        object.__setattr__(self, "rows", tuple(rows))

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
        if len(coeffs) != self.n:
            raise ContextError(f"{len(coeffs)} coefficients, expected {self.n}")
        w, q = primitive([_exact(c) * s for c, (_, s) in zip(coeffs, self.forms)])
        acc = [{} for _ in range(self.n)]
        for wk, (rows, _) in zip(w, self.forms):
            if wk:
                for target, row in zip(acc, rows):
                    for j, a in row:
                        target[j] = target.get(j, 0) + wk * a
        zero = Fraction(0)
        return [[q * r[j] if j in r else zero for j in range(self.n)] for r in acc]

    def images(self, x):
        """[A_k x for each k] as Fraction lists, for x of exact numbers."""
        if len(x) != self.n:
            raise ContextError(f"point has {len(x)} coordinates, expected {self.n}")
        X, q = primitive([_exact(v) for v in x])
        zero = Fraction(0)
        return [[sq * v if v else zero for v in [sum(a * X[j] for j, a in row) for row in rows]]
                for rows, sq in [(rows, scale * q) for rows, scale in self.forms]]

    def __repr__(self):
        return f"GeneratorSet(n={self.n}, variables={self.variables})"


class Classification:
    """The verdicts of `classify`, which raises ClosureError before it
    builds one for generators that do not close under the bracket."""

    __slots__ = ("kind", "reduced", "special", "discriminant")
    closed_under_bracket = True

    def __init__(self, kind, reduced, special, discriminant):
        self.kind = kind
        self.reduced = reduced
        self.special = special
        self.discriminant = discriminant

    def __repr__(self):
        return (f"Classification(kind={self.kind!r}, reduced={self.reduced}, "
                f"special={self.special}, closed_under_bracket={self.closed_under_bracket})")


def validate_algebra(g: GeneratorSet):
    """The first pair (i, j), i < j in row-major order, whose bracket
    [A_i, A_j] leaves the generator span, or None when the generators
    close under the bracket; no structure constants are built.

    Scaled to the common pivot value D, the rows (p_r, E_r) of g are rows
    with E_r[p_s] = D delta_rs.  [A_i, A_j] is in the span iff
    b = [M_i, M_j] is, iff D b - sum_r b[p_r] E_r vanishes: it does at
    the pivots, so only the other columns are kept.  Brackets are
    antisymmetric, so only i < j is tried.
    """
    n = g.n
    D = lcm(*(E[p] for p, E in g.rows))
    pivots = {p for p, _ in g.rows}
    basis = [(p, [(c, v * (D // E[p])) for c, v in E.items() if c not in pivots])
             for p, E in g.rows]
    # nonzero entries (i, k, M_ik) of each integer form
    entries = [[(i, k, a) for i, row in enumerate(form[0]) for k, a in row]
               for form in g.forms]
    for i in range(n):
        for j in range(i + 1, n):
            br = {}
            for a, b, sign in ((i, j, 1), (j, i, -1)):
                by_row = g.forms[b][0]
                for r, k, v in entries[a]:
                    for c, w in by_row[k]:
                        idx = r * n + c
                        br[idx] = br.get(idx, 0) + sign * v * w
            res = {c: D * v for c, v in br.items() if c not in pivots}
            for p, E in basis:
                x = br.get(p)
                if x:
                    for c, v in E:
                        res[c] = res.get(c, 0) - x * v
            if any(res.values()):
                return i, j
    return None


def _integer_form(A, n):
    """(rows, scale) of the n x n matrix A of ints, Fractions and "p/q"
    strings: A = scale * M with M a content-free integer matrix, scale > 0
    and rows[i] = ((j, M_ij), ...) over the nonzero entries of row i."""
    A = [[_exact(v) for v in row] for row in A]
    if len(A) != n or any(len(row) != n for row in A):
        raise ContextError(f"matrices must be {n}x{n}")
    nonzero = [(i, j, v) for i, row in enumerate(A) for j, v in enumerate(row) if v]
    ints, scale = primitive([v for _, _, v in nonzero])
    rows = [[] for _ in range(n)]
    for (i, j, _), a in zip(nonzero, ints):
        rows[i].append((j, a))
    return tuple(map(tuple, rows)), scale


def _determinant(forms, variables):
    """det(A_1 x, ..., A_m x) from m integer forms (rows, scale) with m
    rows each, rows[i] the entries (j, a) of row i over the variables; no
    independence requirement, so the result may be zero.  With the n forms
    of a GeneratorSet this is f; with a square block of the Saito matrix
    (rows R, one form per column) it is that block's determinant.

    The determinant of the integer matrices is expanded by minors with
    memoisation over column subsets (row r is expanded when r + 1 columns
    have been consumed); the integer determinant and the product of the
    scales go to `MultiPoly._form`, which divides the content out.  An
    r-minor has degree r <= m, so no exponent passes m.
    """
    n = len(forms)
    B = exponent_bits(n)
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
    del minor       # it refers to itself and holds the memo: free both now
    return MultiPoly._form(variables,
                           {unpack(e, B, len(variables)): c for e, c in det.items()},
                           scale)


def discriminant(g: GeneratorSet) -> MultiPoly:
    """f(x) = det(A_1 x, ..., A_n x), homogeneous of degree n or zero."""
    return _determinant(g.forms, g.variables)


def _augment(i, adj, match, seen):
    """Whether an augmenting path from row i exists among the columns not in
    `seen` (Kuhn 1955); if so the matching `match` (column -> row, -1 when
    free) is shifted along it.  Columns are tried in the order of adj[i]."""
    for k in adj[i]:
        if k not in seen:
            seen.add(k)
            if match[k] < 0 or _augment(match[k], adj, match, seen):
                match[k] = i
                return True
    return False


def _blocks(g):
    """The diagonal blocks [(R_b, C_b)] of the block-triangular form of the
    Saito matrix M(x) = (A_1 x | ... | A_n x), so f = +-prod_b det M_b
    with M_b its rows R_b and columns C_b; None when M has no perfect
    matching, i.e. f = 0 structurally.

    Entry (i, k) is structurally zero iff row i of M_k is empty.  Kuhn's
    augmenting paths (`_augment`) pair each column k with a row match[k];
    the strongly connected components of the digraph with an edge
    i -> match[k] for each nonzero (i, k) are the row sets of the
    irreducible diagonal blocks (Dulmage & Mendelsohn 1958).  Row i reaches
    the rows of the bit set reach[i], closed by Warshall's algorithm
    (1962); two rows share a component iff their reach sets are equal.
    """
    n = g.n
    adj = [[k for k, (rows, _) in enumerate(g.forms) if rows[i]] for i in range(n)]
    match = [-1] * n
    if not all(_augment(i, adj, match, set()) for i in range(n)):
        return None
    # reflexive already: row i's matched entry is an edge i -> i
    reach = [sum({1 << match[k] for k in ks}) for ks in adj]
    for k in range(n):
        bit, via = 1 << k, reach[k]
        reach = [r | via if r & bit else r for r in reach]
    column = [0] * n        # column[i]: the column matched to row i
    for k, i in enumerate(match):
        column[i] = k
    comps = {}
    for i, r in enumerate(reach):
        comps.setdefault(r, []).append(i)
    return [(rows, [column[i] for i in rows]) for rows in comps.values()]


def _squared_block(g):
    """(h, q), integer forms with det M_i = h q and h = det M_j for two
    blocks i != j of `_blocks`, so h^2 | f, as h has degree |C_j| >= 1;
    None when no block determinant divides another.  Larger blocks are
    tried first; the scales do not matter to divisibility."""
    blocks = sorted(_blocks(g), key=lambda b: -len(b[0]))
    dets = [_determinant([(tuple(g.forms[k][0][i] for i in R), 1) for k in C],
                         g.variables).ints for R, C in blocks]
    support = [{v for e in d for v, x in enumerate(e) if x} for d in dets]
    for j, h in enumerate(dets):
        for i, p in enumerate(dets):
            if i != j and len(blocks[i][0]) >= len(blocks[j][0]) \
                    and support[j] <= support[i]:
                q = _quotient(p, h)
                if q is not None:
                    return h, q
    return None


def character(g: GeneratorSet):
    """The tuple of dchi(A_k) = tr A_k - tr ad A_k, the character of
    f = det(A_1 x | ... | A_n x); no f is built.  It raises ClosureError,
    naming the first failing bracket of `validate_algebra`, unless the
    generators close under the bracket: the closure test and the character
    read the same rows, `g.rows`.

    When the A_k close, f(hx) = det h (det Ad h)^-1 f(x) (Kimura, ch. 2).
    tr ad is read on the rows (p_r, E_r) of g: X in the span
    has coordinate X[p_r] / E_r[p_r] on E_r, so tr ad M = sum_r
    [M, E_r][p_r] / E_r[p_r], with [M, E]_ij = sum_l M_il E_lj - E_il M_lj.
    Both traces are linear in M, so D dchi(M) = sum_ab M_ab L_ab for one
    integer matrix L, D the lcm of the pivot values.  L is built from each
    entry of each E_r once; each A_k = s_k M_k then costs one pass over
    its nonzero entries."""
    pair = validate_algebra(g)
    if pair is not None:
        i, j = pair
        raise ClosureError(
            f"bracket [A{i + 1}, A{j + 1}] is outside the generator span")
    n = g.n
    D = lcm(*(E[p] for p, E in g.rows))
    L = {a * (n + 1): D for a in range(n)}
    for p, E in g.rows:
        i, j = divmod(p, n)
        w = D // E[p]
        for c, v in E.items():
            l, m = divmod(c, n)
            if m == j:      # E_lj meets M_il
                L[i * n + l] = L.get(i * n + l, 0) - w * v
            if l == i:      # E_im meets M_mj
                L[m * n + j] = L.get(m * n + j, 0) + w * v
    return tuple(scale * Fraction(sum(a * L.get(i * n + j, 0)
                                      for i, row in enumerate(M) for j, a in row), D)
                 for M, scale in g.forms)


def character_of_combination(c, coeffs):
    """dchi is linear; evaluate the character values c on sum coeffs_k * A_k."""
    if len(coeffs) != len(c):
        raise ContextError(f"{len(coeffs)} coefficients, expected {len(c)}")
    return sum((_coerce(a) * v for a, v in zip(coeffs, c)), Fraction(0))


def is_special(g: GeneratorSet, c) -> bool:
    """True iff dchi(A_k) = tr(A_k) for every generator, with c the
    character values and each trace read off the diagonal of the integer
    form (rows, scale) of A_k."""
    if len(c) != g.n:
        raise ContextError(f"{len(c)} character values, expected {g.n}")
    return all(v == scale * sum(dict(row).get(i, 0) for i, row in enumerate(rows))
               for v, (rows, scale) in zip(c, g.forms))


def dual_variables(variables):
    return tuple(v + "*" for v in variables)


def dual_discriminant(g: GeneratorSet) -> MultiPoly:
    """f*(y) = det(-A_1^t y, ..., -A_n^t y), the discriminant of the dual
    action, on the dual variables.  The integer form of -A^t is
    (-M^t, scale), so the determinant reads g's forms negated and
    transposed; no dual set is built or proved."""
    forms = []
    for M, scale in g.forms:
        cols = [[] for _ in range(g.n)]
        for i, row in enumerate(M):
            for j, a in row:
                cols[j].append((i, -a))
        forms.append((cols, scale))
    return _determinant(forms, dual_variables(g.variables))


def classify(g: GeneratorSet) -> Classification:
    """Saito-style classification of the discriminant divisor.  `reduced`,
    and with it the kind, comes from `is_squarefree`: True is certified.
    Once its first line shows a repeated factor, the blocks of the Saito
    matrix are searched for a witness h with h^2 | f (`_squared_block`);
    one found certifies False at once.  Without one, False comes after all
    eight lines and is probabilistic."""
    c = character(g)
    f = discriminant(g)
    if f.is_zero:
        return Classification("not-prehomogeneous", False, False, f)
    special = is_special(g, c)
    reduced = is_squarefree(f, lambda: _squared_block(g) is not None)
    kind = "linear-free-divisor" if reduced else "prehomogeneous-determinant"
    return Classification(kind, reduced, special, f)

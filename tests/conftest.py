"""Shared test plumbing: the acceptance summary lines, the Fraction
Gauss-Jordan that checks the integer echelon of `linalg.echelon`, dense
Fraction matrix helpers, the determinant kernel of `liealg` on ad-hoc
matrices, the oracle of the Saito matrix's blocks and their squared-factor
witness, the delta_A oracle that checks `liealg.character` on f itself,
the one-walk b that checks `bfunction`'s split into factors, the
structure constants of a Lie algebra, the character difference of a set
and its dual, the Fourier identity of normal-ordered first-order
operators, the dense generators of a quiver that check the integer forms
`quiver.infinitesimal_generators` writes directly, the dense pointwise
geometry that checks the geometry on the stored integer forms and carries
the paper's local checks (the normal discriminant of Lemma 4.6, strong
Euler homogeneity), the Fraction coefficient arithmetic that checks
`UniPoly` on its integer form, the Fraction recursive descent that checks
`parse_factored`, the expanded route that checks `chain` on its factors,
with seeded chain lists, and the published b-function catalogue."""

import json
import re
from fractions import Fraction
from math import lcm, prod

from prehomog import bernstein, polyring, quiver
from prehomog.errors import CapacityError, DomainError, ParseError, PrehomogError
from prehomog.geometry import PointContext, chain_assemble
from prehomog.liealg import (GeneratorSet, _blocks, _determinant, _integer_form,
                             _squared_block, character, classify, discriminant,
                             dual_generators, is_special, validate_algebra)
from prehomog.linalg import echelon, frac_matrix, frac_vector, trace, transpose
from prehomog.polyring import (MultiPoly, UniPoly, is_squarefree,
                               parse_factored, parse_rational, primitive,
                               rational_root_spectrum)
from prehomog.serialize import spectrum_roots_to_json, unipoly_to_json

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


def mat_scale(a, c):
    return [[c * x for x in row] for row in a]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


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


def elementary_product(rng, n, count):
    """(P, P^-1) for P a product of `count` seeded matrices I + c e_ij,
    i != j: det P = 1, and P^-1 is the product of the I - c e_ij."""
    P, P_inv = identity(n), identity(n)
    for _ in range(count):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2))
        E, E_inv = identity(n), identity(n)
        E[i][j], E_inv[i][j] = c, -c
        P, P_inv = mat_mul(P, E), mat_mul(E_inv, P_inv)
    return P, P_inv


def int_product(a, b):
    """The product of two dense integer matrices, in ints."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def columns_determinant(mats, variables):
    """det(A_1 x, ..., A_k x) of k square matrices on k variables, by
    `liealg._determinant` on their integer forms; zero when the columns
    are dependent."""
    return _determinant([_integer_form(A, len(variables)) for A in mats],
                        tuple(variables))


def star_31111():
    """The center-3 star with four 1-dimensional sources: n = 12, 415 terms
    in f and f*."""
    sources = ["s1", "s2", "s3", "s4"]
    qv = quiver.Quiver(["c"] + sources, [(s, "c") for s in sources])
    d = quiver.DimensionVector({"c": 3, **dict.fromkeys(sources, 1)})
    return quiver.infinitesimal_generators(qv, d)


def _proportional(a, b):
    """Whether the Fraction dicts a and b are nonzero multiples of each other."""
    if a.keys() != b.keys() or not a:
        return False
    e = next(iter(a))
    return ref_poly_mul(b, a[e] / b[e]) == a


def ref_blocks(g):
    """The Saito blocks of g as a set of (frozenset rows, frozenset columns),
    or None when the Saito matrix has no perfect matching, without
    `liealg._blocks`: columns are matched by breadth-first augmenting
    paths, the matching is checked perfect and on entries (i, k) with row i
    of M_k nonempty, and rows i and j share a block iff each reaches the
    other over the edges i -> match[k], by a plain search from every row.
    The blocks do not depend on the matching (Dulmage & Mendelsohn)."""
    n = g.n
    nonzero = {(i, k) for k, (rows, _) in enumerate(g.forms) for i in range(n) if rows[i]}
    match, column = {}, {}      # column -> row, row -> column
    for root in range(n):
        parent, queue, free = {}, [root], None     # parent: column -> row
        for i in queue:         # the queue grows as it is read
            for k in range(n):
                if (i, k) in nonzero and k not in parent:
                    parent[k] = i
                    if k not in match:
                        free = k
                        break
                    queue.append(match[k])
            if free is not None:
                break
        else:
            return None
        k = free
        while k is not None:
            i = parent[k]
            prev = column.get(i)
            match[k], column[i] = i, k
            k = prev
    assert sorted(match) == sorted(column) == list(range(n))
    assert all((i, k) in nonzero for k, i in match.items())
    reach = []
    for s in range(n):
        seen, stack = {s}, [s]
        while stack:
            i = stack.pop()
            for j in {match[k] for k in range(n) if (i, k) in nonzero} - seen:
                seen.add(j)
                stack.append(j)
        reach.append(seen)
    return {(frozenset(rows), frozenset(column[i] for i in rows))
            for rows in [[j for j in range(n) if j in reach[i] and i in reach[j]]
                         for i in range(n)]}


def blocks_agree(g):
    """Whether `liealg._blocks(g)`, as sets of rows and columns, are the
    blocks of `ref_blocks` (both None when there is no perfect matching)."""
    blocks = _blocks(g)
    got = None if blocks is None else {(frozenset(r), frozenset(c)) for r, c in blocks}
    return (blocks is None or len(got) == len(blocks)) and got == ref_blocks(g)


def saito_oracle(g):
    """Checks the Saito blocks of g, a set with f != 0, and returns whether
    `liealg._squared_block` found a witness:

    - `classify(g).reduced` is `is_squarefree(f)`, the verdict of all eight
      lines;
    - f = +-prod_b det M_b over `liealg._blocks`, multiplied out in the
      Fraction dict arithmetic with the product of the scales;
    - a witness (h, q) is the integer form of det M_j, and det M_i = h q,
      for two blocks i != j; then h^2 q times the other blocks'
      determinants is a multiple of f, so h^2 | f, checked by
      multiplication alone."""
    f = discriminant(g)
    assert classify(g).reduced is is_squarefree(f)
    dets = [_determinant([(tuple(g.forms[k][0][i] for i in rows), 1) for k in cols],
                         g.variables) for rows, cols in _blocks(g)]
    whole = {(0,) * g.n: Fraction(1)}
    for d in dets:
        whole = ref_poly_mul(whole, d.terms)
    whole = ref_poly_mul(whole, prod(scale for _, scale in g.forms))
    assert whole in (f.terms, ref_poly_mul(f.terms, -1))
    witness = _squared_block(g)
    if witness is None:
        return False
    h, q = witness
    ints = [d.ints for d in dets]
    j = ints.index(h)
    hq = ref_poly_mul(h, q)
    i = next(i for i, p in enumerate(ints) if i != j and p == hq)
    cofactor = ref_poly_mul(hq, h)
    for b, p in enumerate(ints):
        if b not in (i, j):
            cofactor = ref_poly_mul(cofactor, p)
    assert h and max(map(sum, h)) >= 1 and _proportional(cofactor, f.terms)
    return True


def delta_packed(form, terms, B):
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


def _packed_eigenvalue(form, terms, support, B):
    """lam with delta_A f = lam * f for f the packed pairs `terms` with the
    key set `support`, or None.  Exact by cross-multiplication against the
    first term (e0, c0): d_e c0 = d_e0 c_e on supp f, and d has no term
    outside supp f."""
    d, scale = delta_packed(form, terms, B)
    e0, c0 = terms[0]
    d0 = d.get(e0, 0)
    if not d.keys() <= support or any(d.get(e, 0) * c0 != d0 * c for e, c in terms):
        return None
    return scale * Fraction(d0, c0)


def _packed_form(f):
    """(terms, support, B) of nonzero f for `_packed_eigenvalue`; the
    content of f cancels from lam and is dropped.  delta_A keeps the total
    degree, so no exponent of f or of delta_A f passes deg f."""
    if f.is_zero:
        raise DomainError("zero polynomial has no character")
    B = polyring.exponent_bits(f.degree())
    terms = polyring.packed(f, B)[0]
    return terms, {e for e, _ in terms}, B


def eigenvalue(A, f):
    """lam with delta_A f = lam f on the integer form of A, or None when f
    is not a semi-invariant of A."""
    return _packed_eigenvalue(_integer_form(A, len(f.variables)), *_packed_form(f))


def delta_character(g, f):
    """The delta_A oracle of `liealg.character`: the tuple of lam_k with
    delta_{A_k} f = lam_k f, from f itself, or None when some A_k has no
    such lam_k.  f is packed once for all generators."""
    form = _packed_form(f)
    values = tuple(_packed_eigenvalue(A, *form) for A in g.forms)
    return None if None in values else values


def one_walk_b(g):
    """(monic b, raw leading) from one walk of all of f* at `_point(f)`:
    the oracle of `bfunction`'s split into variable-disjoint factors."""
    f, fstar = discriminant(g), discriminant(dual_generators(g))
    b_raw = bernstein._pointwise_b(fstar, f, bernstein._point(f))
    return b_raw.monic(), b_raw.leading()


def dual_characters_agree(g):
    """dchi_f(A) - dchi_f*(A) = 2 tr(A) on every generator, where f* is the
    discriminant of the dual set {-A^t}, and dchi_f* = -dchi_f when the
    divisor is special.  Both characters come from the delta_A oracle and
    must equal `character`; the traces come from the dense `g.matrices()`."""
    dual = dual_generators(g)
    cf = delta_character(g, discriminant(g))
    cfs = delta_character(dual, discriminant(dual))
    return (cf, cfs) == (character(g), character(dual)) and \
        all(a - b == 2 * t for a, b, t in zip(cf, cfs, map(trace, g.matrices()))) and \
        (not is_special(g, cf) or cfs == tuple(-v for v in cf))


def dual_rows_agree(g):
    """The rows that `dual_generators` maps from g against the rows of a
    fresh independence proof on the dual forms: both keep the pivot
    property, and `validate_algebra` and `character` read the same from
    both (the first open bracket, else the character values)."""
    d = dual_generators(g)
    fresh = GeneratorSet._from_forms(d.forms, d.variables)

    def verdict(h):
        pair = validate_algebra(h)
        return pair, character(h) if pair is None else None

    pivots = [p for p, _ in d.rows]
    return len(d.rows) == d.n and \
        all((E.get(q, 0) != 0) == (q == p) for p, E in d.rows for q in pivots) and \
        verdict(d) == verdict(fresh)


def ref_structure_constants(g):
    """c[i][j] = (c^k_ij for each k), Fractions with [A_i, A_j] =
    sum_k c^k_ij A_k, or None when some bracket leaves the span.

    `linalg.echelon` reduces the rows [M_k | e_k] of the integer forms
    A_k = s_k M_k, column i*n + j holding M_ij and n*n + k holding e_k.
    Scaled to the common pivot value D, its rows E_r = sum_k T_rk M_k have
    E_r[p_s] = D delta_rs and T_rk = E_r[n*n + k].  The integer bracket
    b = [M_i, M_j] is in the span iff D b = sum_r b[p_r] E_r on the flat
    block, and then c^k_ij = s_i s_j y_k / (D s_k) with
    y = sum_r b[p_r] T_r."""
    n, size = g.n, g.n * g.n
    rows = echelon({i * n + j: a for i, r in enumerate(form) for j, a in r}
                   | {size + k: 1} for k, (form, _) in enumerate(g.forms))
    D = lcm(*(E[p] for p, E in rows))
    basis = [(p, {c: v * (D // E[p]) for c, v in E.items()}) for p, E in rows]
    ints = []
    for rows, _ in g.forms:
        M = [[0] * n for _ in range(n)]
        for i, row in enumerate(rows):
            for j, a in row:
                M[i][j] = a
        ints.append(M)
    c = [[(Fraction(0),) * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            ab, ba = int_product(ints[i], ints[j]), int_product(ints[j], ints[i])
            b = [x - y for ra, rb in zip(ab, ba) for x, y in zip(ra, rb)]
            if any(D * b[col] != sum(b[p] * E.get(col, 0) for p, E in basis)
                   for col in range(size)):
                return None
            sij = g.forms[i][1] * g.forms[j][1]
            c[i][j] = tuple(sij * sum(b[p] * E.get(size + k, 0) for p, E in basis)
                            / (D * s) for k, (_, s) in enumerate(g.forms))
            c[j][i] = tuple(-v for v in c[i][j])
    return c


# -- normal-ordered first-order operators and the Fourier identity -------
# An operator sum_{i,j} C[i][j] x_i d_j + c0 + c1 s is the triple (C, c0, c1).

def q_operator(A, t):
    """Q_A(s) = delta_A - t s, with delta_A = sum A[i][j] x_j d_i."""
    return transpose(frac_matrix(A)), 0, -Fraction(t)


def q_dual_operator(A, t):
    """Q*_A(s) = delta*_A + t s on the dual side."""
    return mat_scale(frac_matrix(A), -1), 0, Fraction(t)


def fourier_transform(op):
    """x -> -d, d -> y, then normal order: reordering d_i y_i = y_i d_i + 1
    shifts the constant term by the trace."""
    C, c0, c1 = op
    return mat_scale(transpose(C), -1), c0 - trace(C), c1


def substitute_s(op, a, b):
    """s -> a s + b in the scalar part."""
    C, c0, c1 = op
    return C, c0 + c1 * b, c1 * a


def fourier_holds(A, t=None):
    """Is F(Q_A(s)) = Q*_A(-s-1)?  Exactly when t = tr A, the default."""
    t = trace(frac_matrix(A)) if t is None else t
    return fourier_transform(q_operator(A, t)) == \
        substitute_s(q_dual_operator(A, t), -1, -1)


# -- dense generators of a quiver ----------------------------------------

def ref_quiver_matrices(quiver, d):
    """The generators of Rep(quiver, d) as dense Fraction matrices: E_rc at
    each vertex acts by phi |-> E_rc phi on the arrows into the vertex and
    by phi |-> -phi E_rc on the arrows out of it, arrow blocks row-major in
    edge order.  Asserts that the center, the sum of the diagonal E_rr,
    acts by zero, and drops the last diagonal E_rr of the last vertex."""
    blocks, nv = [], 0
    for a, b in quiver.edges:
        blocks.append((nv, d[b], d[a]))
        nv += d[b] * d[a]
    mats = []
    center = [[Fraction(0)] * nv for _ in range(nv)]
    for v in quiver.vertices:
        for r in range(d[v]):
            for c in range(d[v]):
                M = [[Fraction(0)] * nv for _ in range(nv)]
                for (a, b), (off, rows, cols) in zip(quiver.edges, blocks):
                    if b == v:
                        for j in range(cols):
                            M[off + r * cols + j][off + c * cols + j] += 1
                    if a == v:
                        for i in range(rows):
                            M[off + i * cols + c][off + i * cols + r] -= 1
                if r == c:
                    center = mat_add(center, M)
                mats.append(M)
    assert not any(any(row) for row in center), "the center acts by zero"
    return mats[:-1]


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
    mats = g.matrices()
    return [combination(cs, mats) for cs in ctx.isotropy_coeffs]


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
    return columns_determinant(ref_normal_representation(g, ctx), names)


def ref_annihilator_basis(g, c):
    return [combination(cs, g.matrices()) for cs in ref_nullspace([list(c)])]


def ref_euler_witness(g, c, ctx):
    """B / dchi(B) for the first isotropy element B with dchi(B) != 0."""
    for cs in ctx.isotropy_coeffs:
        val = sum(a * v for a, v in zip(cs, c))
        if val:
            B = combination(cs, g.matrices())
            return tuple(tuple(v / val for v in row) for row in B)
    return None


def ref_strong_euler(g, c, x0):
    """Is A_1 x0 in the span of {B x0} over the dense annihilator basis?"""
    if c[0] != 1:
        raise DomainError("first generator must have character value 1")
    x0 = [Fraction(v) for v in x0]
    images = [mat_vec(B, x0) for B in ref_annihilator_basis(g, c)]
    return ref_in_span(images, mat_vec(g.matrix(0), x0)) is not None


def fraction_shift(p, point):
    """p(point + x) by `ref_poly_shift` on the Fraction terms of p."""
    return MultiPoly(p.variables, ref_poly_shift(p.terms, point))


def restrict(p, keep):
    """p with the variables outside `keep` set to zero, on the kept ones."""
    return MultiPoly(tuple(p.variables[i] for i in keep),
                     {tuple(e[i] for i in keep): c for e, c in p.terms.items()
                      if not any(v for i, v in enumerate(e) if i not in keep)})


def ref_packed(p, B):
    """`polyring.packed` as it was before MultiPoly kept its integer form:
    `primitive` over the Fraction terms, each exponent tuple packed."""
    coeffs, scale = primitive(list(p.terms.values()))
    return [(sum(x << B * i for i, x in enumerate(e)), c)
            for e, c in zip(p.terms, coeffs)], scale


# -- multivariate polynomials as {exponent tuple: Fraction} dicts ---------
# Each takes and returns such a dict, with no zero value: the arithmetic
# MultiPoly ran on before it kept its content-free integer form.

def ref_poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def ref_poly_mul(a, b):
    """a times the dict b, or times the scalar b."""
    if not isinstance(b, dict):
        return {e: Fraction(b) * c for e, c in a.items() if b}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + Fraction(c1) * c2
    return {e: c for e, c in out.items() if c}


def ref_poly_derivative(a, i):
    """d/dx_i of a."""
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
            for e, c in a.items() if e[i]}


def ref_poly_linear(coeffs, const=0):
    """sum coeffs_i x_i + const."""
    n = len(coeffs)
    out = {tuple(int(i == j) for j in range(n)): Fraction(c)
           for i, c in enumerate(coeffs)}
    out[(0,) * n] = Fraction(const)
    return {e: c for e, c in out.items() if c}


def ref_poly_shift(a, point):
    """a(point + x), one factor x_i + point_i at a time."""
    n = len(point)
    out = {}
    for e, c in a.items():
        term = {(0,) * n: Fraction(c)}
        for i, k in enumerate(e):
            lin = ref_poly_linear([int(i == j) for j in range(n)], point[i])
            for _ in range(k):
                term = ref_poly_mul(term, lin)
        out = ref_poly_add(out, term)
    return out


# -- univariate polynomials as Fraction coefficient lists -----------------
# Each takes and returns a tuple of Fractions, lowest degree first, with
# no trailing zero: the arithmetic UniPoly ran on before it kept its
# content-free integer form.

def ref_trim(coeffs):
    cs = [Fraction(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return ref_trim(out)


def ref_neg(a):
    return tuple(-c for c in a)


def ref_mul(a, b):
    """a times the coefficient list b, or times the scalar b."""
    if not isinstance(b, tuple):
        return ref_trim([Fraction(b) * v for v in a])
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_pow(a, k):
    out = (Fraction(1),)
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_monic(a):
    return tuple(c / a[-1] for c in a)


def ref_derivative(a):
    return ref_trim([c * i for i, c in enumerate(a)][1:])


def ref_evaluate(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_compose_linear(p, a, b):
    """p(a*s + b) by Horner over Q[s]."""
    lin = ref_trim((b, a))
    acc = ()
    for c in reversed(p):
        acc = ref_add(ref_mul(acc, lin), (Fraction(c),))
    return acc


def ref_divmod(a, d):
    rem = list(a)
    q = [Fraction(0)] * max(len(rem) - len(d) + 1, 0)
    while len(rem) >= len(d) and any(rem):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(d):
            break
        f = rem[-1] / d[-1]
        shift = len(rem) - len(d)
        q[shift] = f
        for i, c in enumerate(d):
            rem[shift + i] -= f * c
        rem.pop()
    return ref_trim(q), ref_trim(rem)


def ref_gcd(a, b):
    """Monic gcd by Euclid's algorithm over Q; () for two zeros."""
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_restrict_line(p, a, b):
    """p(a + t*b) for a MultiPoly p, one factor (a_i + t b_i) at a time."""
    a = [Fraction(x) for x in a]
    b = [Fraction(x) for x in b]
    acc = [Fraction(0)]
    for e, c in p.terms.items():
        term = [c]
        for i, k in enumerate(e):
            for _ in range(k):
                nxt = [Fraction(0)] * (len(term) + 1)
                for j, v in enumerate(term):
                    nxt[j] += v * a[i]
                    nxt[j + 1] += v * b[i]
                term = nxt
        acc.extend([Fraction(0)] * (len(term) - len(acc)))
        for j, v in enumerate(term):
            acc[j] += v
    return ref_trim(acc)


_REF_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([s()^*+-]))")


def ref_parse_factored(text):
    """The Fraction recursive descent that `parse_factored` replaced: a
    (kind, Fraction) token list, then a Fraction coefficient tuple for
    every atom, sum, product and power, with the same degree and depth
    caps; the UniPoly of the result."""
    tokens, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _REF_TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character in polynomial at position {pos}: {text[pos:]!r}")
        num, sym = m.groups()
        tokens.append(("num", parse_rational(num)) if num is not None else (sym, None))
        pos = m.end()
    depth = 0
    for kind, _ in tokens:
        depth += (kind == "(") - (kind == ")")
        if depth > polyring.MAX_PARSED_DEPTH:
            raise ParseError("parentheses nested deeper than the limit")
    pos = 0

    def capped(degree):
        if degree > polyring.MAX_PARSED_DEGREE:
            raise CapacityError(f"degree or exponent {degree} exceeds the limit")

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(kind=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of polynomial string")
        tok = tokens[pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}")
        pos += 1
        return tok

    def parse_sum():
        negate = peek() in ("+", "-") and take()[0] == "-"
        acc = parse_product()
        if negate:
            acc = ref_neg(acc)
        while peek() in ("+", "-"):
            op = take()[0]
            term = parse_product()
            acc = ref_add(acc, term if op == "+" else ref_neg(term))
        return acc

    def parse_product():
        acc = parse_factor()
        while True:
            if peek() == "*":
                take()
            elif peek() not in ("num", "s", "("):
                return acc
            factor = parse_factor()
            capped(max(len(acc) - 1, 0) + max(len(factor) - 1, 0))
            acc = ref_mul(acc, factor)

    def parse_factor():
        atom = parse_atom()
        if peek() == "^":
            take()
            k = take("num")[1]
            if k.denominator != 1:
                raise ParseError("exponent must be a nonnegative integer")
            capped(int(k) * max(len(atom) - 1, 1))
            atom = ref_pow(atom, int(k))
        return atom

    def parse_atom():
        kind, value = take()
        if kind == "(":
            inner = parse_sum()
            take(")")
            return inner
        if kind == "num":
            return ref_trim([value])
        if kind == "s":
            return (Fraction(0), Fraction(1))
        raise ParseError(f"unexpected token {kind!r} in polynomial string")

    result = parse_sum()
    if pos != len(tokens):
        raise ParseError(f"trailing input in polynomial string: {tokens[pos:]}")
    return UniPoly(result)


def chain_expanded(factors):
    """(exit code, report) of `chain --json` on the texts factors by the
    route it replaced: each text expanded by `parse_factored`, and the
    roots searched on the assembled product."""
    try:
        asm = chain_assemble([parse_factored(text) for text in factors])
        sp = rational_root_spectrum(asm)
    except PrehomogError as exc:
        return 1, f"error: {exc}"
    return 0, json.dumps({"command": "chain",
                          "monic_coefficients": unipoly_to_json(asm),
                          "roots": spectrum_roots_to_json(sp),
                          "residual": unipoly_to_json(sp.residual)}, indent=2)


def random_chain_list(rng):
    """(texts, traits): a seeded `chain` argument list with small end
    terms, and the traits it shows among "negative_leading", "sum",
    "shared_root", "exponent_zero", "residual".  Each text is a product of
    powers of linear factors (q s + p) of either sign, quadratics (one the
    product of a linear factor of the list with another, one without a
    rational root) and constants, or a bare top-level sum; a leading "-"
    negates a whole text."""
    linear = [(rng.randint(1, 4) * rng.choice((1, -1)), rng.randint(-6, 6))
              for _ in range(rng.randint(1, 4))]
    traits = set()

    def lin(q, p):
        return f"{q}s{p:+d}"

    def power():
        r = rng.random()
        if r < 0.5:
            q, p = rng.choice(linear)
            traits.update(["negative_leading"] if q < 0 else [])
            base = f"({lin(q, p)})"
        elif r < 0.7:
            (q, p), (u, v) = rng.choice(linear), (rng.randint(1, 3), rng.randint(-4, 4))
            traits.add("shared_root")
            base = f"({q * u}s^2{q * v + p * u:+d}s{p * v:+d})"
        elif r < 0.85:
            traits.add("residual")
            base = f"(s^2{rng.choice((1, 2, 3, 5)):+d})"
        else:
            base = rng.choice(["3", "2/5", "7"])
        k = rng.choice(["", "", "^2", "^3", "^0"])
        traits.update(["exponent_zero"] if k == "^0" else [])
        return base + k

    texts = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.2:
            traits.add("sum")
            text = f"{lin(*rng.choice(linear))}+{rng.randint(0, 3)}"
        else:
            text = "*".join(power() for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.2:
            traits.add("negative_leading")
            text = "-" + text
        texts.append(text)
    return texts, traits


# ---------------------------------------------------------------------
# published b-function data: the star chain's edge factors and the
# catalogue (dimension <= 4, plus the reduced discriminant families)
# that the symmetry checks read.

def from_roots(roots):
    """The monic product of (s - r) over the roots, as a UniPoly."""
    p = UniPoly.one()
    for r in roots:
        p = p * UniPoly((-Fraction(r), 1))
    return p


def star_edge_factors():
    """b-function factors along the star chain.  The degree-3 factor at
    the codimension-3 drop is catalogue data, not a codim-1 ratio."""
    return [
        parse_factored("s+1"),
        parse_factored("s+1"),
        parse_factored("(3s+2)(3s+3)(3s+4)"),
        parse_factored("s+1"),
    ]


def table_spectra():
    """The nine catalogued monic b-functions in dimension up to 4."""
    rows = [
        ("x", ["-1"]),
        ("xy", ["-1", "-1"]),
        ("xyz", ["-1", "-1", "-1"]),
        ("(y^2+xz)z", ["-5/4", "-1", "-1", "-3/4"]),
        ("xyzw", ["-1", "-1", "-1", "-1"]),
        ("(y^2+xz)zw", ["-5/4", "-1", "-1", "-1", "-3/4"]),
        ("(yz+xw)zw", ["-4/3", "-1", "-1", "-1", "-2/3"]),
        ("x(y^3-3xyz+3x^2w)",
         ["-7/5", "-4/3", "-6/5", "-1", "-1", "-1", "-4/5", "-2/3", "-3/5"]),
        ("binary-cubic-discriminant", ["-7/6", "-1", "-1", "-5/6"]),
    ]
    return [(label, from_roots(roots)) for label, roots in rows]


def reduced_discriminant_bfunctions():
    """b-functions of the reduced discriminants of the nonreduced
    quiver families; these are the catalogued non-symmetric examples."""
    out = [("dtilde3-reduced", parse_factored("(s+2/3)(s+1)^5(s+4/3)(s+2)"))]
    for n in (2, 3, 4):
        out.append((f"atilde-{n}-reduced",
                    parse_factored(f"(s+1)^{n}(s+2)")))
    return out

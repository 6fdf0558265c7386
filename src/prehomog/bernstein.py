"""The b-function engine.

Implements the functional equation f*(d/dx) f^{s+1} = b(s) f^s by
symbolic differentiation of symbolic powers: states are expressions
f^{s+1-k} * P with P in Q[s][x].  Derivations raise k by one; after n
derivations (n = deg f) the accumulated state is f^{s+1-n} * Q, and the
equation holds exactly when Q = b(s) f^{n-1}.

`bfunction` certifies that identity before it computes anything and then
reads b(s) off one integer point.  With chi the character of f and chi*
that of f* under the dual generators {-A^t}, [delta_A, f*(d)] acts on the
symbol as delta_{-A^t}, so F = Q / f^{n-1} satisfies
delta_A F = (chi + chi*)(A) F.  The fields delta_{A_k} span every
derivation where f != 0 (Saito's criterion), so F is constant in x
exactly when chi + chi* vanishes on every generator.  Both characters
are tr A - tr ad A with the same structure constants, up to the sign of
the trace, so chi + chi* = 2 (chi - tr): the certificate is specialness.
A special input has Q = b(s) f^{n-1}, so b(s) = Q(x0) / f(x0)^{n-1} at any
x0 with f(x0) != 0.  A non-special input fails the equation; that is a
first-class result, not an exception.

When f = lam prod_b f_b and f* = mu prod_b f*_b over the same disjoint
blocks of variables, with deg f_b = deg f*_b, the equation splits too:
f*(d) f^{s+1} / f^s = lam mu prod_b f*_b(d_b) f_b^{s+1} / f_b^s.  The
left side is the constant b(s) and each quotient on the right depends on
its own block of variables, so each is a constant b_b(s) (or one of them
is 0) and b = lam mu prod_b b_b: the b-function of several relative
invariants (M. Sato, Nagoya Math. J. 120, 1990).  `_blocks` proposes the
finest such blocks from supp f alone; `_split` proves the product on the
integer forms of f and f*, exactly, and any failed check leaves one block.

There is one walk, `_walk`, run once per block: derivations commute, so
it walks the monomials of f*_b as a trie over the variables, on packed
integers.  Each prefix of derivations shared by several monomials is done
once, and each variable that has a value in x0 is set as soon as its last
derivation is done.  `bfunction` gives every variable a value.
`apply_operator` gives none, so it builds the whole k = n state, and
`extract_cofactor` proves Q = b(s) f^{n-1} on it by exact division, with
no power of f: each s-slice of Q is a multiple of the top one, and the
top one divided by f n-1 times leaves a constant.  That is the full-state
route, kept public as the reference the pointwise route is compared with.
The Fraction engine in tests/test_bernstein.py, one literal derivation at
a time, is the independent check of the walk itself.
"""

from fractions import Fraction
from math import prod

from . import liealg
from .errors import ContextError, DomainError
from .polyring import (MultiPoly, Spectrum, UniPoly, _Value, _balanced_digits,
                       _exact, _monomial, _quotient, exponent_bits, packed,
                       primitive, rational_root_spectrum, unpack)


class SPowerExpression(_Value):
    """f^{s+1-k} * P with P sparse in x and dense in s: the result record
    of `apply_operator` and the input of `extract_cofactor`.

    terms maps exponent tuples to tuples of rationals (s-coefficients,
    lowest degree first, trailing zeros trimmed), made exact by `_exact`:
    ints stay ints, the rest become Fractions.  deg_s P <= k always.
    """

    __slots__ = ("variables", "k", "terms")

    def __init__(self, variables, k, terms):
        variables = tuple(variables)
        if k < 0:
            raise DomainError("power offset must be nonnegative")
        clean = {}
        for exps, sc in terms.items():
            exps, sc = _monomial(exps, len(variables)), list(sc)
            while sc and not sc[-1]:
                sc.pop()
            if not sc:
                continue
            if len(sc) - 1 > k:
                raise DomainError("s-degree exceeds the power offset")
            clean[exps] = tuple(map(_exact, sc))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", clean)

    @property
    def is_zero(self):
        return not self.terms

    def __repr__(self):
        return f"SPowerExpression(k={self.k}, terms={len(self.terms)})"


class BResult:
    """Successful functional equation: b monic, with diagnostics."""

    __slots__ = ("b", "raw_leading", "spectrum", "special", "symmetric")
    functional_equation_held = True

    def __init__(self, b: UniPoly, raw_leading: Fraction, spectrum: Spectrum,
                 special=None, symmetric=None):
        self.b = b
        self.raw_leading = raw_leading
        self.spectrum = spectrum
        self.special = special
        self.symmetric = symmetric

    def __repr__(self):
        return f"BResult(b={self.b}, raw_leading={self.raw_leading})"


class BFailure:
    """Negative verdict: the functional equation does not hold."""

    __slots__ = ("reason", "detail", "special")
    functional_equation_held = False

    def __init__(self, reason, detail="", special=None):
        self.reason = reason  # "functional-equation" or "dual-degenerate"
        self.detail = detail
        self.special = special

    def message(self):
        if self.reason == "dual-degenerate":
            return "dual determinant vanishes identically (f* = 0)"
        return "functional equation does not hold"

    def __repr__(self):
        return f"BFailure({self.reason}: {self.detail})"


# ---------------------------------------------------------------------
# the derivation engine: packed exponents and Kronecker-packed s-polynomials

def _derivative(terms, shift, mask):
    """d/dv of packed pairs, v at bit `shift`: each term with e_v > 0
    becomes (e - x_v, c e_v), and none collide."""
    return [(e - (1 << shift), c * ((e >> shift) & mask))
            for e, c in terms if (e >> shift) & mask]


def _int_step(P, k, fv, f, shift, mask, W):
    """d/dv (f^{s+1-k} P) = f^{s-k} ((s+1-k) f_v P + f dP/dv) on packed
    terms: P maps packed exponents to P_e(2^W), v sits at bit `shift`."""
    out = {}
    get = out.get
    c0 = 1 - k
    unit = 1 << shift
    for e1, V in P.items():
        lifted = (V << W) + c0 * V          # (s + 1 - k) * P_e at s = 2^W
        for e2, c2 in fv:
            e = e1 + e2
            out[e] = get(e, 0) + c2 * lifted
        mult = (e1 >> shift) & mask
        if mult:
            dV = mult * V
            de1 = e1 - unit
            for e2, c2 in f:
                e = de1 + e2
                out[e] = get(e, 0) + c2 * dV
    return {e: V for e, V in out.items() if V}


def _slot_width(monomials, f):
    """Bits per s-slot that provably hold every coefficient of the result.

    N bounds the l1 norm of P_k over x and s together:
    ||(s+1-k) f_v P + f dP/dv|| <= ((1+|1-k|) ||f_v|| + deg_v(P) ||f||) ||P||,
    and deg_v(P_k) <= k deg_v(f).  The terms of f_v are those of f with
    e_v > 0, so ||f_v|| = sum |c| e_v.  With ||f_v|| and deg_v f bounded
    by their maxima over v, step k has one factor for every monomial of
    f*, so the merged state sum c_alpha P_alpha is bounded by ||f*||_1
    times one product over k = 0..n-1.
    """
    alpha = monomials[0][0]
    f_int = [(e, abs(c)) for e, c in f.ints.items()]
    norm_f = sum(c for _, c in f_int)
    norm_fv = max(sum(e[vi] * c for e, c in f_int) for vi in range(len(alpha)))
    deg_f = max(max(e) for e, _ in f_int)
    N = sum(abs(c) for _, c in monomials)
    for k in range(sum(alpha)):
        N *= (1 + abs(1 - k)) * norm_fv + k * deg_f * norm_f
    return N.bit_length() + 2


def _substitute(terms, shift, a, mask):
    """{packed e: value} of the pairs `terms` with the variable at bit
    `shift` set to a."""
    out = {}
    get = out.get
    for e, V in terms:
        d = (e >> shift) & mask
        if d:
            if not a:
                continue
            e -= d << shift
            V *= a ** d
        out[e] = get(e, 0) + V
    return {e: V for e, V in out.items() if V}


def _walk(fstar: MultiPoly, f: MultiPoly, x0):
    """(total, W, scale): f*(d/dx) f^{s+1} = f^{s+1-n} scale Q, where Q has
    every variable v with x0[v] not None set to x0[v] and total holds Q as
    {packed e: Q_e(2^W)}.  With no variable set, Q is the k = n state.

    Derivations commute, so the monomials of f* are walked as a trie over
    the variables in the order "x0_v = 0 first", and a zero coordinate
    prunes the state early.  At depth d, with v = order[d], the monomials
    are grouped by alpha_v; f_v is formed once and the shared state is
    derived t = 1, ..., max alpha_v times.  After each t that a group
    uses, v is set to x0_v in that state and in f, and the group is walked
    below it.  A leaf holds one monomial alpha and adds c_alpha times its
    state to total.  Q is homogeneous of degree n(n-1), so setting
    variables multiplies the l1 bound of `_slot_width` by at most
    R^(n(n-1)), R = max |x0_v| over the set variables.
    """
    n = f.degree()
    B = exponent_bits(n * (n - 1))
    mask = (1 << B) - 1
    f_packed, f_scale = packed(f, B)
    monomials = list(fstar.ints.items())
    R = max((abs(a) for a in x0 if a is not None), default=0)
    W = _slot_width(monomials, f) + (R ** (n * (n - 1))).bit_length()

    order = sorted(range(len(x0)), key=lambda v: x0[v] != 0)
    total = {}

    def descend(d, group, P, k, f_d):
        if d == len(order):
            ((_, c_alpha),) = group
            for e, V in P.items():
                total[e] = total.get(e, 0) + c_alpha * V
            return
        v = order[d]
        shift, a = B * v, x0[v]
        by_t = {}
        for alpha, c in group:
            by_t.setdefault(alpha[v], []).append((alpha, c))
        fv = _derivative(f_d, shift, mask)
        f_set = f_d if a is None else list(_substitute(f_d, shift, a, mask).items())
        for t in range(max(by_t) + 1):
            if t:
                P = _int_step(P, k, fv, f_d, shift, mask, W)
                k += 1
            if t in by_t:
                descend(d + 1, by_t[t],
                        P if a is None else _substitute(P.items(), shift, a, mask),
                        k, f_set)

    descend(0, monomials, {0: 1}, 0, f_packed)
    del descend     # it refers to itself: free it now, not at a collection
    return total, W, fstar.scale * f_scale ** n


def apply_operator(fstar: MultiPoly, f: MultiPoly) -> SPowerExpression:
    """Apply f*(d/dx) to f^{s+1}; returns the k = deg f state.

    The dual variables of fstar map to f's variables positionally.  The
    engine runs on the content-free integer forms of f and f* and restores
    the scale exactly at the end: it is `_walk` with no variable set.

    A state term is one pair of Python ints.  The exponent vector is packed
    with B = exponent_bits(n(n-1)) bits per variable (n = deg f): a state at
    offset k has total degree k(n-1) <= n(n-1), so no slot ever carries,
    adding monomials is one int add and d/dx_i subtracts 1 << B*i.  The
    s-polynomial P is stored as its value P(2^W) (Kronecker substitution),
    so multiplying by (s + 1 - k) is a shift and an add.  Every value is
    exact in Z, so only the final unpacking into balanced base-2^W digits
    needs W, which `_slot_width` proves large enough from an l1 bound on
    the coefficient growth before the walk starts.
    """
    if f.is_zero or fstar.is_zero:
        raise DomainError("f and f* must be nonzero")
    if len(fstar.variables) != len(f.variables):
        raise ContextError("f and f* must have the same number of variables")
    if not f.is_homogeneous() or not fstar.is_homogeneous():
        raise DomainError("f and f* must be homogeneous")
    n = f.degree()
    if fstar.degree() != n:
        raise DomainError(f"degree mismatch: deg f* = {fstar.degree()}, deg f = {n}")
    nvars = len(f.variables)
    total, W, mult = _walk(fstar, f, [None] * nvars)
    if mult.denominator == 1:
        mult = mult.numerator   # integer state: no Fraction per coefficient
    B = exponent_bits(n * (n - 1))
    terms = {unpack(e, B, nvars): [mult * v for v in _balanced_digits(V, W)]
             for e, V in total.items()}
    return SPowerExpression(f.variables, n, terms)


def extract_cofactor(q: SPowerExpression, f: MultiPoly):
    """Divide the k = n state by f^{n-1}: on success the quotient is b(s).

    With T the top s-slice of Q (T_e the top coefficient of Q_e(s)),
    Q = b(s) f^{n-1} exactly when every Q_e(s) is T_e times one
    s-polynomial p(s), and T is a constant c times f^{n-1}: T, made
    content-free, divides by f (`_quotient`, exact on the integer forms)
    n-1 times down to one constant monomial.  Then b = c p, and no power
    of f is built.  Any failed check returns a BFailure, the expected
    outcome for non-special inputs.
    """
    if f.is_zero:
        raise DomainError("f must be nonzero")
    if not f.is_homogeneous():
        raise DomainError("f must be homogeneous")
    n = f.degree()
    if q.k != n:
        raise DomainError(f"expression offset {q.k} does not match deg f = {n}")
    if q.variables != f.variables:
        raise ContextError("variable context mismatch")
    if q.is_zero:
        return BFailure("functional-equation", "operator annihilated f^{s+1}")

    q0 = max(q.terms.values(), key=len)
    for e, sc in q.terms.items():
        # Q_e T_0 == Q_0 T_e on trimmed s-lists: a shorter Q_e gives a
        # shorter list, so every term reaches the top s-slice
        if [q0[-1] * v for v in sc] != [sc[-1] * v for v in q0]:
            return BFailure("functional-equation",
                            f"not a multiple of the top s-slice at monomial {e}")
    ints, scale = primitive([sc[-1] for sc in q.terms.values()])
    t = dict(zip(q.terms, ints))
    for _ in range(n - 1):
        t = _quotient(t, f.ints) or {}      # None (f does not divide) ends it
    if t.keys() != {(0,) * len(f.variables)}:
        return BFailure("functional-equation",
                        "top s-slice is not a multiple of f^(n-1)")
    ratio = scale * t.popitem()[1] / (f.scale ** (n - 1) * q0[-1])
    b_raw = UniPoly([v * ratio for v in q0])
    b = b_raw.monic()
    return BResult(b, b_raw.leading(), rational_root_spectrum(b))


# ---------------------------------------------------------------------
# the pointwise route: b(s) = Q(x0) / f(x0)^(n-1) for a certified input

def _point(f: MultiPoly):
    """Greedy integer point with f(x0) != 0.

    Coordinate by coordinate, keep the first of 0, 1, ..., n that leaves f
    nonzero in the variables still free.  deg_v f <= n, so at most n values
    of x_v make that restriction vanish (Alon's Combinatorial
    Nullstellensatz) and the search always succeeds.
    """
    n = f.degree()
    B = exponent_bits(n * (n - 1))
    mask = (1 << B) - 1
    terms = packed(f, B)[0]
    x0 = []
    for v in range(len(f.variables)):
        for a in range(n + 1):
            rest = _substitute(terms, B * v, a, mask)
            if rest:
                break
        x0.append(a)
        terms = list(rest.items())
    return x0


def _pointwise_b(fstar: MultiPoly, f: MultiPoly, x0):
    """The raw b(s) = Q(x0) / f(x0)^(n-1), or None when Q(x0) = 0.

    Exact only when Q = b(s) f^(n-1), which `bfunction` certifies first.
    """
    f0 = f.evaluate(x0)
    if not f0:
        raise DomainError("f vanishes at the evaluation point")
    total, W, scale = _walk(fstar, f, x0)
    if not total.get(0):
        return None
    scale /= f0 ** (f.degree() - 1)
    return UniPoly._form(_balanced_digits(total[0], W), scale)


def _blocks(ints):
    """The proposed blocks of variables over which supp f is a product,
    each a sorted index list, or None when fewer than two blocks are
    multi-term.

    A union-find over the variables, from the base monomial m0 = min(supp):
    the monomials are visited by how many variables they differ from m0
    in, and one whose deviation is not made of in-support deviations on
    the current blocks merges the blocks it touches.  The variables that
    never deviate carry a single-monomial factor, which multiplies no trie
    paths, so they join the first multi-term block.  The blocks are only
    a proposal: `_split` proves them.
    """
    m0 = min(ints)
    nv = len(m0)
    root = list(range(nv))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    moves = sorted((([v for v in range(nv) if e[v] != m0[v]], e) for e in ints),
                   key=lambda m: len(m[0]))
    varying = set()
    for dev, e in moves:
        varying.update(dev)
        touched = {}
        for v in dev:
            touched.setdefault(find(v), []).append(v)
        if len(touched) < 2:
            continue
        for part in touched.values():
            d = list(m0)
            for v in part:
                d[v] = e[v]
            if tuple(d) not in ints:
                r, *rest = touched
                for t in rest:
                    root[t] = r
                break
    blocks = {}
    for v in range(nv):
        blocks.setdefault(find(v), []).append(v)
    multi = [b for b in blocks.values() if varying.intersection(b)]
    if len(multi) < 2:
        return None
    multi[0] = sorted(multi[0] + [v for v in range(nv) if v not in varying])
    return multi


def _split(p: MultiPoly, blocks):
    """(lam, [p_b]) with p = lam * prod_b p_b and p_b in the variables of
    block b alone, or None unless that identity holds exactly.

    With m0 = min(supp p), m blocks and alpha^(b) the monomial m0 with
    block b replaced by alpha's entries, p_b = sum_beta c_(m0 | beta) x_b^beta
    over the projection of supp p on b.  The split holds iff supp p is the
    product of its projections, |supp p| = prod_b |pi_b(supp p)|, and
    c_alpha c_m0^(m-1) = prod_b c_(alpha^(b)) for every alpha; then
    lam = p.scale / c_m0^(m-1)."""
    ints = p.ints
    m0 = min(ints)
    c0 = ints[m0] ** (len(blocks) - 1)
    proj = [{} for _ in blocks]
    for e, c in ints.items():
        rhs = 1
        for idx, P in zip(blocks, proj):
            beta = tuple([e[i] for i in idx])
            cb = P.get(beta)
            if cb is None:
                d = list(m0)
                for i in idx:
                    d[i] = e[i]
                cb = P[beta] = ints.get(tuple(d))
                if cb is None:
                    return None
            rhs *= cb
        if c * c0 != rhs:
            return None
    if prod(map(len, proj)) != len(ints):
        return None
    return p.scale / c0, [
        MultiPoly._form(tuple(p.variables[i] for i in idx), P, Fraction(1))
        for idx, P in zip(blocks, proj)]


def _factors(f: MultiPoly, fstar: MultiPoly):
    """(lam mu, [(indices, f_b, f*_b)]): f = lam prod f_b and
    f* = mu prod f*_b over the same variable-disjoint blocks, with
    deg f_b = deg f*_b; (1, [(all, f, f*)]) when nothing splits."""
    blocks = _blocks(f.ints)
    if blocks is not None:
        split, split_star = _split(f, blocks), _split(fstar, blocks)
        if split and split_star and all(
                a.degree() == b.degree() for a, b in zip(split[1], split_star[1])):
            return split[0] * split_star[0], list(zip(blocks, split[1], split_star[1]))
    return 1, [(range(len(f.variables)), f, fstar)]


def bfunction(g: liealg.GeneratorSet):
    """Full pipeline: closure and character, discriminant, dual, then b(s).

    Returns BResult on success, BFailure when the functional equation
    fails or the dual determinant vanishes.  A non-special input fails
    without any derivation.  A special one is split by `_factors` into
    f = lam prod f_b and f* = mu prod f*_b over variable-disjoint blocks
    (one block when the exact checks refuse a split), each block is walked
    at `_point(f)` restricted to it, and b = lam mu prod b_b.  Specialness
    makes f*(d) f^{s+1} / f^s constant, so each block's quotient, which
    depends on that block's variables alone, is constant too.
    """
    c = liealg.character(g)
    f = liealg.discriminant(g)
    if f.is_zero:
        raise DomainError("discriminant vanishes; not prehomogeneous")
    special = liealg.is_special(g, c)
    fstar = liealg.discriminant(liealg.dual_generators(g))
    if fstar.is_zero:
        return BFailure("dual-degenerate", "f* = 0", special=special)
    if not special:
        return BFailure("functional-equation",
                        "chi + chi* != 0, so f*(d) f^{s+1} / f^s is not constant",
                        special=special)
    x0 = _point(f)
    lam, factors = _factors(f, fstar)
    b_raw = UniPoly.constant(lam)
    for idx, f_b, fstar_b in factors:
        b_b = _pointwise_b(fstar_b, f_b, [x0[i] for i in idx])
        if b_b is None:
            return BFailure("functional-equation", "operator annihilated f^{s+1}",
                            special=special)
        b_raw *= b_b
    b = b_raw.monic()
    return BResult(b, b_raw.leading(), rational_root_spectrum(b), special,
                   symmetry_check(b))


def symmetry_check(b: UniPoly) -> bool:
    """Monic b(s) against (-1)^d * b(-s-2): root symmetry about -1."""
    if b.is_zero:
        raise DomainError("zero polynomial")
    monic = b.monic()
    d = monic.degree()
    reflected = monic.compose_linear(-1, -2) * ((-1) ** d)
    return monic == reflected

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

There is one walk, `_walk`: derivations commute, so it walks the
monomials of f* as a trie over the variables, on packed integers.  Each
prefix of derivations shared by several monomials is done once, and each
variable that has a value in x0 is set as soon as its last derivation is
done.  `bfunction` gives every variable a value.  `apply_operator` gives
none, so it builds the whole k = n state, and
`extract_cofactor` divides that by f^{n-1}: the full-state route, kept
public as the reference the pointwise route is compared with.  The
Fraction engine in tests/test_bernstein.py, one literal derivation at a
time, is the independent check of the walk itself.
"""

from fractions import Fraction

from . import liealg, linalg
from .errors import ClosureError, ContextError, DomainError
from .polyring import (MultiPoly, Spectrum, UniPoly, _coerce, _exact, packed,
                       primitive, rational_root_spectrum, unpack)


class SPowerExpression:
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
            sc = list(sc)
            while sc and not sc[-1]:
                sc.pop()
            if not sc:
                continue
            if len(sc) - 1 > k:
                raise DomainError("s-degree exceeds the power offset")
            if len(exps) != len(variables):
                raise ContextError("exponent tuple length mismatch")
            clean[tuple(exps)] = tuple(map(_exact, sc))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SPowerExpression is immutable")

    @property
    def is_zero(self):
        return not self.terms

    def coefficient(self, exps) -> UniPoly:
        return UniPoly(self.terms.get(tuple(exps), ()))

    def __eq__(self, other):
        if not isinstance(other, SPowerExpression):
            return NotImplemented
        return (self.variables, self.k, self.terms) == \
            (other.variables, other.k, other.terms)

    def __repr__(self):
        return f"SPowerExpression(k={self.k}, terms={len(self.terms)})"


class BResult:
    """Successful functional equation: b monic, with diagnostics."""

    __slots__ = ("b", "raw_leading", "spectrum", "degree", "special", "symmetric")
    functional_equation_held = True

    def __init__(self, b: UniPoly, raw_leading: Fraction, spectrum: Spectrum,
                 special=None, symmetric=None):
        self.b = b
        self.raw_leading = raw_leading
        self.spectrum = spectrum
        self.degree = b.degree()
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

def _exponent_bits(n):
    """Bits per variable of a packed exponent: deg f^(n-1) = n(n-1) fits."""
    return max(1, (n * (n - 1)).bit_length())


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


def _slot_width(monomials, f_packed, B):
    """Bits per s-slot that provably hold every coefficient of the result.

    N bounds the l1 norm of P_k over x and s together:
    ||(s+1-k) f_v P + f dP/dv|| <= ((1+|1-k|) ||f_v|| + deg_v(P) ||f||) ||P||,
    and deg_v(P_k) <= k deg_v(f) - (derivations in v so far).  The sum of
    |c_alpha| N_alpha bounds every coefficient of the merged state.  The
    terms of f_v are those of f with e_v > 0, so ||f_v|| = sum |c| e_v.
    """
    nvars = len(monomials[0][0])
    f_int = [(unpack(e, B, nvars), abs(c)) for e, c in f_packed]
    norm_f = sum(c for _, c in f_int)
    norm_fv = [sum(e[vi] * c for e, c in f_int) for vi in range(nvars)]
    deg_f = [max(e[vi] for e, _ in f_int) for vi in range(nvars)]
    bound = 0
    for alpha, c in monomials:
        N = 1
        k = 0
        for vi, times in enumerate(alpha):
            for j in range(times):
                deg_v = max(0, k * deg_f[vi] - j)
                N *= (1 + abs(1 - k)) * norm_fv[vi] + deg_v * norm_f
                k += 1
        bound += abs(c) * N
    return bound.bit_length() + 2


def _balanced_digits(V, W):
    """Coefficients of the s-polynomial whose value at s = 2^W is V."""
    full = 1 << W
    half = full >> 1
    digits = []
    while V:
        d = V & (full - 1)
        if d >= half:
            d -= full
        digits.append(d)
        V = (V - d) >> W
    return digits


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
    B = _exponent_bits(n)
    mask = (1 << B) - 1
    f_packed, f_scale = packed(f, B)
    fs_coeffs, fs_scale = primitive(fstar.terms.values())
    monomials = list(zip(fstar.terms, fs_coeffs))
    R = max((abs(a) for a in x0 if a is not None), default=0)
    W = _slot_width(monomials, f_packed, B) + (R ** (n * (n - 1))).bit_length()

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
    return total, W, fs_scale * f_scale ** n


def apply_operator(fstar: MultiPoly, f: MultiPoly) -> SPowerExpression:
    """Apply f*(d/dx) to f^{s+1}; returns the k = deg f state.

    The dual variables of fstar map to f's variables positionally.  The
    engine runs on the content-free integer forms of f and f* and restores
    the scale exactly at the end: it is `_walk` with no variable set.

    A state term is one pair of Python ints.  The exponent vector is packed
    with B = bit_length(n(n-1)) bits per variable (n = deg f): a state at
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
    B = _exponent_bits(n)
    terms = {unpack(e, B, nvars): [mult * v for v in _balanced_digits(V, W)]
             for e, V in total.items()}
    return SPowerExpression(f.variables, n, terms)


def extract_cofactor(q: SPowerExpression, f: MultiPoly):
    """Divide the k = n state by f^{n-1}: on success the quotient is b(s).

    Picks the lexicographically first monomial x^beta of f^{n-1}, reads
    b(s) = Q_beta(s) / c_beta, and verifies Q - b(s) f^{n-1} = 0 exactly.
    A nonzero residual returns a BFailure, the expected outcome for
    non-special inputs.
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

    fpow = (f ** (n - 1)).terms
    beta = min(fpow)
    c_beta = fpow[beta]
    q_beta = q.terms.get(beta)
    if q_beta is None:
        return BFailure("functional-equation",
                        "cofactor monomial missing from the operator image")

    # verify c_beta * Q == Q_beta * f^{n-1}, exactly on Q's coefficients;
    # the s-lists are trimmed and c_beta, c != 0, so equal lists mean equal
    # polynomials
    if q.terms.keys() != fpow.keys():
        return BFailure("functional-equation", "support mismatch against f^(n-1)")
    for e, c in fpow.items():
        if [c_beta * v for v in q.terms[e]] != [c * v for v in q_beta]:
            return BFailure("functional-equation",
                            f"residual nonzero at monomial {e}")

    b_raw = UniPoly([v / c_beta for v in q_beta])
    spectrum = rational_root_spectrum(b_raw)
    return BResult(b_raw.monic(), b_raw.leading(), spectrum)


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
    B = _exponent_bits(n)
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
    return UniPoly([d * scale for d in _balanced_digits(total[0], W)])


def bfunction(g: liealg.GeneratorSet):
    """Full pipeline: closure, discriminant, character, dual, then b(s).

    Returns BResult on success, BFailure when the functional equation
    fails or the dual determinant vanishes.  A non-special input fails
    without any derivation; a special one is walked at `_point(f)`.
    """
    report = liealg.validate_algebra(g)
    if not report.closed:
        i, j = report.failing_pair
        raise ClosureError(f"bracket [A{i + 1}, A{j + 1}] is outside the generator span")
    f = liealg.discriminant(g)
    if f.is_zero:
        raise DomainError("discriminant vanishes; not prehomogeneous")
    c = liealg.character(g, f)
    special = liealg.is_special(c)
    fstar = liealg.discriminant(liealg.dual_generators(g))
    if fstar.is_zero:
        return BFailure("dual-degenerate", "f* = 0", special=special)
    if not special:
        return BFailure("functional-equation",
                        "chi + chi* != 0, so f*(d) f^{s+1} / f^s is not constant",
                        special=special)
    b_raw = _pointwise_b(fstar, f, _point(f))
    if b_raw is None:
        return BFailure("functional-equation", "operator annihilated f^{s+1}",
                        special=special)
    b = b_raw.monic()
    return BResult(b, b_raw.leading(), rational_root_spectrum(b_raw), special,
                   symmetry_check(b))


def symmetry_check(b: UniPoly) -> bool:
    """Monic b(s) against (-1)^d * b(-s-2): root symmetry about -1."""
    if b.is_zero:
        raise DomainError("zero polynomial")
    monic = b.monic()
    d = monic.degree()
    reflected = monic.compose_linear(-1, -2) * ((-1) ** d)
    return monic == reflected


def annihilator_identity_check(A, g: liealg.GeneratorSet) -> bool:
    """Does Q_A = delta_A - s tr(A) annihilate f^s?  Equivalent to
    delta_A(f) = tr(A) f, i.e. dchi(A) = tr(A)."""
    f = liealg.discriminant(g)
    if f.is_zero:
        raise DomainError("discriminant vanishes")
    A = linalg.frac_matrix(A)
    lam = liealg.character_value(A, f)
    return lam is not None and lam == linalg.trace(A)


# ---------------------------------------------------------------------
# normal-ordered first-order operators and the Fourier identity

class FirstOrderOperator:
    """sum_{i,j} C[i][j] x_i d_j + c0 + c1*s, normal ordered (x before d)."""

    __slots__ = ("C", "c0", "c1")

    def __init__(self, C, c0=0, c1=0):
        self.C = linalg.frac_matrix(C)
        self.c0 = _coerce(c0)
        self.c1 = _coerce(c1)

    def __eq__(self, other):
        if not isinstance(other, FirstOrderOperator):
            return NotImplemented
        return (self.C, self.c0, self.c1) == (other.C, other.c0, other.c1)

    def __repr__(self):
        return f"FirstOrderOperator(C={self.C}, c0={self.c0}, c1={self.c1})"


def q_operator(A, s_trace) -> FirstOrderOperator:
    """Q_A(s) = delta_A - s_trace * s; delta_A = sum A[i][j] x_j d_i."""
    return FirstOrderOperator(linalg.transpose(linalg.frac_matrix(A)),
                              0, -_coerce(s_trace))


def q_dual_operator(A, s_trace) -> FirstOrderOperator:
    """Q*_A(s) = delta*_A + s_trace * s on the dual side."""
    return FirstOrderOperator(linalg.mat_scale(linalg.frac_matrix(A), -1),
                              0, _coerce(s_trace))


def fourier_transform(op: FirstOrderOperator) -> FirstOrderOperator:
    """x -> -d, d -> y, then normal order.  Reordering d_i y_i = y_i d_i + 1
    produces the trace shift in the constant term."""
    newC = linalg.mat_scale(linalg.transpose(op.C), -1)
    return FirstOrderOperator(newC, op.c0 - linalg.trace(op.C), op.c1)


def substitute_s(op: FirstOrderOperator, a, b) -> FirstOrderOperator:
    """s -> a*s + b in the scalar part."""
    a, b = _coerce(a), _coerce(b)
    return FirstOrderOperator(op.C, op.c0 + op.c1 * b, op.c1 * a)


def fourier_check(A, s_trace=None) -> bool:
    """Is F(Q_A(s)) = Q*_A(-s-1)?  Holds exactly when s_trace = tr(A)."""
    A = linalg.frac_matrix(A)
    t = linalg.trace(A) if s_trace is None else _coerce(s_trace)
    lhs = fourier_transform(q_operator(A, t))
    rhs = substitute_s(q_dual_operator(A, t), -1, -1)
    return lhs == rhs

"""The b-function engine.

Implements the functional equation f*(d/dx) f^{s+1} = b(s) f^s by
symbolic differentiation of symbolic powers: states are expressions
f^{s+1-k} * P with P in Q[s][x].  Derivations raise k by one; after n
derivations (n = deg f) the accumulated state is f^{s+1-n} * Q and the
candidate b(s) is read off from the cofactor identity Q = b(s) f^{n-1}.
Failure of that identity is a first-class result, not an exception:
for non-special inputs the equation genuinely does not hold.
"""

from fractions import Fraction

from . import liealg, linalg
from .errors import ClosureError, ContextError, DomainError
from .polyring import (MultiPoly, Spectrum, UniPoly, primitive,
                       rational_root_spectrum)


class SPowerExpression:
    """f^{s+1-k} * P with P sparse in x and dense in s: the result record
    of `apply_operator` and the input of `extract_cofactor`.

    terms maps exponent tuples to tuples of rationals (s-coefficients,
    lowest degree first, trailing zeros trimmed): ints stay ints, anything
    else becomes a Fraction.  deg_s P <= k always.
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
            clean[tuple(exps)] = tuple(c if type(c) is int else Fraction(c) for c in sc)
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
        self.raw_leading = Fraction(raw_leading)
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


def _packed(f: MultiPoly, B):
    """(terms, scale): f = scale * sum c x^e over the content-free integer
    terms [(packed e, c)], variable i in bits [B*i, B*i + B) of packed e."""
    coeffs, scale = primitive(f.terms.values())
    return [(sum(x << B * i for i, x in enumerate(e)), c)
            for e, c in zip(f.terms, coeffs)], scale


def _unpack(e, B, nvars):
    mask = (1 << B) - 1
    return tuple((e >> B * i) & mask for i in range(nvars))


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


def _run_monomial(alpha, f_packed, fv_packed, B, mask, W):
    P = {0: 1}
    k = 0
    for vi, times in enumerate(alpha):
        for _ in range(times):
            P = _int_step(P, k, fv_packed[vi], f_packed, B * vi, mask, W)
            k += 1
    return P


def _slot_width(fs_int, f_packed, B):
    """Bits per s-slot that provably hold every coefficient of the result.

    N bounds the l1 norm of P_k over x and s together:
    ||(s+1-k) f_v P + f dP/dv|| <= ((1+|1-k|) ||f_v|| + deg_v(P) ||f||) ||P||,
    and deg_v(P_k) <= k deg_v(f) - (derivations in v so far).  The sum of
    |c_alpha| N_alpha bounds every coefficient of the merged state.  The
    terms of f_v are those of f with e_v > 0, so ||f_v|| = sum |c| e_v.
    """
    nvars = len(next(iter(fs_int)))
    f_int = [(_unpack(e, B, nvars), abs(c)) for e, c in f_packed]
    norm_f = sum(c for _, c in f_int)
    norm_fv = [sum(e[vi] * c for e, c in f_int) for vi in range(nvars)]
    deg_f = [max(e[vi] for e, _ in f_int) for vi in range(nvars)]
    bound = 0
    for alpha, c in fs_int.items():
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


def apply_operator(fstar: MultiPoly, f: MultiPoly) -> SPowerExpression:
    """Apply f*(d/dx) to f^{s+1}; returns the k = deg f state.

    The dual variables of fstar map to f's variables positionally.  The
    engine runs on the content-free integer forms of f and f* and restores
    the scale exactly at the end.  Each monomial of f* is walked on its
    own and merged into the total as soon as it is done.

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

    B = _exponent_bits(n)
    mask = (1 << B) - 1
    f_packed, f_scale = _packed(f, B)
    # f_v: every term with e_v > 0 becomes (e - x_v, c e_v); none collide
    fv_packed = [[(e - (1 << B * vi), c * ((e >> B * vi) & mask))
                  for e, c in f_packed if (e >> B * vi) & mask]
                 for vi in range(nvars)]
    fs_coeffs, fs_scale = primitive(fstar.terms.values())
    fs_int = dict(zip(fstar.terms, fs_coeffs))
    W = _slot_width(fs_int, f_packed, B)

    total = {}
    for alpha in sorted(fs_int):
        c_alpha = fs_int[alpha]
        for e, V in _run_monomial(alpha, f_packed, fv_packed, B, mask, W).items():
            total[e] = total.get(e, 0) + c_alpha * V

    mult = fs_scale * f_scale ** n
    if mult.denominator == 1:
        mult = mult.numerator   # integer state: no Fraction per coefficient
    terms = {_unpack(e, B, nvars): [mult * v for v in _balanced_digits(V, W)]
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

    B = _exponent_bits(n)
    f_packed, f_scale = _packed(f, B)
    fpow = {0: 1}
    for _ in range(n - 1):
        out = {}
        get = out.get
        for e1, c1 in fpow.items():
            for e2, c2 in f_packed:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
        fpow = {e: c for e, c in out.items() if c}
    nvars = len(f.variables)
    fpow = {_unpack(e, B, nvars): c for e, c in fpow.items()}

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

    scale = 1 / (f_scale ** (n - 1) * c_beta)
    b_raw = UniPoly([v * scale for v in q_beta])
    spectrum = rational_root_spectrum(b_raw)
    return BResult(b_raw.monic(), b_raw.leading(), spectrum)


def bfunction(g: liealg.GeneratorSet):
    """Full pipeline: discriminant, dual, operator application, cofactor.

    Returns BResult on success, BFailure when the functional equation
    fails or the dual determinant vanishes.
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
    q = apply_operator(fstar.with_variables(f.variables), f)
    result = extract_cofactor(q, f)
    result.special = special
    if isinstance(result, BResult):
        result.symmetric = symmetry_check(result.b)
    return result


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
        self.c0 = Fraction(c0)
        self.c1 = Fraction(c1)

    def __eq__(self, other):
        if not isinstance(other, FirstOrderOperator):
            return NotImplemented
        return (self.C, self.c0, self.c1) == (other.C, other.c0, other.c1)

    def __repr__(self):
        return f"FirstOrderOperator(C={self.C}, c0={self.c0}, c1={self.c1})"


def q_operator(A, s_trace) -> FirstOrderOperator:
    """Q_A(s) = delta_A - s_trace * s; delta_A = sum A[i][j] x_j d_i."""
    return FirstOrderOperator(linalg.transpose(linalg.frac_matrix(A)),
                              0, -Fraction(s_trace))


def q_dual_operator(A, s_trace) -> FirstOrderOperator:
    """Q*_A(s) = delta*_A + s_trace * s on the dual side."""
    return FirstOrderOperator(linalg.mat_scale(linalg.frac_matrix(A), -1),
                              0, Fraction(s_trace))


def fourier_transform(op: FirstOrderOperator) -> FirstOrderOperator:
    """x -> -d, d -> y, then normal order.  Reordering d_i y_i = y_i d_i + 1
    produces the trace shift in the constant term."""
    newC = linalg.mat_scale(linalg.transpose(op.C), -1)
    return FirstOrderOperator(newC, op.c0 - linalg.trace(op.C), op.c1)


def substitute_s(op: FirstOrderOperator, a, b) -> FirstOrderOperator:
    """s -> a*s + b in the scalar part."""
    a, b = Fraction(a), Fraction(b)
    return FirstOrderOperator(op.C, op.c0 + op.c1 * b, op.c1 * a)


def fourier_check(A, s_trace=None) -> bool:
    """Is F(Q_A(s)) = Q*_A(-s-1)?  Holds exactly when s_trace = tr(A)."""
    A = linalg.frac_matrix(A)
    t = linalg.trace(A) if s_trace is None else Fraction(s_trace)
    lhs = fourier_transform(q_operator(A, t))
    rhs = substitute_s(q_dual_operator(A, t), -1, -1)
    return lhs == rhs

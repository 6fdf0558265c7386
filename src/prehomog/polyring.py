"""Exact sparse polynomial arithmetic over rationals.

Both polynomial types are kept as their content-free integer form
(ints, scale), the pair `primitive` returns.  MultiPoly is sparse
multivariate, ints a map from exponent tuples to ints in an ordered
variable context.  UniPoly is dense univariate, lowest degree first,
so b(s), the chain products, the symmetry check, the gcd and
the rational root search run on integers: there is no division, the
gcd's division test is a remainder-only pseudo-division, `_pseudo_rem`,
and `parse_factored` builds that form from its text with no Fraction
until the end.  The squarefree test packs a polynomial into one int, its value at 2^W,
and `_balanced_digits` reads it back: `restrict_line` evaluates p on the
line at t = 2^W, and the heuristic gcd `univariate_gcd` takes the gcd of
two such ints.  All arithmetic is exact; there is no floating point.

The integer engines (the determinant in liealg, the derivation walk in
bernstein) share one exponent format: `exponent_bits`
sizes a slot from the largest exponent, `packed` packs each exponent
tuple of a MultiPoly's integer form into one int, `unpack` reads a tuple
back.
"""

import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate, zip_longest
from math import comb, gcd, isqrt, lcm, prod

from .errors import CapacityError, ContextError, DomainError, ParseError

# degree cap of parse_factored
MAX_PARSED_DEGREE = 300
# trial-division cap of the rational root search: an end term that still
# needs a larger trial divisor raises CapacityError instead of running
# for minutes
MAX_TRIAL_DIVISOR = 10**6
# pair cap of the rational root search, per searched factor: end terms with
# more divisor pairs (a | f(0), q | lc f) raise CapacityError before any
# divisor is listed; the tests reach 100800 pairs, the benchmark inputs 72
MAX_ROOT_PAIRS = 2 * 10**6
# degree-preserving lines is_squarefree tries before it answers False
SQUAREFREE_LINES = 8
# parenthesis depth cap of parse_factored: each level takes two stack
# frames of the recursive descent, far below Python's recursion limit
MAX_PARSED_DEPTH = 100


def primitive(values):
    """(ints, scale) with values[i] == scale * ints[i], the ints without a
    common factor and scale > 0; values is a sequence of ints and
    Fractions, and an empty one gives ([], 1)."""
    den = lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints, Fraction(g or 1, den)


def exponent_bits(d):
    """B, the bits per variable of a packed exponent whose entries are at
    most d."""
    return max(1, d.bit_length())


def packed(p, B):
    """(terms, scale): p = scale * sum c x^e over the terms [(packed e, c)]
    of p.ints, variable i in bits [B*i, B*i + B) of packed e.

    The caller sizes B by `exponent_bits` from the largest exponent it
    reaches; then adding monomials is one int add and no slot ever
    carries."""
    return [(sum(x << B * i for i, x in enumerate(e)), c)
            for e, c in p.ints.items()], p.scale


def unpack(e, B, nvars):
    """The exponent tuple of the packed exponent e."""
    mask = (1 << B) - 1
    return tuple((e >> B * i) & mask for i in range(nvars))


def _exact(c):
    """A coordinate kept exact: ints stay ints, the rest become Fractions."""
    return c if type(c) is int else _coerce(c)


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    if isinstance(c, str):
        return parse_rational(c)
    raise ContextError(f"cannot use {type(c).__name__} as a coefficient")


def _monomial(exps, nv):
    """exps, checked as the exponent tuple of a monomial in nv variables."""
    # tuple keys only: a dict cannot hold two equal ones
    if type(exps) is not tuple or any(type(e) is not int for e in exps):
        raise ContextError(f"exponents must be a tuple of ints, got {exps!r}")
    if len(exps) != nv:
        raise ContextError("exponent tuple length does not match variables")
    if any(e < 0 for e in exps):
        raise DomainError("negative exponent")
    return exps


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    return Fraction(_parse_exact(text))


def _parse_exact(text: str):
    """The rational literal text, kept exact: an integer value gives an int
    and any other a Fraction."""
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ParseError(f"bad rational literal {text!r}")
    num, den = _literal(*m.groups(), text)
    return num if den == 1 else Fraction(num, den)


def _literal(num, den, text):
    """The reduced int pair of the digit strings num and den (None for 1)
    of the rational literal text."""
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than Python converts to an int
        raise CapacityError(f"rational literal of {len(text)} characters is "
                            "too long") from None
    if not den:
        raise ParseError(f"zero denominator in {text!r}")
    g = gcd(num, den)
    return num // g, den // g


class _Value:
    """The base of the library's value records: each is frozen once its
    constructor has set its __slots__ (through object.__setattr__), so no
    name can be set or deleted, and two of one type are == when their
    slots are, in order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)


class MultiPoly(_Value):
    """Sparse multivariate polynomial over Q, kept as its content-free
    integer form: p = scale * sum ints[e] x^e, with ints a map from
    exponent tuples (one int per variable) to nonzero ints of gcd 1 and
    scale > 0 a Fraction (the zero polynomial is ints {} and scale 1).

    The form is canonical, so == compares it, and the integer engines
    read it directly; `terms` gives the Fraction coefficients, for display
    and serialization.  Two of different variable contexts are never ==.
    """

    __slots__ = ("variables", "ints", "scale")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ContextError("duplicate variable names")
        clean = {}
        for exps, c in terms.items():
            exps, c = _monomial(exps, len(variables)), _exact(c)
            if c:
                clean[exps] = c
        ints, scale = primitive(list(clean.values()))
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "ints", dict(zip(clean, ints)))
        object.__setattr__(self, "scale", scale)

    @classmethod
    def _form(cls, variables, ints, scale):
        """scale * sum ints[e] x^e for a dict ints of nonzero ints and a
        Fraction scale: moves the sign of scale into the ints and divides
        the content out."""
        g = gcd(*ints.values()) if scale else 0
        if scale < 0:
            g = -g
        if g not in (0, 1):
            ints = {e: c // g for e, c in ints.items()}
            scale *= g
        p = object.__new__(cls)
        object.__setattr__(p, "variables", variables)
        object.__setattr__(p, "ints", ints if g else {})
        object.__setattr__(p, "scale", scale if g else Fraction(1))
        return p

    @property
    def terms(self):
        """The Fraction coefficients, {exponent tuple: scale * int}."""
        scale = self.scale
        return {e: scale * c for e, c in self.ints.items()}

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self):
        return not self.ints

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.ints), default=-1)

    def is_homogeneous(self):
        return len({sum(e) for e in self.ints}) <= 1

    def __hash__(self):
        return hash((self.variables, frozenset(self.ints.items()), self.scale))

    # -- substitution -------------------------------------------------

    def evaluate(self, point):
        point = [_exact(x) for x in point]
        if len(point) != len(self.variables):
            raise ContextError("point dimension mismatch")
        # each monomial stays in Z at an integer point
        return self.scale * sum(c * prod(x ** k for x, k in zip(point, e) if k)
                                for e, c in self.ints.items())

    def restrict_line(self, a, b):
        """Univariate restriction t -> p(a + t*b).  With the line cleared to
        integers, L*(a + t*b) = A + t*B, and P = sum c x^e the integer form
        of p, of degree d, the int sum c L^(d-|e|) prod (A_i + 2^W B_i)^e_i
        has the coefficients of L^d P(a + t*b) as its balanced base-2^W
        digits, W sized from sum |c| L^(d-|e|) prod (|A_i| + |B_i|)^e_i."""
        a = [_exact(x) for x in a]
        b = [_exact(x) for x in b]
        if len(a) != len(self.variables) or len(b) != len(self.variables):
            raise ContextError("line dimension mismatch")
        L = lcm(*(x.denominator for x in a + b))
        A = [x.numerator * (L // x.denominator) for x in a]
        B = [x.numerator * (L // x.denominator) for x in b]
        d = max(map(sum, self.ints), default=0)
        terms = [(e, c * L ** (d - sum(e))) for e, c in self.ints.items()]
        norms = [abs(x) + abs(y) for x, y in zip(A, B)]
        W = sum(abs(c) * prod(map(pow, norms, e)) for e, c in terms).bit_length() + 1
        X = [x + (y << W) for x, y in zip(A, B)]
        V = sum(c * _tree_prod(list(map(pow, X, e))) for e, c in terms)
        return UniPoly._form(_balanced_digits(V, W), self.scale / L ** d)

    # -- display -------------------------------------------------------

    def _monomial_str(self, e):
        parts = []
        for v, k in zip(self.variables, e):
            if k == 1:
                parts.append(v)
            elif k > 1:
                parts.append(f"{v}^{k}")
        return "*".join(parts)

    def __str__(self):
        # sort by descending total degree then lexicographic exponent order
        terms = self.terms
        keys = sorted(terms, key=lambda e: (-sum(e), e))
        return _signed_sum((terms[e], self._monomial_str(e)) for e in keys)

    def __repr__(self):
        return f"MultiPoly({self})"


def _signed_sum(terms):
    """The text of a sum of (nonzero coefficient, monomial text) terms, in
    the given order: a coefficient of absolute value 1 is left off a
    monomial, the first term carries a bare "-", and no terms give "0"."""
    pieces = []
    for c, mono in terms:
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces) or "0"


def _binomial_row(a, b, k):
    """(a + t*b)^k as a dense coefficient list, lowest degree first."""
    if not b:
        return [a ** k]
    return [comb(k, j) * a ** (k - j) * b ** j for j in range(k + 1)]


def _tree_prod(xs):
    """prod(xs); above eight factors, the product of the products of its
    two halves, so that equal sizes are multiplied."""
    if len(xs) <= 8:
        return prod(xs)
    return _tree_prod(xs[:len(xs) // 2]) * _tree_prod(xs[len(xs) // 2:])


def _balanced_digits(V, W):
    """Coefficients of the polynomial whose value at 2^W is V, each in
    [-2^(W-1), 2^(W-1)), lowest degree first."""
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


def _dense_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _sum(x, y, sign=1):
    """x + sign*y for forms (ints, num, den) = num/den * sum ints[i] s^i,
    ints trimmed and den > 0: on a common denominator, with the content of
    the ints divided out.  `parse_factored` is the one caller."""
    (a, na, da), (b, nb, db) = x, y
    if not a or not b:
        return x if a else (b, sign * nb, db)
    den = lcm(da, db)
    na, nb = na * (den // da), sign * nb * (den // db)
    out = [na * u + nb * v for u, v in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    g = gcd(*out)
    return ([v // g for v in out], g, den) if g else _NIL


_NIL = ((), 1, 1)   # the zero form


def _int_power(a, k):
    """a^k for integer coefficients a: one binomial row for an affine or
    constant a, else k products.  `parse_factored` is the one caller."""
    if len(a) <= 2:
        return _binomial_row(*[*a, 0, 0][:2], k)
    out = [1]
    for _ in range(k):
        out = _dense_mul(out, a)
    return out


class UniPoly(_Value):
    """Dense univariate polynomial over Q, kept as its content-free integer
    form: p = scale * sum ints[i] s^i, lowest degree first, with no
    trailing zero, gcd(ints) = 1 and scale > 0 a Fraction (the zero
    polynomial is ints () and scale 1).

    The form is canonical, so == compares (ints, scale): a UniPoly equals
    only a UniPoly, a constant not its number.  The operations b(s) needs
    run on the ints: products, `monic`, `leading`, `derivative`,
    `compose_linear` and `evaluate`.  There is no sum or
    division; `univariate_gcd` tests divisibility by a remainder-only
    pseudo-division.  A product of content-free forms is content-free
    (Gauss's lemma), so only derivatives and substitutions divide the
    content out again, in `_form`.  The zero polynomial has degree -1.
    `coeffs` gives the Fraction coefficients, for display and
    serialization.
    """

    __slots__ = ("ints", "scale")

    def __init__(self, coeffs):
        p = UniPoly._form(*primitive([_exact(c) for c in coeffs]))
        object.__setattr__(self, "ints", p.ints)
        object.__setattr__(self, "scale", p.scale)

    @classmethod
    def _new(cls, ints, scale):
        """The polynomial of a form already content-free, trimmed and with
        scale > 0."""
        p = object.__new__(cls)
        object.__setattr__(p, "ints", tuple(ints))
        object.__setattr__(p, "scale", scale)
        return p

    @classmethod
    def _form(cls, ints, scale):
        """scale * sum ints[i] s^i for integers ints and a nonzero Fraction
        scale: trims, moves the sign of scale into the ints and divides the
        content out."""
        ints = list(ints)
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(*ints)
        if not g:
            return _ZERO
        if scale < 0:
            g = -g
        if g != 1:
            ints = [v // g for v in ints]
            scale *= g
        return cls._new(ints, scale)

    @classmethod
    def one(cls):
        return cls._new((1,), Fraction(1))

    @classmethod
    def constant(cls, c):
        c = _coerce(c)
        return cls._form((1,), c) if c else _ZERO

    @property
    def coeffs(self):
        """The coefficients as Fractions, lowest degree first."""
        scale = self.scale
        return tuple(scale * c for c in self.ints)

    @property
    def is_zero(self):
        return not self.ints

    def degree(self):
        return len(self.ints) - 1

    def leading(self) -> Fraction:
        if not self.ints:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.scale * self.ints[-1]

    def monic(self):
        if not self.ints:
            raise DomainError("cannot normalize the zero polynomial")
        return UniPoly._form(self.ints, Fraction(1, self.ints[-1]))

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = _coerce(other)
            return UniPoly._form(self.ints, self.scale * c) if c else _ZERO
        if not self.ints or not other.ints:
            return _ZERO
        return UniPoly._new(_dense_mul(self.ints, other.ints),
                            self.scale * other.scale)

    __rmul__ = __mul__

    def __hash__(self):
        return hash((self.ints, self.scale))

    def evaluate(self, x) -> Fraction:
        """p(x) by Horner on the ints: at x = n/d, p(x) = scale *
        sum ints[i] n^i d^(deg - i) / d^deg."""
        x = _coerce(x)
        if not self.ints:
            return Fraction(0)
        n, d = x.numerator, x.denominator
        acc, dk = self.ints[-1], 1
        for c in reversed(self.ints[:-1]):
            dk *= d
            acc = acc * n + c * dk
        return self.scale * Fraction(acc, dk)

    def derivative(self):
        return UniPoly._form([c * i for i, c in enumerate(self.ints)][1:],
                             self.scale)

    def compose_linear(self, a, b):
        """p(a*s + b) by Horner over Z[s]: with a*s + b = (A*s + B) / D in
        integers, p(a*s + b) = scale D^-d sum ints[i] (A*s + B)^i D^(d-i)."""
        a, b = _coerce(a), _coerce(b)
        if not self.ints:
            return _ZERO
        D = lcm(a.denominator, b.denominator)
        A, B = a.numerator * (D // a.denominator), b.numerator * (D // b.denominator)
        acc, dk = [self.ints[-1]], 1
        for c in reversed(self.ints[:-1]):
            dk *= D
            acc = _dense_mul(acc, [B, A])
            acc[0] += c * dk
        return UniPoly._form(acc, self.scale / dk)

    def __str__(self):
        coeffs = self.coeffs
        return _signed_sum((coeffs[i], "s" if i == 1 else f"s^{i}" if i else "")
                           for i in reversed(range(len(coeffs))) if coeffs[i])

    def __repr__(self):
        return f"UniPoly({self})"


_ZERO = UniPoly._new((), Fraction(1))


def _pseudo_rem(a, b):
    """r with m*a = q*b + r over Z for some q and a power m of lc(b), for
    integer coefficient lists a and b (lowest degree first, b[-1] != 0):
    deg r < deg b and r trimmed, so b divides a over Q iff r is empty."""
    r, lead = list(a), b[-1]
    while len(r) >= len(b):
        top = r[-1]
        if top:
            shift = len(r) - len(b)
            r = [c * lead for c in r]
            for i, c in enumerate(b):
                r[shift + i] -= top * c
        r.pop()
    while r and not r[-1]:
        r.pop()
    return r


class Spectrum(_Value):
    """Rational roots with multiplicity, and the monic residual."""

    __slots__ = ("roots", "residual")

    def __init__(self, roots, residual):
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "residual", residual)

    def __str__(self):
        if not self.roots:
            body = "no rational roots"
        else:
            body = ", ".join(f"{r}" + (f" (x{m})" if m > 1 else "") for r, m in self.roots)
        if len(self.residual.ints) <= 1:
            return body
        return f"{body}; residual {self.residual}"


def univariate_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """Monic gcd by GCDHEU (Char, Geddes & Gonnet, J. Symb. Comput. 7,
    1989) on the content-free forms u, v: the balanced base-2^W digits of
    gcd(u(2^W), v(2^W)), made primitive, are the gcd if they divide u and
    v, as 2^W > 2 min(|u|, |v|) + 2 in the max norm; else W doubles.  The
    digits are exact once 2^W > 2 |Res(u/g, v/g)| |g|, so the loop ends."""
    if a.is_zero and b.is_zero:
        raise DomainError("gcd of two zero polynomials")
    u, v = a.ints, b.ints
    if not u or not v:
        return (a if u else b).monic()
    W = (2 * min(max(map(abs, u)), max(map(abs, v))) + 2).bit_length()
    while True:
        h = gcd(*(sum(c << W * i for i, c in enumerate(p)) for p in (u, v)))
        g = UniPoly._form(_balanced_digits(h, W), Fraction(1))
        # a constant divides everything
        if len(g.ints) == 1 or not (_pseudo_rem(u, g.ints)
                                    or _pseudo_rem(v, g.ints)):
            return g.monic()
        W *= 2


def rational_root_spectrum(*factors) -> Spectrum:
    """All rational roots of the product of factors with multiplicities,
    roots in ascending order; the residual carries the monic product of
    the factors' remaining non-rational parts.  A factor is a UniPoly b,
    searched whole, or a pair (b, k) for b^k with an int k >= 1, as
    `chain` passes them.  Every degree-1 b = q*s + p gives its root -p/q
    directly, whatever the size of p and q; any other b is searched once,
    so one factor's divisor pairs never multiply another's.

    The search runs on the content-free integer form f = b.ints, with no
    Fraction inside it; the scale and sign of b do not change the result.
    A root a/q in lowest terms (q > 0) has a | f(0) and q | lc(f), and by
    Gauss's lemma q*s - a divides f in Z[s], so (q - a) | f(1) and
    (q + a) | f(-1).  Only coprime divisor pairs are tried, only inside
    Fujiwara's bounds on |root| and on 1/|root|, each rounded up to a power
    of two (`_fujiwara_bound`), and only of a sign that Descartes' rule of
    signs leaves possible; a pair passing the divisibility tests is tested
    by exact integer division by q*s - a, repeated for the multiplicity.
    """
    roots, residual = {}, [1]       # {(a, q): multiplicity} of a/q, q > 0
    for factor in factors:
        b, k = factor if type(factor) is tuple else (factor, 1)
        if type(k) is not int or k < 1:
            raise DomainError(f"factor exponent must be an int >= 1, got {k!r}")
        if b.is_zero:
            raise DomainError("zero polynomial has no spectrum")
        f = b.ints
        if len(f) == 2:                 # q*s + p, gcd(p, q) = 1
            found = [((-f[0], f[1]) if f[1] > 0 else (f[0], -f[1]), 1)]
        else:
            zeros = next(i for i, c in enumerate(f) if c)
            found = [((0, 1), zeros)] if zeros else []
            residual = _dense_mul(residual, _int_power(
                _integer_roots(list(f[zeros:]), found), k))
        for r, m in found:
            roots[r] = roots.get(r, 0) + m * k
    L = lcm(*(q for _, q in roots))     # a/q ascends as a L/q does
    return Spectrum([(Fraction(*r), roots[r])
                     for r in sorted(roots, key=lambda r: r[0] * (L // r[1]))],
                    UniPoly._form(residual, Fraction(1)).monic())


def _integer_roots(f, roots):
    """Append each rational root a/q (q > 0, in lowest terms) of the
    primitive integer polynomial f (lowest degree first, f[0] != 0) to
    roots as ((a, q), multiplicity); return f deflated by them."""
    f_neg = [-c if i % 2 else c for i, c in enumerate(f)]     # f(-s)
    signs = [sg for sg, g in ((-1, f_neg), (1, f)) if _sign_changes(g)]
    if not signs:
        return f
    den_powers, count = _prime_powers(abs(f[-1]), MAX_ROOT_PAIRS)
    num_powers, _ = _prime_powers(abs(f[0]), MAX_ROOT_PAIRS // count)
    nums, dens = _divisors(num_powers), _divisors(den_powers)
    hi = _fujiwara_bound(f)             # |root| <= hi
    lo = _fujiwara_bound(f[::-1])       # |root| >= 1/lo
    f1, fm1 = _at_one(f)
    for sg in signs:
        for q in dens:
            first = bisect_left(nums, -(-q // lo))
            for a in nums[first:bisect_right(nums, hi * q)]:
                if gcd(a, q) != 1 or f[0] % a or f[-1] % q:
                    continue
                a *= sg
                if (f1 % (q - a) if q != a else f1) or \
                        (fm1 % (q + a) if q != -a else fm1):
                    continue
                mult = 0
                while len(f) > 1:
                    g = _divide_linear(f, a, q)
                    if g is None:
                        break
                    f = g
                    mult += 1
                if mult:
                    roots.append(((a, q), mult))
                    if len(f) == 1:
                        return f
                    f1, fm1 = _at_one(f)
    return f


def _divide_linear(f, a, q):
    """f / (q*s - a) in Z[s], lowest degree first; None unless exact."""
    out = [0] * (len(f) - 1)
    carry = 0
    for i in range(len(f) - 1, 0, -1):
        carry, r = divmod(f[i] + a * carry, q)
        if r:
            return None
        out[i - 1] = carry
    return out if f[0] + a * carry == 0 else None


def _at_one(f):
    """(f(1), f(-1))."""
    return sum(f), sum(f[0::2]) - sum(f[1::2])


def _sign_changes(f):
    """Descartes' bound on the number of positive roots of f."""
    signs = [c > 0 for c in f if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _fujiwara_bound(f):
    """A power of two h >= |root| for every root of f (f[-1] != 0):
    Fujiwara's bound 2 max_i |f[d-i] / f[d]|^(1/i), f[0] halved, rounded
    up on bit lengths, as |c / lead| < 2^(len c - len lead + 1)."""
    d, t = len(f) - 1, abs(f[-1]).bit_length() - 1
    # ceil((len f[d-i] - t - [i = d]) / i), as minus a floor division
    k = max(-((t + (i == d) - abs(f[d - i]).bit_length()) // i)
            for i in range(1, d + 1))
    return 2 << max(0, k)


def _prime_powers(n, most):
    """(the prime powers [(p, k)] of n > 0, its divisor count), from trial
    division by p <= MAX_TRIAL_DIVISOR.  The count is kept as each prime
    is found, and CapacityError is raised as soon as it passes most."""
    out, count = [], 1
    p, top = 2, min(isqrt(n), MAX_TRIAL_DIVISOR)
    while p <= top:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
            count *= k + 1
            if count > most:
                break
            top = min(isqrt(n), MAX_TRIAL_DIVISOR)
        p += 1 if p == 2 else 2
    else:               # the division ran out of candidates, not of budget
        if p * p <= n:  # stopped at the cap, not at the square root
            raise CapacityError(f"an end term has a cofactor {n} with no prime "
                                f"factor up to the trial-division limit "
                                f"{MAX_TRIAL_DIVISOR}")
        if n > 1:
            out.append((n, 1))
            count *= 2
    if count > most:
        raise CapacityError(f"the rational root test would try more than "
                            f"{MAX_ROOT_PAIRS} divisor pairs of the end terms")
    return out, count


def _divisors(powers):
    """The positive divisors, ascending, of the number with these prime
    powers."""
    out = [1]
    for p, k in powers:
        out = [d * p ** j for d in out for j in range(k + 1)]
    return sorted(out)


def _quotient(a, b):
    """The integer form q with a = q*b, or None when b does not divide a:
    a and b are integer forms of one variable context ({exponent tuple:
    int}, b nonzero and content-free, as `MultiPoly.ints` holds them).

    Each step divides the leading term of the remainder by that of b, in
    graded lex order: the exponents are packed with the total degree in
    the top slot, so remainder terms never pass deg a and no slot
    carries.  If b | a in Q[x], the leading term of b divides that of
    every remainder, and by Gauss's lemma q has integer coefficients, as
    b is content-free.  So a step whose exponent difference leaves a slot
    negative (a borrow across a slot boundary) or whose coefficient is not
    a multiple of b's leading coefficient proves that b does not divide a.
    """
    if not a:
        return {}
    nv = len(next(iter(b)))
    da = max(map(sum, a))
    B = exponent_bits(da)
    top = B * nv

    def pack(p):
        return {sum(x << B * i for i, x in enumerate(e)) + (sum(e) << top): c
                for e, c in p.items()}

    r, b = pack(a), pack(b)
    lead = max(b)
    lc = b.pop(lead)
    slots = sum(1 << B * i for i in range(1, nv + 1))
    heap = [-e for e in r]
    heapify(heap)
    q = {}
    while heap:
        e = -heappop(heap)
        c = r.pop(e)
        if not c:
            continue
        d = e - lead
        k, m = divmod(c, lc)
        if d < 0 or (d ^ e ^ lead) & slots or m:
            return None
        q[d] = k
        for e2, c2 in b.items():
            t = d + e2
            if t not in r:
                r[t] = 0
                heappush(heap, -t)
            r[t] -= k * c2
    return {unpack(e, B, nv): c for e, c in q.items()}


def is_squarefree(p: MultiPoly, witness=None) -> bool:
    """Squarefreeness via random line restrictions.

    Restricts p to t -> p(a + t*b) for integer a, b drawn from
    random.Random(0), resampling whenever the restriction degree drops
    below deg p, then tests gcd(u, u') for a nontrivial common factor.
    On a degree-preserving line every factor of p keeps its degree, so
    p = g^2 h with deg g > 0 always shows the repeated factor g(a + t*b).
    One clean line therefore proves p squarefree: True is certified.

    After the first line that shows a repeated factor, `witness` (if
    given) is called once; it returns True only when it has proved
    h^2 | p for some h of positive degree, and then False is certified
    and no further line is drawn.  Otherwise False comes only after
    SQUAREFREE_LINES (8) lines that all show a repeated factor, and is
    probabilistic.  For squarefree p of degree d, u has a repeated root
    only where its discriminant in t, a nonzero polynomial of degree
    <= d(2d - 2) in (a, b), vanishes; drawn from
    [-10^4, 10^4], a line is bad with probability <= d(2d - 2)/(2*10^4 + 1)
    (Schwartz-Zippel), about 0.009 at d = 10.  From d of about 100 the
    bound is 1: it says nothing.
    """
    if p.is_zero:
        raise DomainError("squarefreeness of the zero polynomial is undefined")
    deg = p.degree()
    rng = random.Random(0)
    nv = len(p.variables)
    bound = 10**4
    done = 0
    attempts = 0
    while done < SQUAREFREE_LINES:
        attempts += 1
        if attempts > 200 * SQUAREFREE_LINES:
            raise DomainError("could not sample a degree-preserving line")
        a = [rng.randint(-bound, bound) for _ in range(nv)]
        b = [rng.randint(-bound, bound) for _ in range(nv)]
        u = p.restrict_line(a, b)
        if u.degree() != deg:
            continue  # degree dropped; bad line, resample
        if univariate_gcd(u, u.derivative()).degree() == 0:
            return True
        done += 1
        if done == 1 and witness is not None and witness():
            return False
    return False


# -- factored polynomial string parsing ---------------------------------

_TOKEN = re.compile(r"\s*(?:((\d+)(?:/(\d+))?)|([s()^*+-]))")


def _tokenize(text):
    """The tokens of text, each starting where the last one ended: a number
    as its reduced int pair (p, q), a symbol as its character, then None.
    Whitespace before a token and at the end is skipped."""
    out, pos, end = [], 0, len(text.rstrip())
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character in polynomial at position {pos}: {text[pos:]!r}")
        lit, num, den, sym = m.groups()
        out.append(sym or _literal(num, den, lit))
        pos = m.end()
    return out + [None]


def _capped(degree):
    if degree > MAX_PARSED_DEGREE:
        raise CapacityError(f"degree or exponent {degree} exceeds the limit "
                            f"{MAX_PARSED_DEGREE} of parsed polynomials")


def _product(x, y):
    (a, na, da), (b, nb, db) = x, y
    _capped(max(len(a) - 1, 0) + max(len(b) - 1, 0))
    return (_dense_mul(a, b), na * nb, da * db) if a and b else _NIL


def _unexpected(tok, want=None):
    """The ParseError of the symbol or end tok where want, or any atom,
    should be."""
    return ParseError("unexpected end of polynomial string" if tok is None
                      else f"expected {want!r}, found {tok!r}" if want
                      else f"unexpected token {tok!r} in polynomial string")


def parse_factored(text: str) -> UniPoly:
    """Parse products of factored polynomial strings in s, e.g.
    "(s+2/3)(s+1)^5(s+4/3)(s+2)" or "3s+2" or "(2s+1)(s+1)^2(2s+3)".

    One token scan, then a recursive descent on the integer forms of
    `_sum`: the one Fraction is built at the end, by `UniPoly._form`.
    Every product and power is checked against MAX_PARSED_DEGREE before it
    is expanded, and so is every exponent, even of a constant: a larger
    one raises CapacityError.  Parentheses nested deeper than
    MAX_PARSED_DEPTH raise ParseError.
    """
    return _parse(text, None)


def _factored(text):
    """(p, factors): p = `parse_factored(text)`, a constant times the
    product of the pairs (b, k) in factors: the top-level atoms with
    exponents k >= 1 (a sign or a number is a constant, an atom^0 is left
    out), or [(p, 1)] when the top level is a sum such as "s+1+2"."""
    atoms, one = [], Fraction(1)
    p = _parse(text, atoms)
    return p, [(UniPoly._new(a, one), k) for a, k in atoms] or [(p, 1)]


def _parse(text, atoms):
    """`parse_factored`'s descent; atoms, unless None, gets the top-level
    (atom ints, k) of `_factored`, emptied when the top level is a sum."""
    tokens = _tokenize(text)
    if text.count("(") > MAX_PARSED_DEPTH and max(accumulate(
            (tok == "(") - (tok == ")") for tok in tokens)) > MAX_PARSED_DEPTH:
        raise ParseError(f"parentheses nested deeper than {MAX_PARSED_DEPTH}")
    pos = 0

    def parse_sum(atoms=None):
        nonlocal pos
        acc, op = _NIL, tokens[pos]
        pos += op in ("+", "-")
        while True:
            acc = _sum(acc, parse_product(atoms), -1 if op == "-" else 1)
            op = tokens[pos]
            if op not in ("+", "-"):
                return acc
            pos += 1
            if atoms:
                atoms.clear()
            atoms = None

    def parse_product(atoms=None):
        """Atoms, juxtaposed or joined by "*", each with an optional "^"
        and integer exponent."""
        nonlocal pos
        acc = None
        while True:
            tok = tokens[pos]
            pos += 1
            if tok == "(":
                atom = parse_sum()
                if tokens[pos] != ")":
                    raise _unexpected(tokens[pos], ")")
                pos += 1
            elif tok == "s":
                atom = ((0, 1), 1, 1)
            elif type(tok) is tuple:
                atom = ((1,), *tok) if tok[0] else _NIL
            else:
                raise _unexpected(tok)
            k = 1
            if tokens[pos] == "^":
                k = tokens[pos + 1]
                if type(k) is not tuple:
                    raise _unexpected(k, "num")
                if k[1] != 1:
                    raise ParseError("exponent must be a nonnegative integer")
                pos += 2
                k = k[0]
                _capped(k * max(len(atom[0]) - 1, 1))
            if atoms is not None and k:
                atoms.append((atom[0], k))
            if k != 1:
                a, num, den = atom
                a = _int_power(a, k)
                atom = (a, num ** k, den ** k) if a[-1] else _NIL
            acc = atom if acc is None else _product(acc, atom)
            tok = tokens[pos]
            if tok == "*":
                pos += 1
            elif tok not in ("s", "(") and type(tok) is not tuple:
                return acc

    try:
        ints, num, den = parse_sum(atoms)
    finally:
        del parse_sum, parse_product    # the two closures refer to each other
    if tokens[pos] is not None:
        raise ParseError(f"trailing input in polynomial string: {tokens[pos:-1]}")
    return UniPoly._form(ints, Fraction(num, den))

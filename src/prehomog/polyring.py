"""Exact sparse polynomial arithmetic over rationals.

MultiPoly is a sparse multivariate polynomial: a map from exponent
tuples to Fraction coefficients, together with an ordered variable
context.  UniPoly is dense univariate, lowest degree first, and is kept
as its content-free integer form (ints, scale), the pair `primitive`
returns, so b(s), the chain products, the symmetry check, division, the
gcd and the rational root search run on integers: division and the
gcd's division test share one integer pseudo-division, `_pseudo_divmod`.
The squarefree test packs a polynomial into one int, its value at 2^W,
and `_balanced_digits` reads it back: `restrict_line` evaluates p on the
line at t = 2^W, and the heuristic gcd `univariate_gcd` takes the gcd of
two such ints.  All arithmetic is exact; there is no floating point.

The integer engines (the determinant and delta_A in liealg, the
derivation walk in bernstein) share one exponent format: `packed` scales
a MultiPoly to its content-free integer form and packs each exponent
tuple into one int, `unpack` reads a tuple back.
"""

import random
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod

from .errors import CapacityError, ContextError, DomainError, ParseError

# Rationals are stdlib Fractions: lowest terms, positive denominator, exact.
Rational = Fraction

# total-degree cap; beyond this we refuse rather than grind forever
MAX_TOTAL_DEGREE = 10**6
# degree cap of parse_factored
MAX_PARSED_DEGREE = 300
# trial-division cap of the rational root search: an end term that still
# needs a larger trial divisor raises CapacityError instead of running
# for minutes
MAX_TRIAL_DIVISOR = 10**6
# pair cap of the rational root search: end terms with more divisor pairs
# (a | f(0), q | lc f) than this raise CapacityError before any divisor is
# listed; the tests and the benchmark inputs reach 100800 pairs
MAX_ROOT_PAIRS = 2 * 10**6
# line cap of is_squarefree: each line costs about a millisecond at n = 10
MAX_SQUAREFREE_TRIALS = 1000
# parenthesis depth cap of parse_factored: each level takes four stack
# frames of the recursive descent, far below Python's recursion limit
MAX_PARSED_DEPTH = 100


class _NegInf:
    """Degree of the zero polynomial; compares below every number."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self

    def __neg__(self):
        return self

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


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


def packed(p, B):
    """(terms, scale): p = scale * sum c x^e over the content-free integer
    terms [(packed e, c)], variable i in bits [B*i, B*i + B) of packed e.

    The caller picks B so that every exponent it reaches fits in B bits;
    then adding monomials is one int add and no slot ever carries."""
    coeffs, scale = primitive(p.terms.values())
    return [(sum(x << B * i for i, x in enumerate(e)), c)
            for e, c in zip(p.terms, coeffs)], scale


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
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return parse_rational(c)
    raise ContextError(f"cannot use {type(c).__name__} as a coefficient")


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_rational(text: str) -> Fraction:
    return Fraction(_parse_exact(text))


def _parse_exact(text: str):
    """The rational literal text, kept exact: "p" gives an int and "p/q" a
    Fraction."""
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ParseError(f"bad rational literal {text!r}")
    num, den = m.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than Python converts to an int
        raise CapacityError(f"rational literal of {len(text)} characters is "
                            "too long") from None
    if not den:
        raise ParseError(f"zero denominator in {text!r}")
    return num if den == 1 else Fraction(num, den)


def format_rational(c: Fraction) -> str:
    return str(c)


class MultiPoly:
    """Sparse multivariate polynomial over Q.

    terms maps exponent tuples (one entry per variable) to nonzero
    Fraction coefficients.  Instances are treated as immutable.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ContextError("duplicate variable names")
        clean = {}
        nv = len(variables)
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nv:
                raise ContextError("exponent tuple length does not match variables")
            if any(e < 0 for e in exps):
                raise DomainError("negative exponent")
            clean[exps] = clean.get(exps, Fraction(0)) + _coerce(c)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", {e: c for e, c in clean.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, c):
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _coerce(c)})

    @classmethod
    def gens(cls, variables):
        """The coordinate polynomials, one per variable."""
        variables = tuple(variables)
        n = len(variables)
        out = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            out.append(cls(variables, {tuple(e): Fraction(1)}))
        return tuple(out)

    @classmethod
    def variable(cls, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise ContextError(f"unknown variable {name!r}")
        return cls.gens(variables)[variables.index(name)]

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; NEG_INF for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def coefficient(self, exps) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def homogeneous_components(self):
        """Map total degree -> homogeneous part."""
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: MultiPoly(self.variables, t) for d, t in sorted(parts.items())}

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    # -- variable context handling -----------------------------------

    def _unified(self, other):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        merged = list(self.variables) + [v for v in other.variables if v not in self.variables]
        merged = tuple(merged)

        def remap(poly):
            idx = [merged.index(v) for v in poly.variables]
            out = {}
            for e, c in poly.terms.items():
                ne = [0] * len(merged)
                for pos, exp in zip(idx, e):
                    ne[pos] = exp
                out[tuple(ne)] = c
            return out

        return merged, remap(self), remap(other)

    def with_variables(self, variables):
        """Same coefficients on renamed variables (positional)."""
        variables = tuple(variables)
        if len(variables) != len(self.variables):
            raise ContextError("variable count mismatch")
        return MultiPoly(variables, self.terms)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.variables, other)
        variables, a, b = self._unified(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(variables, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            c = _coerce(other)
            return MultiPoly(self.variables, {e: c * v for e, v in self.terms.items()})
        variables, a, b = self._unified(other)
        if a and b:
            da = max(sum(e) for e in a)
            db = max(sum(e) for e in b)
            if da + db > MAX_TOTAL_DEGREE:
                raise CapacityError("product degree exceeds supported range")
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return MultiPoly(variables, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError("exponent must be a nonnegative integer")
        d = self.degree()
        if d is not NEG_INF and d * k > MAX_TOTAL_DEGREE:
            raise CapacityError("power degree exceeds supported range")
        result = MultiPoly.constant(self.variables, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self == MultiPoly.constant(self.variables, other)
            return NotImplemented
        variables, a, b = self._unified(other)
        return a == b

    def __hash__(self):
        # only what == compares: a constant as its value, anything else
        # with its monomials named by variable, not by position
        if not any(map(any, self.terms)):
            return hash(next(iter(self.terms.values()), 0))
        return hash(frozenset(
            (frozenset((v, k) for v, k in zip(self.variables, e) if k), c)
            for e, c in self.terms.items()))

    # -- calculus and substitution ------------------------------------

    def derivative(self, v):
        if v not in self.variables:
            raise ContextError(f"unknown variable {v!r}")
        i = self.variables.index(v)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[ne] = out.get(ne, Fraction(0)) + c * e[i]
        return MultiPoly(self.variables, out)

    def evaluate(self, point):
        point = [_exact(x) for x in point]
        if len(point) != len(self.variables):
            raise ContextError("point dimension mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            m = 1   # the monomial stays in Z at an integer point
            for x, k in zip(point, e):
                if k:
                    m *= x ** k
            total += c * m
        return total

    def shift(self, point):
        """p(point + x), same variable context."""
        point = [_exact(x) for x in point]
        if len(point) != len(self.variables):
            raise ContextError("point dimension mismatch")
        ints, scale = primitive(self.terms.values())
        out = {}
        for e, c in zip(self.terms, ints):
            # (point_i + x_i)^k = sum_j row[j] x_i^j, one variable at a time
            part = {(): c}
            for x, k in zip(point, e):
                row = _binomial_row(x, 1, k)
                part = {pe + (j,): pc * r for pe, pc in part.items()
                        for j, r in enumerate(row) if r}
            for pe, pc in part.items():
                out[pe] = out.get(pe, 0) + pc
        return MultiPoly(self.variables, {e: scale * c for e, c in out.items()})

    def restrict(self, keep_indices):
        """Set all variables outside keep_indices to zero; project onto the kept ones."""
        keep = list(keep_indices)
        if any(i < 0 or i >= len(self.variables) for i in keep):
            raise ContextError("restrict index out of range")
        out = {}
        for e, c in self.terms.items():
            if any(e[i] for i in range(len(e)) if i not in keep):
                continue
            ne = tuple(e[i] for i in keep)
            out[ne] = c
        return MultiPoly(tuple(self.variables[i] for i in keep), out)

    def restrict_line(self, a, b):
        """Univariate restriction t -> p(a + t*b).  With the line cleared to
        integers, L*(a + t*b) = A + t*B, and P = sum c x^e the primitive form
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
        ints, scale = primitive(self.terms.values())
        d = max(map(sum, self.terms), default=0)
        terms = [(e, c * L ** (d - sum(e))) for e, c in zip(self.terms, ints)]
        norms = [abs(x) + abs(y) for x, y in zip(A, B)]
        W = sum(abs(c) * prod(map(pow, norms, e)) for e, c in terms).bit_length() + 1
        X = [x + (y << W) for x, y in zip(A, B)]
        V = sum(c * prod(map(pow, X, e)) for e, c in terms)
        return UniPoly._form(_balanced_digits(V, W), scale / L ** d)

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
        keys = sorted(self.terms, key=lambda e: (-sum(e), e))
        return _signed_sum((self.terms[e], self._monomial_str(e)) for e in keys)

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


class UniPoly:
    """Dense univariate polynomial over Q, kept as its content-free integer
    form: p = scale * sum ints[i] s^i, lowest degree first, with no
    trailing zero, gcd(ints) = 1 and scale > 0 a Fraction (the zero
    polynomial is ints () and scale 1).

    The form is canonical, so == compares (ints, scale), and the
    arithmetic runs on the ints, division and the gcd included (an integer
    pseudo-division): a product of content-free forms is content-free
    (Gauss's lemma), so only sums, quotients, derivatives and
    substitutions divide the content out again, in `_form`.  `coeffs`
    gives the Fraction coefficients, for display and serialization.
    """

    __slots__ = ("ints", "scale")

    def __init__(self, coeffs):
        p = UniPoly._form(*primitive([_exact(c) for c in coeffs]))
        object.__setattr__(self, "ints", p.ints)
        object.__setattr__(self, "scale", p.scale)

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

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
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return cls._new((1,), Fraction(1))

    @classmethod
    def constant(cls, c):
        c = _coerce(c)
        if not c:
            return _ZERO
        return cls._new((1,), c) if c > 0 else cls._new((-1,), -c)

    @classmethod
    def variable(cls):
        return cls._new((0, 1), Fraction(1))

    @classmethod
    def from_roots(cls, roots):
        p = cls.one()
        for r in roots:
            p = p * cls((-_coerce(r), 1))
        return p

    @property
    def coeffs(self):
        """The coefficients as Fractions, lowest degree first."""
        scale = self.scale
        return tuple(scale * c for c in self.ints)

    @property
    def is_zero(self):
        return not self.ints

    def degree(self):
        return len(self.ints) - 1 if self.ints else NEG_INF

    def leading(self) -> Fraction:
        if not self.ints:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.scale * self.ints[-1]

    def monic(self):
        if not self.ints:
            raise DomainError("cannot normalize the zero polynomial")
        return UniPoly._form(self.ints, Fraction(1, self.ints[-1]))

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        # scale_a A + scale_b B = (g / den) (na A + nb B)
        sa, sb = self.scale, other.scale
        den = lcm(sa.denominator, sb.denominator)
        na = sa.numerator * (den // sa.denominator)
        nb = sb.numerator * (den // sb.denominator)
        g = gcd(na, nb)
        na //= g
        nb //= g
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a, b, na, nb = b, a, nb, na
        out = [na * c for c in a]
        for i, c in enumerate(b):
            out[i] += nb * c
        return UniPoly._form(out, Fraction(g, den))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._new([-c for c in self.ints], self.scale)

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            c = _coerce(other)
            return UniPoly._form(self.ints, self.scale * c) if c else _ZERO
        if not self.ints or not other.ints:
            return _ZERO
        return UniPoly._new(_dense_mul(self.ints, other.ints),
                            self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError("exponent must be a nonnegative integer")
        if len(self.ints) <= 2:   # affine, constant or zero: one expansion
            a, b = (self.ints + (0, 0))[:2]
            return UniPoly._form(_binomial_row(a, b, k), self.scale ** k)
        result = UniPoly.one()
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.ints == other.ints and self.scale == other.scale
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, as it compares equal to it
        if len(self.ints) < 2:
            return hash(self.leading() if self.ints else 0)
        return hash((self.ints, self.scale))

    def __divmod__(self, other):
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        if other.is_zero:
            raise DomainError("division by the zero polynomial")
        # self = sa A, other = sb B and m A = q B + r over Z
        q, r, m = _pseudo_divmod(self.ints, other.ints)
        sa = self.scale
        return UniPoly._form(q, sa / (other.scale * m)), UniPoly._form(r, sa / m)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
            nxt = [v * B for v in acc] + [0]
            for j, v in enumerate(acc):
                nxt[j + 1] += v * A
            nxt[0] += c * dk
            acc = nxt
        return UniPoly._form(acc, self.scale / dk)

    def __str__(self):
        coeffs = self.coeffs
        return _signed_sum((coeffs[i], "s" if i == 1 else f"s^{i}" if i else "")
                           for i in reversed(range(len(coeffs))) if coeffs[i])

    def __repr__(self):
        return f"UniPoly({self})"


_ZERO = UniPoly._new((), Fraction(1))


def _pseudo_divmod(a, b):
    """(q, r, m) with m*a = q*b + r over Z, for integer coefficient lists a
    and b (lowest degree first, b[-1] != 0): deg r < deg b, r trimmed and
    m a power of lc(b)."""
    r, lead, m = list(a), b[-1], 1
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        top = r[-1]
        if top:
            shift = len(r) - len(b)
            r = [c * lead for c in r]
            q = [c * lead for c in q]
            q[shift] = top
            m *= lead
            for i, c in enumerate(b):
                r[shift + i] -= top * c
        r.pop()
    while r and not r[-1]:
        r.pop()
    return q, r, m


class Spectrum:
    """Monic normalization, rational roots with multiplicity, monic residual."""

    __slots__ = ("monic", "roots", "residual")

    def __init__(self, monic, roots, residual):
        object.__setattr__(self, "monic", monic)
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "residual", residual)

    def __setattr__(self, name, value):
        raise AttributeError("Spectrum is immutable")

    def __eq__(self, other):
        if not isinstance(other, Spectrum):
            return NotImplemented
        return (self.monic, self.roots, self.residual) == (other.monic, other.roots, other.residual)

    def __str__(self):
        if not self.roots:
            body = "no rational roots"
        else:
            body = ", ".join(f"{r}" + (f" (x{m})" if m > 1 else "") for r, m in self.roots)
        if self.residual.degree() is NEG_INF or self.residual.degree() == 0:
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
        if len(g.ints) == 1 or not (_pseudo_divmod(u, g.ints)[1]
                                    or _pseudo_divmod(v, g.ints)[1]):
            return g.monic()
        W *= 2


def rational_root_spectrum(b: UniPoly) -> Spectrum:
    """All rational roots of b with multiplicities, roots in ascending
    order; the residual carries any remaining non-rational factor, monic.

    The search runs on the primitive integer form f, with no Fraction
    inside it.  A root a/q in lowest terms (q > 0) has a | f(0) and
    q | lc(f), and by Gauss's lemma q*s - a divides f in Z[s], so
    (q - a) | f(1) and (q + a) | f(-1).  Only coprime divisor pairs are
    tried, only inside the Fujiwara bounds on |root| and on 1/|root|, and
    only of a sign that Descartes' rule of signs leaves possible; a pair
    passing the divisibility tests is tested by exact integer division by
    q*s - a, repeated for the multiplicity.
    """
    if b.is_zero:
        raise DomainError("zero polynomial has no spectrum")
    monic = b.monic()
    f = list(monic.ints)
    roots = []
    zeros = 0
    while not f[zeros]:
        zeros += 1
    if zeros:
        roots.append((Fraction(0), zeros))
        f = f[zeros:]
    f = _integer_roots(f, roots)
    roots.sort(key=lambda rm: rm[0])
    return Spectrum(monic, roots, UniPoly._form(f, Fraction(1)).monic())


def _integer_roots(f, roots):
    """Append the rational roots of the primitive integer polynomial f
    (lowest degree first, f[0] != 0) to roots; return f deflated by them."""
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
                    roots.append((Fraction(a, q), mult))
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
    """An integer h with |root| <= h for every root of f (f[-1] != 0):
    Fujiwara's bound 2 max_i |f[d-i] / f[d]|^(1/i), with f[0] halved."""
    d, lead = len(f) - 1, abs(f[-1])
    k = 1
    for i in range(1, d + 1):
        c, scale = abs(f[d - i]), lead * (2 if i == d else 1)
        # least integer t with t^i * scale >= c, by doubling then bisection
        lo, hi = 0, 1
        while hi ** i * scale < c:
            lo, hi = hi, 2 * hi
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** i * scale >= c:
                hi = mid
            else:
                lo = mid + 1
        k = max(k, hi)
    return 2 * k


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


def is_squarefree(p: MultiPoly, trials: int, seed: int) -> bool:
    """Squarefreeness via random line restrictions.

    Restricts p to t -> p(a + t*b) for random integer a, b, resampling
    whenever the restriction degree drops below deg p, then tests
    gcd(u, u') for a nontrivial common factor.  On a degree-preserving
    line every factor of p keeps its degree, so p = g^2 h with deg g > 0
    always shows the repeated factor g(a + t*b).  One clean line therefore
    proves p squarefree: True is certified.  False comes only after
    `trials` lines that all show a repeated factor, and is probabilistic.
    For squarefree p of degree d, u has a repeated root only where its
    discriminant in t, a nonzero polynomial of degree <= d(2d - 2) in
    (a, b), vanishes; drawn from [-10^4, 10^4], a line is bad with
    probability <= d(2d - 2)/(2*10^4 + 1) (Schwartz-Zippel), about 0.009
    at d = 10.  From d of about 100 the bound is 1: it says nothing.
    """
    if p.is_zero:
        raise DomainError("squarefreeness of the zero polynomial is undefined")
    if trials < 1:
        raise DomainError("trials must be positive")
    if trials > MAX_SQUAREFREE_TRIALS:
        raise CapacityError(f"trials {trials} exceeds the limit {MAX_SQUAREFREE_TRIALS}")
    deg = p.degree()
    if deg == 0:
        return True
    rng = random.Random(seed)
    nv = len(p.variables)
    bound = 10**4
    done = 0
    attempts = 0
    while done < trials:
        attempts += 1
        if attempts > 200 * trials:
            raise DomainError("could not sample a degree-preserving line")
        a = [rng.randint(-bound, bound) for _ in range(nv)]
        b = [rng.randint(-bound, bound) for _ in range(nv)]
        if not any(b):
            continue
        u = p.restrict_line(a, b)
        if u.degree() != deg:
            continue  # degree dropped; bad line, resample
        if univariate_gcd(u, u.derivative()).degree() == 0:
            return True
        done += 1
    return False


# -- factored polynomial string parsing ---------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([s()^*+-]))")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad character in polynomial at position {pos}: {text[pos:]!r}")
        num, sym = m.groups()
        out.append(("num", parse_rational(num)) if num is not None else (sym, None))
        pos = m.end()
    return out


def _capped(degree):
    if degree > MAX_PARSED_DEGREE:
        raise CapacityError(f"degree or exponent {degree} exceeds the limit "
                            f"{MAX_PARSED_DEGREE} of parsed polynomials")


def parse_factored(text: str) -> UniPoly:
    """Parse products of factored polynomial strings in s, e.g.
    "(s+2/3)(s+1)^5(s+4/3)(s+2)" or "3s+2" or "(2s+1)(s+1)^2(2s+3)".

    Every product and power is checked against MAX_PARSED_DEGREE before it
    is expanded, and so is every exponent, even of a constant: a larger
    one raises CapacityError.  Parentheses nested deeper than
    MAX_PARSED_DEPTH raise ParseError.
    """
    tokens = _tokenize(text)
    depth = 0
    for kind, _ in tokens:
        depth += (kind == "(") - (kind == ")")
        if depth > MAX_PARSED_DEPTH:
            raise ParseError(f"parentheses nested deeper than {MAX_PARSED_DEPTH}")
    pos = 0

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
            acc = -acc
        while peek() in ("+", "-"):
            op = take()[0]
            term = parse_product()
            acc = acc + (term if op == "+" else -term)
        return acc

    def parse_product():
        acc = parse_factor()
        while True:
            if peek() == "*":
                take()
            elif peek() not in ("num", "s", "("):
                return acc
            factor = parse_factor()
            _capped(max(acc.degree(), 0) + max(factor.degree(), 0))
            acc = acc * factor

    def parse_factor():
        atom = parse_atom()
        if peek() == "^":
            take()
            tok = take("num")
            k = tok[1]
            if k.denominator != 1 or k < 0:
                raise ParseError("exponent must be a nonnegative integer")
            _capped(int(k) * max(atom.degree(), 1))
            atom = atom ** int(k)
        return atom

    def parse_atom():
        kind, value = take()
        if kind == "(":
            inner = parse_sum()
            take(")")
            return inner
        if kind == "num":
            return UniPoly.constant(value)
        if kind == "s":
            return UniPoly.variable()
        raise ParseError(f"unexpected token {kind!r} in polynomial string")

    result = parse_sum()
    if pos != len(tokens):
        raise ParseError(f"trailing input in polynomial string: {tokens[pos:]}")
    return result

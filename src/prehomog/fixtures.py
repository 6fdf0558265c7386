"""Named generator sets, published b-function data, and chain data.

Fixtures are inputs: generator matrices for known divisors, the
catalogued spectra used by the symmetry checks, and the star quiver's
orbit chain points with admissible covectors.  Expected outputs of the
pipeline live in the tests, not here.

The reductive flag is caller-asserted metadata (it implies specialness
and a working functional equation); nothing here verifies it.
"""

from fractions import Fraction
import re

from . import quiver
from .errors import CapacityError, ContextError
from .liealg import GeneratorSet
from .polyring import UniPoly, parse_factored, parse_rational


class Fixture:
    """A named divisor: lazily built generators plus metadata."""

    __slots__ = ("name", "reductive", "description", "_factory", "_cache")

    def __init__(self, name, factory, reductive, description):
        self.name = name
        self.reductive = reductive
        self.description = description
        self._factory = factory
        self._cache = None

    def generators(self) -> GeneratorSet:
        if self._cache is None:
            self._cache = self._factory()
        return self._cache


def _diag(*vals):
    n = len(vals)
    return [[vals[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _nc(n):
    def build():
        mats = [_diag(*[1 if i == k else 0 for i in range(n)]) for k in range(n)]
        return GeneratorSet(mats)
    return build


def _binary_cubic():
    # gl2 acting on coefficients of binary cubics xu^3 + yu^2v + zuv^2 + wv^3
    mats = [
        _diag(3, 2, 1, 0),
        [[0, 0, 0, 0], [3, 0, 0, 0], [0, 2, 0, 0], [0, 0, 1, 0]],
        [[0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 0, 0]],
        _diag(0, 1, 2, 3),
    ]
    return GeneratorSet(mats, variables=("x", "y", "z", "w"))


def _det22_squared():
    # gl2 by left multiplication on 2x2 matrices; f = det^2
    mats = [
        _diag(1, 1, 0, 0),
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
        _diag(0, 0, 1, 1),
    ]
    return GeneratorSet(mats, variables=("x11", "x12", "x21", "x22"))


_QUADRIC3 = [
    _diag(1, 1, 1),
    _diag(2, 1, 0),
    [[0, -2, 0], [0, 0, 1], [0, 0, 0]],
]


def _quadric_cone_3():
    # solvable algebra of (y^2 + xz)z; not special
    return GeneratorSet(_QUADRIC3, variables=("x", "y", "z"))


def _quadric_cone_4():
    # (y^2 + xz)zw: the cone extended by an independent w scaling
    mats = [[row + [0] for row in A] + [[0, 0, 0, 0]] for A in _QUADRIC3]
    mats.append(_diag(0, 0, 0, 1))
    return GeneratorSet(mats, variables=("x", "y", "z", "w"))


def _bilinear_cone_4():
    # (yz + xw)zw; not special
    mats = [
        _diag(1, 1, 0, 0),
        _diag(0, -1, 1, 0),
        _diag(-1, 0, 0, 1),
        [[0, 0, 1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]],
    ]
    return GeneratorSet(mats, variables=("x", "y", "z", "w"))


def _cubic_chain_4():
    # x(y^3 - 3xyz + 3x^2 w); nilpotent chain plus two torus directions
    mats = [
        _diag(1, 0, -1, -2),
        _diag(0, 1, 2, 3),
        [[0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
    ]
    return GeneratorSet(mats, variables=("x", "y", "z", "w"))


def _from_quiver(builder, *args):
    def build():
        qv, d = builder(*args)
        return quiver.infinitesimal_generators(qv, d)
    return build


_STATIC = {
    "binary-cubic": Fixture(
        "binary-cubic", _binary_cubic, True,
        "gl2 on binary cubics; discriminant of the cubic"),
    "det22-squared": Fixture(
        "det22-squared", _det22_squared, True,
        "gl2 by left multiplication on 2x2 matrices; f = det^2"),
    "quadric-cone-3": Fixture(
        "quadric-cone-3", _quadric_cone_3, False,
        "(y^2+xz)z, solvable symmetry algebra"),
    "quadric-cone-4": Fixture(
        "quadric-cone-4", _quadric_cone_4, False,
        "(y^2+xz)zw, the cone with an extra scaling"),
    "bilinear-cone-4": Fixture(
        "bilinear-cone-4", _bilinear_cone_4, False,
        "(yz+xw)zw, non-special"),
    "cubic-chain-4": Fixture(
        "cubic-chain-4", _cubic_chain_4, False,
        "x(y^3-3xyz+3x^2w), non-special"),
    "star-2111": Fixture(
        "star-2111", _from_quiver(quiver.star_quiver), True,
        "three sources into a 2-dimensional center"),
    "dtilde3-22111": Fixture(
        "dtilde3-22111", _from_quiver(quiver.dtilde3_quiver), True,
        "affine D3 shape; nonreduced discriminant det^2 * minors"),
}


# family members by name, each built on its first request
_FAMILY = {}


def get_fixture(name: str) -> Fixture:
    """Resolve a fixture by name; nc-N and atilde-N are families.  Every
    name resolves to one Fixture per process, so its generators are built
    once."""
    got = _STATIC.get(name) or _FAMILY.get(name)
    if got is None:
        got = _FAMILY[name] = _family(name)
    return got


def _family(name):
    m = re.fullmatch(r"(nc|atilde)-(\d+)", name)
    if not m:
        raise ContextError(f"unknown fixture {name!r}")
    kind, n = m.group(1), int(parse_rational(m.group(2)))
    if n < 1:
        raise ContextError(f"{kind}-N needs N >= 1")
    size = n if kind == "nc" else n + 3  # variables of nc-N and atilde-N
    if size > quiver.MAX_GENERATED_VARIABLES:
        raise CapacityError(f"{name} has {size} variables, more than the "
                            f"limit {quiver.MAX_GENERATED_VARIABLES}")
    if kind == "nc":
        return Fixture(name, _nc(n), True, f"normal crossings x1*...*x{n}")
    return Fixture(name, _from_quiver(quiver.atilde_quiver, n), True,
                   f"affine A{n} shape; f = det^2 * path coordinates")


def fixture_names():
    """Concrete names covering every family; used for sweep tests."""
    return ["nc-1", "nc-2", "nc-3", "nc-4", "binary-cubic", "det22-squared",
            "quadric-cone-3", "quadric-cone-4", "bilinear-cone-4",
            "cubic-chain-4", "star-2111", "dtilde3-22111", "atilde-2",
            "atilde-3"]


# ---------------------------------------------------------------------
# star quiver chain: orbit representatives with admissible covectors.
# Points are in the star's own coordinates x{edge}_{row}_1: the 2x3
# matrix whose column j is (x{j}_1_1, x{j}_2_1).

class ChainPoint:
    __slots__ = ("label", "x0", "y0")

    def __init__(self, label, x0, y0):
        self.label = label
        self.x0 = tuple(Fraction(v) for v in x0)
        self.y0 = None if y0 is None else tuple(Fraction(v) for v in y0)


def star_chain():
    """Representatives of the orbit chain of the star discriminant,
    from the open orbit down to the origin."""
    return [
        ChainPoint("open", (1, 0, 0, 1, 1, 1), None),
        ChainPoint("one-minor", (1, 0, 0, 1, 0, 1), (1,)),
        ChainPoint("two-minors", (1, 0, 0, 1, 0, 0), (1, 1)),
        ChainPoint("rank-one", (1, 0, 1, 0, 0, 0), (1, 1, 1)),
        ChainPoint("origin", (0, 0, 0, 0, 0, 0), (1, 0, 0, 1, 1, -1)),
    ]


def star_edge_factors():
    """b-function factors along the chain.  The degree-3 factor at the
    codimension-3 drop is catalogue data, not a codim-1 ratio."""
    return [
        parse_factored("s+1"),
        parse_factored("s+1"),
        parse_factored("(3s+2)(3s+3)(3s+4)"),
        parse_factored("s+1"),
    ]


# ---------------------------------------------------------------------
# published b-function catalogue (dimension <= 4, plus the two reduced
# discriminant families); inputs for the symmetry checks.

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
    return [(label, UniPoly.from_roots([Fraction(r) for r in roots]))
            for label, roots in rows]


def reduced_discriminant_bfunctions():
    """b-functions of the reduced discriminants of the nonreduced
    quiver families; these are the catalogued non-symmetric examples."""
    out = [("dtilde3-reduced", parse_factored("(s+2/3)(s+1)^5(s+4/3)(s+2)"))]
    for n in (2, 3, 4):
        out.append((f"atilde-{n}-reduced",
                    parse_factored(f"(s+1)^{n}(s+2)")))
    return out

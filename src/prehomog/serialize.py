"""JSON views of the core objects.

Rationals travel as strings "p/q" ("p" when the denominator is 1) so no
precision is lost; polynomial term lists are emitted in sorted exponent
order so output bytes are stable run to run.
"""

from fractions import Fraction

from .errors import ContextError, ParseError
from .geometry import OrderForm
from .liealg import Classification, GeneratorSet
from .polyring import (MultiPoly, Spectrum, UniPoly, format_rational,
                       parse_rational)
from .quiver import DimensionVector, Quiver


def rational_to_json(c) -> str:
    return format_rational(Fraction(c))


def vector_from_text(text: str):
    """Comma separated rationals, as used by --point and --covector."""
    parts = [p.strip() for p in str(text).split(",")]
    if parts == [""]:
        return []
    return [parse_rational(p) for p in parts]


def multipoly_to_json(p: MultiPoly) -> dict:
    return {
        "variables": list(p.variables),
        "terms": [{"exponents": list(e), "coefficient": format_rational(c)}
                  for e, c in sorted(p.terms.items())],
    }


def multipoly_from_json(obj) -> MultiPoly:
    try:
        variables = tuple(obj["variables"])
        terms = {tuple(t["exponents"]): parse_rational(t["coefficient"])
                 for t in obj["terms"]}
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed polynomial record: {exc}") from None
    return MultiPoly(variables, terms)


def unipoly_to_json(p: UniPoly):
    """Coefficients, lowest degree first."""
    return [format_rational(c) for c in p.coeffs]


def unipoly_from_json(obj) -> UniPoly:
    return UniPoly([parse_rational(c) for c in obj])


def spectrum_roots_to_json(sp: Spectrum):
    return [[format_rational(r), m] for r, m in sp.roots]


def generatorset_to_json(g: GeneratorSet) -> dict:
    return {
        "n": g.n,
        "variables": list(g.variables),
        "generators": [[[format_rational(v) for v in row] for row in m]
                       for m in g.matrices()],
    }


def generatorset_from_json(obj) -> GeneratorSet:
    try:
        variables = obj.get("variables")
        if variables is not None and not (
                isinstance(variables, list)
                and all(isinstance(v, str) for v in variables)):
            raise TypeError('"variables" must be a list of names')
        mats = [[[parse_rational(str(v)) for v in row] for row in m]
                for m in obj["generators"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed generator record: {exc}") from None
    g = GeneratorSet(mats, variables=variables)
    if "n" in obj and obj["n"] != g.n:
        raise ContextError(f"declared n = {obj['n']} but found {g.n} generators")
    return g


def quiver_to_json(qv: Quiver, d: DimensionVector) -> dict:
    return {
        "vertices": list(qv.vertices),
        "edges": [[a, b] for a, b in qv.edges],
        "dimensions": {v: d[v] for v in qv.vertices},
    }


def quiver_from_json(obj):
    try:
        if not isinstance(obj["vertices"], list):
            raise TypeError('"vertices" must be a list of names')
        qv = Quiver(obj["vertices"], obj["edges"])
        d = DimensionVector(obj["dimensions"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed quiver record: {exc}") from None
    return qv, d


def classification_to_json(cls: Classification) -> dict:
    return {
        "kind": cls.kind,
        "reduced": cls.reduced,
        "special": cls.special,
        "closed_under_bracket": cls.closed_under_bracket,
    }


def bresult_to_json(res) -> dict:
    """Works for BResult and BFailure; held tells them apart."""
    if res.functional_equation_held:
        return {
            "monic_coefficients": unipoly_to_json(res.b),
            "raw_leading": format_rational(res.raw_leading),
            "roots": spectrum_roots_to_json(res.spectrum),
            "residual": unipoly_to_json(res.spectrum.residual),
            "symmetric_about_minus_one": bool(res.symmetric),
            "functional_equation_held": True,
        }
    return {
        "functional_equation_held": False,
        "reason": res.reason,
        "message": res.message(),
        "special": res.special,
    }


def orderform_to_json(o: OrderForm) -> dict:
    return {"m": format_rational(o.m), "half_mu": format_rational(o.half_mu)}

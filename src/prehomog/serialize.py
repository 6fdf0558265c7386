"""JSON views of the core objects.

Rationals travel as strings "p/q" ("p" when the denominator is 1) so no
precision is lost; polynomial term lists are emitted in sorted exponent
order so output bytes are stable run to run.
"""

from .errors import ContextError, ParseError
from .geometry import OrderForm
from .liealg import Classification, GeneratorSet
from .polyring import MultiPoly, Spectrum, UniPoly, _parse_exact, parse_rational
from .quiver import DimensionVector, Quiver


def vector_from_text(text: str):
    """Comma separated rationals, as used by --point and --covector."""
    parts = [p.strip() for p in str(text).split(",")]
    if parts == [""]:
        return []
    return [parse_rational(p) for p in parts]


def multipoly_to_json(p: MultiPoly) -> dict:
    return {
        "variables": list(p.variables),
        "terms": [{"exponents": list(e), "coefficient": str(c)}
                  for e, c in sorted(p.terms.items())],
    }


def unipoly_to_json(p: UniPoly):
    """Coefficients, lowest degree first."""
    return [str(c) for c in p.coeffs]


def spectrum_roots_to_json(sp: Spectrum):
    return [[str(r), m] for r, m in sp.roots]


def generatorset_from_json(obj) -> GeneratorSet:
    try:
        variables = obj.get("variables")
        if variables is not None and not (
                isinstance(variables, list)
                and all(isinstance(v, str) for v in variables)):
            raise TypeError('"variables" must be a list of names')
        if type(obj.get("n", 0)) is not int:  # no bool or float count
            raise TypeError(f'"n" must be an integer, got {obj["n"]!r}')
        # integer entries, as JSON numbers or as "p" text, reach the
        # integer form as ints
        mats = [[[v if type(v) is int else _parse_exact(str(v)) for v in row]
                 for row in m] for m in obj["generators"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed generator record: {exc}") from None
    g = GeneratorSet(mats, variables=variables)
    if "n" in obj and obj["n"] != g.n:
        raise ContextError(f"declared n = {obj['n']} but found {g.n} generators")
    return g


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
            "raw_leading": str(res.raw_leading),
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
    return {"m": str(o.m), "half_mu": str(o.half_mu)}

"""Exact b-functions of prehomogeneous determinants and linear free divisors.

Everything is exact rational arithmetic: discriminants from Lie algebra
generators or quivers, the dual functional equation and its b-function,
symmetry and specialness checks, and microlocal conormal orders.
"""

from .bernstein import (BFailure, BResult, SPowerExpression, apply_operator,
                        bfunction, extract_cofactor, symmetry_check)
from .errors import (CapacityError, ClosureError, ContextError, DomainError,
                     InadmissibleCovectorError, MathFailure, ParseError,
                     PrehomogError)
from .geometry import (OrderForm, PointContext, chain_assemble, conormal_order,
                       euler_at_point, normal_representation, point_context)
from .liealg import (Classification, GeneratorSet, character, classify,
                     discriminant, dual_discriminant, is_special,
                     validate_algebra)
from .polyring import (MultiPoly, Spectrum, UniPoly, is_squarefree,
                       parse_factored, rational_root_spectrum, univariate_gcd)
from .quiver import (DimensionVector, Quiver, atilde_quiver, dtilde3_quiver,
                     infinitesimal_generators, rep_space, star_quiver,
                     tits_form)

__version__ = "0.1.0"

__all__ = [
    "BFailure", "BResult", "CapacityError", "Classification",
    "ClosureError", "ContextError", "DimensionVector", "DomainError",
    "GeneratorSet", "InadmissibleCovectorError", "MathFailure", "MultiPoly",
    "OrderForm", "ParseError", "PointContext",
    "PrehomogError", "Quiver", "Spectrum", "SPowerExpression",
    "UniPoly", "apply_operator", "atilde_quiver", "bfunction",
    "chain_assemble", "character", "classify", "conormal_order",
    "discriminant", "dtilde3_quiver", "dual_discriminant", "euler_at_point",
    "extract_cofactor", "infinitesimal_generators", "is_special",
    "is_squarefree", "normal_representation", "parse_factored",
    "point_context", "rational_root_spectrum", "rep_space", "star_quiver",
    "symmetry_check", "tits_form", "univariate_gcd", "validate_algebra",
]

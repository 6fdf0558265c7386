"""Exact b-functions of prehomogeneous determinants and linear free divisors.

Everything is exact rational arithmetic: discriminants from Lie algebra
generators or quivers, the dual functional equation and its b-function,
symmetry and specialness checks, and microlocal conormal orders.
"""

from .bernstein import (BFailure, BResult, FirstOrderOperator,
                        SPowerExpression, annihilator_identity_check,
                        apply_operator, bfunction, extract_cofactor,
                        fourier_check, fourier_transform, q_dual_operator,
                        q_operator, symmetry_check)
from .errors import (CapacityError, ClosureError, ContextError,
                     DegenerateCharacterError, DegenerateDualError,
                     DomainError, InadmissibleCovectorError, MathFailure,
                     NotInvariantError, NotTransversalError, ParseError,
                     PrehomogError)
from .geometry import (OrderForm, PointContext, chain_assemble, codim1_ratio,
                       conormal_order, euler_at_point, lemma46_check,
                       localization, normal_discriminant,
                       normal_representation, point_context,
                       strong_euler_at_point)
from .liealg import (CharacterData, Classification, GeneratorSet,
                     annihilator_basis, character, classify, discriminant,
                     dual_character_check, dual_generators, infinitesimal_apply,
                     is_special, validate_algebra)
from .polyring import (MultiPoly, Rational, Spectrum, UniPoly, is_squarefree,
                       parse_factored, rational_root_spectrum, univariate_gcd)
from .quiver import (DimensionVector, Quiver, atilde_quiver, dtilde3_quiver,
                     infinitesimal_generators, quiver_discriminant, rep_space,
                     star_quiver, tits_form)

__version__ = "0.1.0"

__all__ = [
    "BFailure", "BResult", "CapacityError", "CharacterData", "Classification",
    "ClosureError", "ContextError", "DegenerateCharacterError",
    "DegenerateDualError", "DimensionVector", "DomainError",
    "FirstOrderOperator", "GeneratorSet", "InadmissibleCovectorError",
    "MathFailure", "MultiPoly", "NotInvariantError", "NotTransversalError",
    "OrderForm", "ParseError", "PointContext", "PrehomogError", "Quiver",
    "Rational", "Spectrum", "SPowerExpression", "UniPoly",
    "annihilator_basis", "annihilator_identity_check", "apply_operator",
    "atilde_quiver", "bfunction", "chain_assemble", "character", "classify",
    "codim1_ratio", "conormal_order", "discriminant",
    "dtilde3_quiver", "dual_character_check", "dual_generators",
    "euler_at_point", "extract_cofactor", "fourier_check",
    "fourier_transform", "infinitesimal_apply", "infinitesimal_generators",
    "is_special", "is_squarefree", "lemma46_check", "localization",
    "normal_discriminant", "normal_representation", "parse_factored",
    "point_context", "q_dual_operator", "q_operator", "quiver_discriminant",
    "rational_root_spectrum", "rep_space", "star_quiver",
    "strong_euler_at_point", "symmetry_check", "tits_form",
    "univariate_gcd", "validate_algebra",
]

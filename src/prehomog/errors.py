"""Exception hierarchy.

Two families: PrehomogError covers malformed or out-of-domain input
(CLI exit code 1), MathFailure covers well-posed computations whose
mathematical verdict is negative (CLI exit code 2).  A generator set
that is not closed under the bracket raises ClosureError before any
character is read: the character comes from the Lie algebra, so there
is no separate failure for an f that is not a relative invariant.
"""


class PrehomogError(Exception):
    """Base class for input and domain errors."""


class ContextError(PrehomogError):
    """Variable context mismatch (unknown variable, wrong dimension)."""


class DomainError(PrehomogError):
    """Input outside an operation's domain (zero where nonzero required, etc.)."""


class CapacityError(PrehomogError):
    """Exponent or degree beyond the supported range."""


class ParseError(PrehomogError):
    """Malformed polynomial or rational string."""


class ClosureError(PrehomogError):
    """Generator span is not closed under the bracket; not a Lie algebra."""


class MathFailure(Exception):
    """Base class for negative mathematical verdicts."""


class InadmissibleCovectorError(MathFailure):
    """No isotropy element satisfies the conormal eigencondition for this covector."""

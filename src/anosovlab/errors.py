"""Exception hierarchy, and the integer check that input errors share.

Every error raised by this package derives from :class:`AnosovLabError`,
so callers (and the CLI) can distinguish domain failures from bugs.
"""

import numbers


class AnosovLabError(Exception):
    """Base class for all package errors."""


class DimensionError(AnosovLabError):
    """Shapes or ranks do not fit the requested operation."""


class InputError(AnosovLabError):
    """A constructor argument is outside its admissible range."""


def check_integer(value, label: str) -> int:
    """``value`` as an int; InputError("<label> is not an integer") unless
    it is an integer, which a bool is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{label} is not an integer")
    return int(value)


class PreconditionError(AnosovLabError):
    """A stated precondition (containment, distinctness, ...) is violated."""


class GapError(AnosovLabError):
    """A required eigenvalue-modulus gap is absent; a bad gap index is an
    InputError.  ``spectral._gap_error`` builds it: ``ratio`` is
    |lambda_k|/|lambda_(k+1)| (inf where lambda_(k+1) is 0), ``index`` k.
    """

    def __init__(self, message, index=None, ratio=None):
        super().__init__(message)
        self.index = index
        self.ratio = ratio


class DomainError(AnosovLabError):
    """The input is outside the domain of definition of the quantity."""


class NumericError(AnosovLabError):
    """An iteration failed to converge or a residual bound was violated."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class BudgetError(AnosovLabError):
    """An enumeration exceeded its configured size cap."""


class ConstructionError(AnosovLabError):
    """A constructed matrix failed its certification residual.

    Used to surface sign-convention problems instead of silently
    accepting a wrong matrix.
    """

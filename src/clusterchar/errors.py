"""Exception hierarchy shared across the package.

Two failure classes matter to callers, and map to CLI exit codes:
input problems (`InputError` and its subclasses, exit 2), and every
other `ClusterCharError` (exit 3): violated internal cross-checks
(`ConsistencyError`), failed point-count fits, inexact Laurent
divisions and exhausted resource caps (`ResourceLimitError`).  A failed
*verification* is a result, not an exception.
"""


class ClusterCharError(Exception):
    """Base class for all package errors."""


class InputError(ClusterCharError):
    """Malformed file, unknown name, or data violating a format contract."""


class DimensionError(InputError):
    """Operands live in different ambient spaces (variable counts, shapes)."""


class AlgebraBuildError(InputError):
    """The presented algebra is invalid or not finite-dimensional at the cap."""


class ConsistencyError(ClusterCharError):
    """Two independent computations of the same quantity disagree.

    Reaching this signals a bug (or a convention mismatch in input data),
    never a legitimate mathematical outcome.
    """


class NonPolynomialCountError(ClusterCharError):
    """Point counts failed the polynomial-interpolation verification."""


class LaurentDivisionError(ClusterCharError):
    """Exact Laurent division left a nonzero remainder."""


class ResourceLimitError(ClusterCharError):
    """A configured enumeration budget or cap was exceeded."""


class NotFiniteTypeError(ResourceLimitError):
    """Seed enumeration did not close up within the seed cap, or its
    initial seed proves infinite type, so that it never would."""

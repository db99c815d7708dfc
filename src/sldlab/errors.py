"""Exception taxonomy shared across the package.

Everything derives from :class:`SldlabError` so callers can catch the
package's failures with a single except clause while still being able to
distinguish user errors (bad shapes, bad fit inputs) from numerical
failures (divergence) when they need to.
"""

from __future__ import annotations


class SldlabError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(SldlabError, ValueError):
    """A shape or dimension constraint was violated (names the offending field)."""


class InvariantError(SldlabError, ValueError):
    """A structural invariant failed, e.g. a basis that is not orthonormal."""


class EmptyDataError(SldlabError, ValueError):
    """An operation received zero samples where at least one is required."""


class InsufficientDataError(SldlabError, ValueError):
    """Too few usable points/samples for the requested computation."""


class DivergenceError(SldlabError, ArithmeticError):
    """An iterate became non-finite."""


class GridError(SldlabError, ValueError):
    """A training-size grid is degenerate (empty range or no representable points)."""


class FitDomainError(SldlabError, ValueError):
    """Fit input outside the log-log domain (nonpositive or duplicate abscissae)."""


class CsvFormatError(SldlabError, ValueError):
    """A curve file could not be parsed; message carries line/column context."""


class SweepCellError(SldlabError, RuntimeError):
    """A sweep cell failed; message identifies the (train size, seed) cell."""


class UsageError(SldlabError, ValueError):
    """Bad command-line input; maps to exit code 2."""

"""Exceptions shared across the library.

Each maps to one CLI exit code, one of the ``EXIT_*`` constants of
``cli`` (EXIT_INPUT, EXIT_INFINITE, EXIT_RESONANCE, EXIT_CAP).
"""


class BinomHornError(Exception):
    """Base class for all library errors."""


class ConventionError(BinomHornError):
    """Input matrix violates the B/A conventions (rank, mixedness, AB=0, ...).

    May carry a rational certificate of the violation in ``certificate``.
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class SizeLimitError(BinomHornError):
    """Input exceeds a hard enumeration limit (e.g. more than 30 rows)."""


class CapExceededError(BinomHornError):
    """Level cap hit before the subgraph atlas could be certified complete,
    or mu certified infinite by y > 0 with yM = 0, held in ``certificate``."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ResonanceError(BinomHornError):
    """A series coefficient denominator vanished (integration of x^-1)."""

    def __init__(self, message, term=None, coordinate=None):
        super().__init__(message)
        self.term = term
        self.coordinate = coordinate


class VeryGenericError(BinomHornError):
    """The parameter hit an integral support-function value; carries the
    violation list as (gamma, facet) pairs per decomposition."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class InfiniteRankError(BinomHornError):
    """The system is generically non-holonomic; no finite solution basis."""

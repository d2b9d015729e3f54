"""Exceptions shared across the library.

Each maps to one CLI exit code, its class attribute ``exit_code``: 2 for
input and convention errors, 3 infinite rank, 4 resonance or a
parameter that is not very generic, 5 the subgraph level cap hit or mu
certified infinite.  Exit 1 is no error: ``verify`` returns it when a
solution fails its interior check.
"""


class BinomHornError(Exception):
    """Base class for all library errors."""

    exit_code = 2


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
    or mu certified infinite by a primitive y >= 0, held in ``certificate``:
    y > 0 with yM = 0, or a face certificate zero on some rows (see
    ``subgraph._face_certificate``)."""

    exit_code = 5

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ResonanceError(BinomHornError):
    """A series coefficient denominator vanished (integration of x^-1)."""

    exit_code = 4

    def __init__(self, message, term=None, coordinate=None):
        super().__init__(message)
        self.term = term
        self.coordinate = coordinate


class VeryGenericError(BinomHornError):
    """The parameter hit an integral support-function value; carries the
    violation list as (gamma, facet) pairs per decomposition."""

    exit_code = 4

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = violations or []


class InfiniteRankError(BinomHornError):
    """The system is generically non-holonomic; no finite solution basis.

    ``certificate`` holds the Andean decomposition with rank(M) = q that
    proves it, as (Jbar, columns of M), both 1-based.
    """

    exit_code = 3

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate

"""Exception taxonomy shared across the package."""


class KahlerCheckError(Exception):
    """Base class for every error this package raises on purpose."""


class ConfigurationError(KahlerCheckError):
    """Bad parameters, unknown names, or malformed manifests."""


class ParseError(ConfigurationError):
    """Expression text rejected by the grammar.

    Carries the 0-based character position of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(KahlerCheckError):
    """A point fell outside a chart's declared domain."""


class MetricError(KahlerCheckError):
    """A metric evaluation came back non-Hermitian or non-positive.

    ``index`` is the flat index of the failing matrix in a stack the
    linalg checks rejected (0 for a single matrix), else None.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class HolomorphyError(KahlerCheckError):
    """A map component depends on conjugated coordinates."""


class FrameError(KahlerCheckError):
    """Frame vectors fail orthonormality or dimension checks."""


class SingularJetError(KahlerCheckError):
    """Division or log applied to a jet whose constant term is ~0.

    ``index`` is the flat index of the first singular point in a stack
    (0 for a jet at one point), as for :class:`MetricError`.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class OrderError(KahlerCheckError):
    """A derivative of higher order than the jet carries was requested."""


class RankError(KahlerCheckError):
    """An operation required full rank that the map does not have here."""


class MultiplicityError(KahlerCheckError):
    """Top singular value is not simple where simplicity is required."""


class DegenerateInputError(KahlerCheckError):
    """Numerically degenerate input (zero vector, indefinite form, ...)."""

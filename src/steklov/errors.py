"""Exception types shared across the package."""


class SteklovError(Exception):
    """Base class for all package errors."""


class GraphValidationError(SteklovError, ValueError):
    """A graph violates a structural constraint."""


class ParseError(SteklovError, ValueError):
    """Malformed serialized input."""


class EigensolverError(SteklovError, RuntimeError):
    """LAPACK failed to diagonalize the DtN matrix or the residual check failed."""


class ResonantLambda(SteklovError, RuntimeError):
    """The transfer recursion hit a vanishing coefficient at this lambda."""

    def __init__(self, lam, vertex, coefficient):
        super().__init__(
            f"resonant lambda={lam!r}: transfer coefficient {coefficient!r} "
            f"vanishes at vertex {vertex}"
        )
        self.lam = lam
        self.vertex = vertex
        self.coefficient = coefficient


class NormalizationFailure(SteklovError, RuntimeError):
    """The flow vanishes at the requested normalization vertex."""


class InternalFault(SteklovError, RuntimeError):
    """A mathematically guaranteed contract failed; carries diagnostics."""

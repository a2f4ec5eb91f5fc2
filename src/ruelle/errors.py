"""Exception types shared across the package."""


class RuelleError(Exception):
    """Base class for all package errors."""


class EnumerationCapExceeded(RuelleError):
    """Raised when a word enumeration would exceed the configured cap."""


class ConfigError(RuelleError):
    """Invalid or inconsistent configuration input."""


class PreconditionError(RuelleError):
    """A documented precondition of an operation does not hold."""


class NonUniqueDominantError(PreconditionError):
    """Several transitive components or irreducible blocks share the maximal pressure.

    Carries the tied index set in ``tied``, the common radius, which a tie
    leaves well defined, in ``lam``, and from the block route every block's
    (rows, radius) in ``blocks``, which ``tied`` indexes.
    """

    def __init__(self, message, tied, lam, blocks=()):
        super().__init__(message)
        self.tied = tuple(tied)
        self.lam = lam
        self.blocks = blocks


class ConvergenceError(RuelleError):
    """An iterative solve did not reach the requested tolerance.

    ``partial`` holds the best available result for inspection.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial

"""Exception types shared across the package."""


class RefinableError(Exception):
    """Base class for all package-specific errors."""


class MaskError(RefinableError):
    """Invalid or malformed mask input."""


class SpectralError(RefinableError):
    """Eigenstructure computation failed."""


class ClusteringError(SpectralError):
    """Eigenvalue clusters and rank tests disagree.

    Raised when a check of the float Jordan structure fails, for instance
    when the nullity staircase of a cluster cannot account for its algebraic
    multiplicity. ``values`` holds the eigenvalues of the scale matrix.
    """

    def __init__(self, message, values=()):
        super().__init__(message)
        self.values = tuple(values)


class DifferenceEquationError(RefinableError):
    """Invalid difference equation: a coefficient that is not a finite number, or none nonzero."""


class ExtensionError(RefinableError):
    """Sequence extension failed (bad precondition or uncoverable window)."""


class ExtensionOverflowError(ExtensionError):
    """Extension values exceeded the overflow guard."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EvaluationError(RefinableError):
    """Dyadic evaluation is not possible for this mask.

    ``candidates`` carries the ambiguous integer-value vectors when the
    eigenvalue-1 eigenspace does not determine them.
    """

    def __init__(self, message, candidates=None):
        super().__init__(message)
        self.candidates = candidates

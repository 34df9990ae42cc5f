"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Inputs have inconsistent or unexpected dimensions."""


class EmptyInputError(ValueError):
    """An operation received an empty sample set or matrix."""


class IllConditionedGramError(RuntimeError):
    """A gram-matrix solve failed even after the jitter escalation cap."""


class NumericalFailureError(RuntimeError):
    """A non-finite value was encountered during iteration.

    Carries the partial trace (if any) on the ``trace`` attribute.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InvalidModelError(ValueError):
    """A transport-map model produced materially negative weights."""


class DatasetError(ValueError):
    """Labeled datasets are mutually inconsistent (e.g. unseen test labels)."""

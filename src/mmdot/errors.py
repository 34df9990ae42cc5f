"""Exception types shared across the library."""


class ShapeError(ValueError):
    """Inputs have inconsistent or unexpected dimensions."""


class EmptyInputError(ValueError):
    """An operation received an empty sample set or matrix."""


class NumericalFailureError(RuntimeError):
    """A non-finite value, a failed support factorization, an objective
    increase or a failed transportation LP; carries the partial trace (if
    any) on the ``trace`` attribute.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class InvalidModelError(ValueError):
    """A transport-map model is malformed or cannot serve the request.

    For example a non-finite or negative coefficient, a model file with a
    missing key or an unknown cost kind, or the closed-form map asked of a
    model with its own ``cost_grad``.
    """


class DatasetError(ValueError):
    """Labeled datasets are mutually inconsistent (e.g. unseen test labels)."""

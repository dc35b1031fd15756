"""Exception taxonomy shared by every module."""


class ArflowError(Exception):
    """Base class for all package-specific errors."""


class DegenerateRotation(ArflowError):
    """6D rotation block cannot be orthonormalized (near-zero or parallel columns)."""


class DimensionMismatch(ArflowError):
    """Array shapes disagree with each other or with the skeleton / model config."""


class SingularTime(ArflowError):
    """Flow-time transform evaluated too close to its singularity."""


class GridTooLarge(ArflowError):
    """Requested voxel grid exceeds the voxel-count cap."""


class EmptyInput(ArflowError):
    """Metric or command received an empty sample list."""


class InsufficientSamples(ArflowError):
    """Not enough feature vectors for the requested subset size."""


class DegenerateCovariance(ArflowError):
    """Feature statistics are unusable: too few vectors for a covariance, or
    features, means, covariances or distances that are not finite in float64."""


class NonFiniteLoss(ArflowError):
    """A forward pass produced NaN or Inf.

    Carries the training step index when raised from the training loop.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class NonFiniteSample(ArflowError):
    """The predictor returned NaN or Inf while sampling, or a step (a guidance
    step too large for float64) left the state non-finite."""


class InvalidConfig(ArflowError):
    """Configuration values violate a documented constraint."""


class SchemaError(ArflowError):
    """Motion file violates the interchange schema.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
